"""The committed tables are the tables of the committed suites.

Each job is fed its own committed suite rows (no Spark: the suite runners
are patched) and writes its outputs the way it does when run; every output
must equal the committed parquet of the same name.
"""
import sys
from pathlib import Path

import pandas as pd

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "jobs"))

import _common
import table4_distgnn_amortization
import table5_distdgl_amortization

RESULTS = Path(__file__).resolve().parent.parent / "results"


def committed(job: str, name: str) -> pd.DataFrame:
    return pd.read_parquet(RESULTS / f"{job}__{name}.parquet")


def assert_outputs_committed(job: str, outputs: dict, tmp_path, monkeypatch) -> None:
    monkeypatch.setattr(_common, "RESULTS_DIR", tmp_path)
    _common.save_and_print(job, outputs, print_keys=())
    assert sorted(outputs) == sorted(
        p.name.removeprefix(f"{job}__").removesuffix(".parquet")
        for p in RESULTS.glob(f"{job}__*.parquet")
    )
    for name in outputs:
        pd.testing.assert_frame_equal(
            pd.read_parquet(tmp_path / f"{job}__{name}.parquet"), committed(job, name),
            obj=name,
        )


def test_table4_job_reproduces_its_committed_tables(tmp_path, monkeypatch):
    job = table4_distgnn_amortization
    monkeypatch.setattr(
        job, "run_distgnn_suite", lambda **_: committed("table4_distgnn", "suite")
    )
    assert_outputs_committed("table4_distgnn", job.run(), tmp_path, monkeypatch)


def test_table5_job_reproduces_its_committed_tables(tmp_path, monkeypatch):
    # Each graph's committed quality rows and suite rows (the k=8 suite, the
    # Figure 24 and Figure 26 rows), in k order, stand in for ``distdgl_cells``.
    suite, fig24, fig26, quality = (
        committed("table5_distdgl", name)
        for name in ("suite", "fig24_suite", "fig26_suite", "fig12_quality")
    )
    fig24 = fig24.query("k != 8 and not (graph == 'OR' and k == 16)")
    rows = pd.concat([suite, fig24, fig26], ignore_index=True)

    def cells(spark, graph, *, partitioners, grids, seed):
        return (
            quality[quality["graph"] == graph],
            rows[rows["graph"] == graph].sort_values("k", kind="stable"),
        )

    job = table5_distdgl_amortization
    monkeypatch.setattr(job, "load_bundle", lambda name, **_: name)
    monkeypatch.setattr(job, "distdgl_cells", cells)
    assert_outputs_committed("table5_distdgl", job.run(None), tmp_path, monkeypatch)
