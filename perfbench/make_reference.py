"""Store the current code's deterministic outputs as the benchmark reference.

Usage, from the repository root::

    python3 perfbench/make_reference.py --seeds 0 15

runs every workload once per seed in one Spark session and writes
``perfbench/reference/<workload>.json``. A run of the benchmark then reports
``exp.cells_changed``: the cells whose outputs differ from the reference of
its seed (``exp.cells_compared`` is 0 for a seed without a reference).
Regenerate it only from the commit the comparison should start from.
"""
from __future__ import annotations

import argparse
import json

import run


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, nargs=2, metavar=("FIRST", "LAST"), required=True)
    args = ap.parse_args()
    run._prepare_environment()
    import workloads

    spark, _ = run.start_spark(setups=1)
    try:
        for name, wl in workloads.WORKLOADS.items():
            seeds = {}
            for seed in range(args.seeds[0], args.seeds[1] + 1):
                _, _, output, error = run.run_iteration(spark, wl, seed, None)
                if error is not None:
                    raise SystemExit(f"{name} seed {seed} failed:\n{error}")
                out = wl.check(output)
                if out.problems:
                    raise SystemExit(f"{name} seed {seed} failed checks: {out.problems}")
                seeds[str(seed)] = run.rounded_cells(out.values)
                print(f"{name} seed {seed}: {len(seeds[str(seed)])} cells", flush=True)
            run.REFERENCE_DIR.mkdir(exist_ok=True)
            run.reference_path(name).write_text(
                json.dumps({"scale": wl.scale, "seeds": seeds}, sort_keys=True) + "\n"
            )
    finally:
        run.shutdown(spark)


if __name__ == "__main__":
    main()
