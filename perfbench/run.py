"""Benchmark of the partition -> sample -> simulate pipeline.

Usage, from the repository root::

    python3 perfbench/run.py --workload dgl_deep --seed 1 --seconds 10 --trace 0

One process sets up (imports, a local SparkSession configured like
``jobs/_common.make_session``, one warm-up sampling epoch) and then repeats
the workload for ``--seconds``. Each iteration is timed, then its outputs
are checked cell by cell. The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` (cells) and ``metrics``: the
end-to-end metrics of BENCHMARK.json with ``--trace 0``, its per-layer
metrics with ``--trace 1``. The line before it is the run manifest.

``--trace 1`` alternates traced and untraced iterations, traced first: layer
spans come from the traced ones, ``trace.overhead_s`` is the difference of
the two median wall times.
"""
from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shlex  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
REFERENCE_DIR = HERE / "reference"

#: Set-ups per run; ``setup_s`` is their median. The first is cold (JVM
#: launch, imports, codegen); later ones restart the SparkSession on the
#: running JVM and repeat the warm-up epoch.
SETUPS = 3
DRIVER_MEMORY = "2g"
#: Significant digits kept when comparing outputs with the reference.
REFERENCE_DIGITS = 10


def _prepare_environment() -> None:
    """Point Spark, JVM and Python scratch space into the checkout; find the code."""
    missing = [p for p in (ROOT / "src" / "repro", ROOT / "jobs" / "_common.py")
               if not p.exists()]
    if missing:
        sys.exit(f"perfbench: {', '.join(map(str, missing))} not found; "
                 "run from a checkout of the repository")
    tmp = WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["SPARK_LOCAL_DIRS"] = str(WORK / "spark-local")
    os.environ["TMPDIR"] = str(tmp)
    # make_session only fills PYSPARK_SUBMIT_ARGS when it is unset: same master
    # and driver host, a fixed heap, JVM scratch in the checkout, no progress bar.
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master local[*] --driver-memory {DRIVER_MEMORY} "
        f"--driver-java-options {shlex.quote(f'-Djava.io.tmpdir={tmp} -XX:-UsePerfData')} "
        "--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false "
        "--conf spark.ui.showConsoleProgress=false pyspark-shell"
    )
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "jobs")]


def start_spark(setups: int = SETUPS):
    """Set up ``setups`` times; returns the last session and each set-up time."""
    from _common import make_session

    import workloads

    spark, times, t0 = None, [], T_START
    for _ in range(setups):
        if spark is not None:
            spark.stop()
        spark = make_session("perfbench")
        workloads.warm_up(spark)
        times.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
    return spark, times


def shutdown(spark) -> None:
    """Stop the session and the JVM it runs in, and wait for the JVM to exit."""
    from pyspark import SparkContext

    spark.stop()
    gateway = SparkContext._gateway
    if gateway is None:
        return
    proc = getattr(gateway, "proc", None)
    gateway.shutdown()
    SparkContext._gateway = SparkContext._jvm = None
    if proc is not None:
        proc.stdin.close()
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


# --- reference outputs ------------------------------------------------------


def _rounded(v):
    if isinstance(v, list):
        return [_rounded(x) for x in v]
    return float(f"{float(v):.{REFERENCE_DIGITS}g}")


def rounded_cells(values: dict[str, dict]) -> dict[str, dict]:
    return {c: {k: _rounded(v) for k, v in vals.items()} for c, vals in values.items()}


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json"


def compare_with_reference(workload: str, seed: int, values: dict) -> tuple[int, int]:
    """(cells compared, cells that differ) against the stored outputs of ``seed``."""
    path = reference_path(workload)
    ref = json.loads(path.read_text())["seeds"].get(str(seed)) if path.exists() else None
    if ref is None:
        return 0, 0
    cur = rounded_cells(values)
    return len(ref), sum(cur.get(c) != v for c, v in ref.items()) + len(cur.keys() - ref.keys())


# --- one iteration ----------------------------------------------------------


def cpu_seconds() -> float:
    """CPU seconds used so far by this process and the Spark JVM it drives."""
    from pyspark import SparkContext

    with open(f"/proc/{SparkContext._gateway.proc.pid}/stat") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    # utime and stime are fields 14 and 15 of /proc/<pid>/stat.
    jvm_ticks = int(fields[11]) + int(fields[12])
    return time.process_time() + jvm_ticks / os.sysconf("SC_CLK_TCK")


def run_iteration(spark, wl, seed: int, tracer):
    """Run one workload iteration; returns (wall s, CPU s, output or None, error)."""
    import tracing

    ctx = tracing.patched(tracer) if tracer else nullcontext()
    c0, t0 = cpu_seconds(), time.perf_counter()
    output = error = None
    try:
        with ctx, (tracer.span("exp.run") if tracer else nullcontext()):
            output = wl.run(spark, seed)
    except Exception:  # a failing workload is reported as failed cells
        error = traceback.format_exc()
    return time.perf_counter() - t0, cpu_seconds() - c0, output, error


def trace_metrics(wl, tracer) -> tuple[dict[str, float], list[str], set[str]]:
    """Per-layer metrics of one traced iteration, trace problems, failed cells."""
    import health
    import tracing
    from repro.partitioning.registry import EDGE_PARTITIONERS, VERTEX_PARTITIONERS

    timed_layers = (
        ["graphs.load"]
        + [f"partitioning.edge.{p}" for p in EDGE_PARTITIONERS]
        + [f"partitioning.vertex.{p}" for p in VERTEX_PARTITIONERS]
        + ["partitioning.quality", "sampling.plan", "sampling.epoch", "simulate.phase_times",
           "simulate.partition_stats", "simulate.epoch_metrics", "exp.tables"]
    )
    tracer.collect_spark_counts()
    root = tracer.spans[0]
    seconds, count, tasks = defaultdict(float), defaultdict(int), defaultdict(int)
    jobs, failed_tasks = defaultdict(int), defaultdict(int)
    for s in tracer.spans[1:]:
        seconds[s.name] += s.seconds
        count[s.name] += 1
        layer = s.name if s.name in tracing.SPARK_LAYERS else "other"
        tasks[layer] += s.tasks
        jobs[layer] += s.jobs
        failed_tasks[layer] += s.failed_tasks
    tasks["other"] += root.tasks

    m = {f"{name}_s": seconds[name] for name in timed_layers}
    m["exp.harness_self_s"] = root.seconds - sum(
        s.seconds for s in tracer.spans if s.parent is root
    )
    m["partitioning.quality.spark_tasks"] = tasks["partitioning.quality"]
    m["sampling.spark_jobs"] = jobs["sampling.epoch"]
    m["sampling.spark_tasks"] = tasks["sampling.epoch"]
    m["sampling.spark_failed_tasks"] = failed_tasks["sampling.epoch"]
    m["exp.spark_tasks_other"] = tasks["other"]

    failed, rows, orphans, overruns = set(), 0, 0, 0
    for e in tracer.epochs:
        h = health.sampler_health(e.seeds, e.stats.sampled, e.fanouts,
                                  tracer.bundles[e.graph].edges)
        rows += h.rows
        orphans += h.orphan_rows
        overruns += h.fanout_overruns
        if h.fanout_overruns or h.missing_edges:
            failed |= {c for c in wl.cells if c.endswith("/" + e.cell)}
            print(f"perfbench: {e.cell}: {h}", file=sys.stderr)
    for col in ("sampled_edges", "input_vertices", "remote_inputs"):
        m[f"sampling.{col}"] = sum(e.stats.epoch_total(col) for e in tracer.epochs)
    m["sampling.edges_per_s"] = (
        m["sampling.sampled_edges"] / m["sampling.epoch_s"] if m["sampling.epoch_s"] else 0.0
    )
    m["sampling.orphan_rows"] = orphans
    m["sampling.fanout_overruns"] = overruns
    m["sampling.consistent_frac"] = 1.0 - orphans / rows if rows else 0.0

    problems = [f"no {name} span" for name in wl.spans if not count[name]]
    problems += [
        f"{name} span on a workload that bypasses it"
        for name in count for prefix in wl.bypass if name.startswith(prefix)
    ]
    if not wl.spark_outside_quality and tasks["other"] + tasks["sampling.epoch"]:
        problems.append("Spark tasks outside partitioning.quality")
    return m, problems, failed


# --- the run ----------------------------------------------------------------


def measure(spark, wl, seed: int, seconds: float, trace: bool) -> dict:
    import tracing

    walls = {False: [], True: []}
    cpus = {False: [], True: []}
    per_layer = defaultdict(list)
    attempted = failed = 0
    changed, compared = 0, 0
    problems: list[str] = []
    deadline = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < deadline or (trace and not walls[False]):
        traced = trace and i % 2 == 0
        tracer = tracing.Tracer(spark.sparkContext) if traced else None
        wall, cpu, output, error = run_iteration(spark, wl, seed, tracer)
        walls[traced].append(wall)
        cpus[traced].append(cpu)
        attempted += len(wl.cells)
        i += 1
        if error is not None:
            failed += len(wl.cells)
            problems.append(error)
            continue
        out = wl.check(output)
        bad = {c for c in wl.cells if c in out.problems or c not in out.values}
        problems += [f"{c}: {p}" for c, ps in out.problems.items() for p in ps]
        if "table" in out.problems:
            bad = set(wl.cells)
        n, d = compare_with_reference(wl.name, seed, out.values)
        compared, changed = n, max(changed, d)
        if traced:
            m, trace_problems, bad_epochs = trace_metrics(wl, tracer)
            problems += trace_problems
            if trace_problems:
                bad = set(wl.cells)
            bad |= bad_epochs
            for k, v in m.items():
                per_layer[k].append(v)
        failed += len(bad)
    for p in problems:
        print(f"perfbench: {p}", file=sys.stderr)
    result = {
        "attempted": attempted,
        "failed": failed,
        "walls": walls,
        "cpus": cpus,
        "cells_changed": changed,
        "cells_compared": compared,
        "per_layer": {k: statistics.median(v) for k, v in per_layer.items()},
    }
    if trace:
        result["per_layer"].update(
            {
                "exp.cells_changed": changed,
                "exp.cells_compared": compared,
                "trace.overhead_s": statistics.median(walls[True])
                - statistics.median(walls[False]),
            }
        )
    return result


def _git_sha() -> str | None:
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True,
            timeout=30, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _source_digest() -> str:
    """SHA-256 over the program's source files, for checkouts without git."""
    h = hashlib.sha256()
    for p in sorted([*(ROOT / "src").rglob("*.py"), *(ROOT / "jobs").glob("*.py")]):
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def manifest(spark, args, setups, r) -> dict:
    import numpy
    import pandas
    import pyspark

    import workloads

    sc = spark.sparkContext
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": workloads.WORKLOADS[args.workload].scale,
        "git_sha": _git_sha(),
        "source_sha256": _source_digest(),
        "spark_master": sc.master,
        "spark_conf": {
            k: spark.conf.get(k)
            for k in ("spark.sql.shuffle.partitions", "spark.sql.autoBroadcastJoinThreshold",
                      "spark.sql.execution.arrow.pyspark.enabled")
        },
        "default_parallelism": sc.defaultParallelism,
        "driver_memory": sc.getConf().get("spark.driver.memory"),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "pyspark": pyspark.__version__,
        "pandas": pandas.__version__,
        "numpy": numpy.__version__,
        "setup_s": setups,
        "wall_s": r["walls"][False],
        "wall_s_traced": r["walls"][True],
        "cpu_s": r["cpus"][False],
        "cells_changed": r["cells_changed"],
        "cells_compared": r["cells_compared"],
    }


def declared_metrics(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    wl = workloads.WORKLOADS[args.workload]
    units = declared_metrics(bool(args.trace))

    spark = None
    try:
        # setup_s is reported only untraced; a traced run sets up once.
        spark, setups = start_spark(1 if args.trace else SETUPS)
        r = measure(spark, wl, args.seed, args.seconds, bool(args.trace))
        info = manifest(spark, args, setups, r)
    finally:
        if spark is not None:
            shutdown(spark)

    if args.trace:
        # A layer metric is missing only when every traced iteration raised;
        # those iterations already count as failed cells.
        values = dict.fromkeys(units, 0.0) | r["per_layer"]
    else:
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(r["walls"][False]),
            "cpu_s": statistics.median(r["cpus"][False]),
            "driver_peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "cells_ok_frac": 1.0 - r["failed"] / r["attempted"],
        }
    if values.keys() != units.keys():
        sys.exit(f"perfbench: metrics {sorted(values.keys() ^ units.keys())} "
                 "do not match BENCHMARK.json")
    print("manifest " + json.dumps(info))
    print(json.dumps({
        "correct": r["failed"] == 0,
        "attempted": r["attempted"],
        "failed": r["failed"],
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    _prepare_environment()
    sys.exit(main())
