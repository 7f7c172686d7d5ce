"""Shared plumbing for spark-submit job entrypoints.

Each job exposes ``run(spark) -> dict[str, pandas.DataFrame]`` and, when
executed directly (``spark-submit jobs/<name>.py`` or ``python
jobs/<name>.py``), builds its own local session, runs, writes every result
table to ``results/<job>__<table>.parquet`` and prints the headline tables.
"""
from __future__ import annotations

import os
import sys
from pathlib import Path

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"


def make_session(app: str):
    """Local SparkSession mirroring the conftest fixture's config."""
    os.environ.setdefault(
        "PYSPARK_SUBMIT_ARGS",
        f"--master {os.environ.get('SPARK_MASTER', 'local[*]')} "
        f"--driver-memory {os.environ.get('SPARK_DRIVER_MEM', '8g')} "
        "--conf spark.driver.host=127.0.0.1 "
        "--conf spark.ui.enabled=false pyspark-shell",
    )
    from pyspark.sql import SparkSession

    s = (
        SparkSession.builder.appName(app)
        .config("spark.sql.shuffle.partitions", "16")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    s.sparkContext.setLogLevel("ERROR")
    return s


def save_and_print(job: str, outputs: dict, *, print_keys: tuple[str, ...]):
    RESULTS_DIR.mkdir(exist_ok=True)
    for name, df in outputs.items():
        path = RESULTS_DIR / f"{job}__{name}.parquet"
        df.rename(columns=str).to_parquet(path)
        print(f"[{job}] wrote {path} ({len(df)} rows)", file=sys.stderr)
    for key in print_keys:
        print(f"\n=== {job}: {key} ===")
        print(outputs[key].to_string())
