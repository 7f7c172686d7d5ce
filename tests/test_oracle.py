"""Tests for the DuckDB oracle itself.

The oracle is the correctness backstop for every quality metric in the
repro; these tests pin its semantics (including that it *fails* on wrong
results).
"""
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.oracle import assert_equivalent


class TestOracleSemantics:
    def test_passes_on_equivalent_query(self, spark):
        pdf = pd.DataFrame({"k": [1, 1, 2], "v": [1.0, 2.0, 3.0]})
        sdf = spark.createDataFrame(pdf)
        got = sdf.groupBy("k").agg(F.sum("v").alias("s"))
        assert_equivalent(got, "SELECT k, SUM(v) AS s FROM t GROUP BY k", t=pdf)

    def test_fails_on_wrong_result(self, spark):
        pdf = pd.DataFrame({"k": [1, 2], "v": [1.0, 2.0]})
        sdf = spark.createDataFrame(pdf)
        wrong = sdf.groupBy("k").agg((F.sum("v") + 1).alias("s"))
        with pytest.raises(AssertionError):
            assert_equivalent(wrong, "SELECT k, SUM(v) AS s FROM t GROUP BY k", t=pdf)

    def test_fails_on_column_mismatch(self, spark):
        pdf = pd.DataFrame({"k": [1]})
        sdf = spark.createDataFrame(pdf)
        with pytest.raises(AssertionError, match="column mismatch"):
            assert_equivalent(sdf, "SELECT k AS key FROM t", t=pdf)

    def test_accepts_spark_inputs_as_tables(self, spark):
        pdf = pd.DataFrame({"k": [1, 2, 2], "v": [1.0, 2.0, 3.0]})
        sdf = spark.createDataFrame(pdf)
        got = sdf.groupBy("k").agg(F.count("*").alias("c"))
        assert_equivalent(got, "SELECT k, COUNT(*) AS c FROM t GROUP BY k", t=sdf)

    def test_accepts_pandas_result(self):
        pdf = pd.DataFrame({"k": [1, 1, 2], "v": [1.0, 2.0, 3.0]})
        got = pdf.groupby("k", as_index=False).agg(s=("v", "sum"))
        sql = "SELECT k, SUM(v) AS s FROM t GROUP BY k"
        assert_equivalent(got, sql, t=pdf)
        with pytest.raises(AssertionError):
            assert_equivalent(got.assign(s=got["s"] + 1), sql, t=pdf)
