"""Fast tests of the benchmark's own code: statistics, metric names and a
tiny end-to-end run of run.py.

    python3 -m pytest -q bench/tests
"""

import json
import math
import re
import statistics
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from spans import Tracer, layer_metrics  # noqa: E402
from stats import median, nearest_rank, quartiles, relative_spread, tail_rank  # noqa: E402

with open(BENCH.parent / "BENCHMARK.json") as _fh:
    BENCHMARK = json.load(_fh)

TINY = {
    "kind": "verify", "n": 32, "l_box_pi": 8, "xi_cutoff": 2.3,
    "tau_max": 0.1, "dtau": 0.02,
    "checks": ["lemma2.1", "lemma2.2-grad", "lemma2.2-lap", "eq3.7-identity",
               "eq3.21-chi", "eq3.10", "eq4.4"],
}
TINY_KERNELS = {"sizes": [16], "reps": {"16": 1}}


class TestTailPercentile:
    @pytest.mark.parametrize("n, percentile", [(20, 50), (30, 66), (100, 90),
                                               (250, 96), (1000, 99)])
    def test_highest_percentile_with_ten_beyond(self, n, percentile):
        p = tail_rank(n)
        value, beyond = nearest_rank(list(range(1, n + 1)), p)
        assert p == percentile
        assert beyond >= 10
        assert value == math.ceil(p * n / 100)
        if p < 99:  # the next percentile up leaves fewer than ten beyond
            assert n - math.ceil((p + 1) * n / 100) < 10

    def test_beyond_counts_samples_above_the_value(self):
        values = [float(v) for v in range(250, 0, -1)]
        value, beyond = nearest_rank(values, tail_rank(len(values)))
        assert sum(v > value for v in values) == beyond

    def test_too_few_samples_gives_the_maximum(self):
        assert tail_rank(18) == 100
        assert nearest_rank([3.0, 1.0, 2.0] * 6, 100) == (3.0, 0)

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            nearest_rank([], 90)

    def test_pooled_passes_keep_one_pass_percentile(self):
        # two passes of 250 intervals: p96 as for one pass, 20 beyond it
        pooled = list(range(1, 251)) * 2
        p = tail_rank(250)
        value, beyond = nearest_rank(pooled, p)
        assert (p, value, beyond) == (96, 240.0, 20)


class TestQuartiles:
    def test_match_statistics_quantiles(self):
        values = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0, 10.0]
        assert quartiles(values) == tuple(statistics.quantiles(values, n=4))
        assert median(values) == 5.5

    def test_relative_spread(self):
        values = [9.0, 10.0, 10.0, 10.0, 11.0] * 2
        q1, q2, q3 = statistics.quantiles(values, n=4)
        assert relative_spread(values) == pytest.approx((q3 - q1) / q2)
        assert relative_spread([4.0] * 10) == 0.0


def _names(section):
    return {m["name"] for m in BENCHMARK[section]}


def _kernel_fns(names):
    return {re.match(r"kernel\.(\w+)\.n\d+_", n).group(1)
            for n in names if n.startswith("kernel.")}


class TestMetricNames:
    def test_end_to_end_names(self):
        fake_pass = {"run_s": 1.0, "gaps_ms": [1.0, 2.0], "gauge_s": [0.003],
                     "values": {"worst_check_ratio": 0.5}}
        metrics, _ = run.end_to_end([0.5], {"passes": [fake_pass], "peak_rss_mb": 9.0})
        assert set(metrics) == _names("end_to_end")

    def test_per_layer_names(self):
        declared = _names("per_layer")
        layers = set(layer_metrics(Tracer())) | {"trace.run_s", "trace.overhead_s"}
        assert layers <= declared
        kernels = declared - layers
        sizes = {int(re.search(r"\.n(\d+)_", n).group(1)) for n in kernels}
        assert sizes == set(run.KERNEL_SIZES["sizes"])
        assert {n.rsplit("_", 1)[1] for n in kernels} == {"ms", "bytes"}

    def test_workloads_match(self):
        assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)

    def test_setup_has_the_largest_bound(self):
        bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
        assert bounds["setup_s"] == max(bounds.values())


class TestSmokeRun:
    """run.measure end to end on a 6-sample n=32 window."""

    def test_untraced(self):
        record = run.measure("tiny", TINY, seed=0, seconds=1, trace=False)
        assert record["correct"], record["problems"]
        assert record["attempted"] >= len(TINY["checks"])
        assert record["failed"] == 0
        assert set(record["metrics"]) == _names("end_to_end")
        assert all(v > 0 for v in record["metrics"].values())
        assert record["reference"] == "absent"

    def test_traced(self, monkeypatch):
        monkeypatch.setattr(run, "KERNEL_SIZES", TINY_KERNELS)
        record = run.measure("tiny", TINY, seed=0, seconds=1, trace=True)
        assert record["correct"], record["problems"]
        metrics = record["metrics"]
        declared = _names("per_layer")
        assert {n for n in metrics if not n.startswith("kernel.")} == {
            n for n in declared if not n.startswith("kernel.")
        }
        assert _kernel_fns(metrics) == _kernel_fns(declared)
        # one ledger sample per snapshot, one projection per tendency
        assert metrics["dynamics.tendency_evals"] % 4 == 0
        assert metrics["spectral.leray_calls.dynamics"] == metrics["dynamics.tendency_evals"]
        assert metrics["ledger.feed_s"] > metrics["ledger.feed_self_s"] > 0
        assert metrics["spectral.inverse_calls.ledger"] > 0


def _pass(**overrides):
    good = {"attempted": 7, "failed": [], "errors": {}, "problems": [],
            "values": {"worst_check_ratio": 0.5, "E0_final": 1.0}}
    return dict(good, **overrides)


class TestCorrectness:
    def test_clean_passes(self):
        verdict = run.correctness("tiny", 0, [{"passes": [_pass(), _pass()]}])
        assert verdict["correct"] and verdict["attempted"] == 14

    @pytest.mark.parametrize("bad", [
        {"failed": ["lemma2.1"]},
        {"errors": {"eq4.4": "FitError: window"}},
        {"problems": ["non-finite record column E0"]},
        {"values": {"worst_check_ratio": 0.5, "E0_final": 1.0 + 1e-9}},
    ])
    def test_any_defect_is_incorrect(self, bad):
        verdict = run.correctness("tiny", 0, [{"passes": [_pass()]}, {"passes": [_pass(**bad)]}])
        assert not verdict["correct"]

    def test_reference_mismatch_is_incorrect(self, monkeypatch):
        monkeypatch.setattr(run, "reference_mismatches",
                            lambda workload, seed, values: ["E0_final: 1.0 vs 2.0"])
        verdict = run.correctness("tiny", 0, [{"passes": [_pass()]}])
        assert not verdict["correct"]
        assert verdict["reference"] == "compared"

    def test_weakform_reference_depends_on_seed(self):
        with open(BENCH / "reference.json") as fh:
            entries = json.load(fh)["weakform"]
        keys = {"worst_check_ratio", "energy_final"} | {f"residual.{i}" for i in range(10)}
        assert all(set(e) == keys for e in entries.values())
        # the seeded random run's outputs differ from seed to seed
        assert len({e["energy_final"] for e in entries.values()}) == len(entries)
        assert len({e["residual.1"] for e in entries.values()}) == len(entries)

    def test_reference_compare_tolerance(self, tmp_path, monkeypatch):
        ref = {"tiny": {"0": {"worst_check_ratio": 0.5, "E0_final": 1.0}}}
        (tmp_path / "reference.json").write_text(json.dumps(ref))
        monkeypatch.setattr(run, "BENCH", tmp_path)
        close = {"worst_check_ratio": 0.5 * (1 + 1e-9), "E0_final": 1.0}
        assert run.reference_mismatches("tiny", 0, close) == []
        assert run.reference_mismatches("tiny", 0, {"worst_check_ratio": 0.51,
                                                     "E0_final": 1.0})
        assert run.reference_mismatches("tiny", 0, {"worst_check_ratio": 0.5})
        assert run.reference_mismatches("tiny", 1, close) is None
