"""Self-test of the benchmark: every workload's op passes its checks,
inputs repeat for a seed, and the tracer sees every binding.

    python3 -m pytest perfbench/tests -q
"""

import filecmp
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

from sheaffuse import _linalg, consistency, fusion, scenarios, sheaf  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_op_passes_its_checks(name, tmp_path):
    w = workloads.WORKLOADS[name](3, tmp_path)
    w.generate()
    w.setup()
    out = w.op(0)
    assert w.check(0, out) == []
    assert out.latency_s > 0 and out.check_s > 0


def test_measure_reports_every_gated_metric_above_zero(tmp_path):
    w = workloads.ChainFuse(3, tmp_path)
    w.generate()
    metrics, readings, attempted, failed, failures, _ = run.measure(
        w, seconds=0)
    assert (attempted, failed, failures) == (1, 0, [])
    assert set(metrics) == set(run.END_TO_END)
    assert all(value > 0 for value in metrics.values())
    assert set(readings) <= set(run.READINGS)


def test_recorded_sar_cases_are_checked_on_every_pass(tmp_path):
    w = workloads.SarStream(3, tmp_path)
    w.generate()
    w.setup()
    for i in (0, len(w.snapshots) + 2):
        out = w.op(i)
        assert w.check(i, out) == []
        case = i % len(w.snapshots) + 1
        out.results[0].radius += 1.0
        assert w.check(i, out) == [
            f"case {case}: radius {out.results[0].radius:.6f}, "
            f"recorded {workloads.SAR_RECORDED[case][0]}"]


def test_inputs_repeat_for_a_seed(tmp_path):
    a = workloads.ChainFuse(5, tmp_path / "a")
    b = workloads.ChainFuse(5, tmp_path / "b")
    c = workloads.ChainFuse(6, tmp_path / "c")
    for w in (a, b, c):
        w.generate()
    names = [p.name for p in a.snapshots] + ["spec.json", "warmup.csv"]
    assert filecmp.cmpfiles(a.dir, b.dir, names, shallow=False)[0] == names
    assert not filecmp.cmp(a.snapshots[0], c.snapshots[0], shallow=False)
    assert filecmp.cmp(a.warmup, c.warmup, shallow=False)


def test_tracer_wraps_from_imports_and_restores_them():
    original = consistency.pullback_global
    tracer = Tracer()
    with tracer.attached():
        assert fusion.pullback_global.__wrapped__ is original
        assert sheaf.nullspace.__wrapped__ is _linalg.nullspace.__wrapped__
        sh = scenarios.build_sar_sheaf()
        consistency.consistency_radius(scenarios.sar_case_assignment(sh, 1))
    assert fusion.pullback_global is original
    assert sheaf.nullspace is _linalg.nullspace
    metrics = tracer.layer_metrics(run.PER_LAYER, dd_residual=0.0,
                                   overhead_pct=0.0)
    assert list(metrics) == list(run.PER_LAYER)
    assert metrics["consistency.edges"] == 6
    assert metrics["kernels.calls"] > 0
    assert metrics["fusion.fuses"] == 0
    assert metrics["sheaf.restrict.self_ms"] <= \
        metrics["consistency.consistency_radius.busy_ms"]


def test_unknown_per_layer_metric_is_refused():
    with pytest.raises(ValueError, match="sheaf.restrict.p99"):
        Tracer().layer_metrics(["sheaf.restrict.p99"], dd_residual=0.0,
                               overhead_pct=0.0)


def test_sar_noise_is_the_spread_of_the_repeat_recordings():
    sh = scenarios.build_sar_sheaf()
    sigma = workloads.sar_noise(sh)
    one, two = (scenarios.sar_case_assignment(sh, c).values for c in (1, 2))
    assert set(sigma) == set(one)
    for oid, s in sigma.items():
        diff = np.subtract(one[oid].coords, two[oid].coords)
        assert np.allclose(s, np.abs(diff) / np.sqrt(2))
        assert (s > 0).any()  # noise on every reading


def test_tail_is_the_highest_percentile_with_ten_beyond():
    assert run.tail(list(range(30))) == (19, 100.0 * 20 / 30)
    assert run.tail(list(range(11))) == (5, 50.0)
