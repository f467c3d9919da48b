"""Tests of the benchmark's own arithmetic: self time, percentiles, wrapping, generation.

    python3 -m pytest perfbench -q
"""

import math
import sys
import types
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import tracing  # noqa: E402
import workloads  # noqa: E402


def span(sid, parent, start, end, name="linalg.herm_eig", ok=True):
    return (sid, parent, parent if parent >= 0 else sid, name, start, end, ok)


def test_covered_merges_overlaps_and_clips_to_the_parent():
    assert tracing.covered((0.0, 10.0), []) == 0.0
    assert tracing.covered((0.0, 10.0), [(1.0, 3.0), (2.0, 4.0), (6.0, 7.0)]) == pytest.approx(4.0)
    assert tracing.covered((0.0, 10.0), [(-2.0, 1.0), (9.0, 12.0)]) == pytest.approx(2.0)
    assert tracing.covered((0.0, 10.0), [(1.0, 9.0), (2.0, 3.0)]) == pytest.approx(8.0)
    assert tracing.covered((0.0, 10.0), [(11.0, 12.0)]) == 0.0


def test_self_time_is_duration_minus_direct_children():
    spans = [
        span(0, -1, 0.0, 10.0),
        span(1, 0, 1.0, 4.0),
        span(2, 1, 2.0, 3.0),
        span(3, 0, 5.0, 7.0),
    ]
    selfs = tracing.self_times(spans)
    assert selfs == pytest.approx({0: 5.0, 1: 2.0, 2: 1.0, 3: 2.0})
    assert sum(selfs.values()) == pytest.approx(10.0)


def test_percentile_matches_linear_interpolation():
    values = list(range(1, 11))
    assert tracing.percentile(values, 50) == pytest.approx(5.5)
    assert tracing.percentile(values, 90) == pytest.approx(9.1)
    assert tracing.percentile([3.0], 90) == 3.0
    rng = np.random.default_rng(7)
    sample = rng.exponential(size=137).tolist()
    for q in (0, 10, 50, 90, 99, 100):
        assert tracing.percentile(sample, q) == pytest.approx(float(np.percentile(sample, q)))
    with pytest.raises(ValueError):
        tracing.percentile([], 50)


@pytest.fixture
def fake_package(monkeypatch):
    """A package with linalg.herm_eig, bound by name in tomography too; every
    other listed function is missing."""

    def herm_eig(m):
        return m * 2

    def psd_project(rho_hat):
        if rho_hat.min() < 0:
            return np.clip(rho_hat, 0, None)
        return rho_hat

    def reconstruct_full(records):
        return tomo.psd_project(np.array(records, dtype=float))

    def exploding(x):
        raise ValueError("boom")

    pkg = types.ModuleType("fakepkg")
    linalg = types.ModuleType("fakepkg.linalg")
    linalg.herm_eig = herm_eig
    linalg.fidelity = exploding
    tomo = types.ModuleType("fakepkg.tomography")
    tomo.herm_eig = herm_eig
    tomo.psd_project = psd_project
    tomo.reconstruct_full = reconstruct_full
    for name, module in (("fakepkg", pkg), ("fakepkg.linalg", linalg), ("fakepkg.tomography", tomo)):
        monkeypatch.setitem(sys.modules, name, module)
    return linalg, tomo, herm_eig


def test_install_wraps_every_binding_and_reports_absent(fake_package):
    linalg, tomo, original = fake_package
    tracer = tracing.Tracer()
    patches, absent = tracing.install(tracer, package="fakepkg")
    try:
        assert linalg.herm_eig is not original and tomo.herm_eig is linalg.herm_eig
        assert linalg.herm_eig(3) == 6 and tomo.herm_eig(4) == 8
        with pytest.raises(ValueError):
            linalg.fidelity(1)
    finally:
        tracing.uninstall(patches)
    assert linalg.herm_eig is original and tomo.herm_eig is original
    assert "noise.run_noisy" in absent and "linalg.herm_eig" not in absent
    metrics = tracing.layer_metrics(tracer, absent)
    assert metrics["linalg.herm_eig.calls"] == 2
    assert metrics["linalg.errors"] == 1
    assert metrics["noise.run_noisy.calls"] == 0
    assert metrics["trace.absent_functions"] == len(absent)


def test_layer_shares_sum_to_one_and_psd_repairs_are_counted(fake_package):
    _, tomo, _ = fake_package
    tracer = tracing.Tracer()
    patches, absent = tracing.install(tracer, package="fakepkg")
    try:
        tomo.reconstruct_full([[0.5, 0.1], [0.1, 0.5]])
        tomo.reconstruct_full([[0.5, -0.1], [-0.1, 0.5]])
        tracer.context = "exact"
        tomo.reconstruct_full([[1.0, 0.0], [0.0, 0.0]])
    finally:
        tracing.uninstall(patches)
    metrics = tracing.layer_metrics(tracer, absent)
    assert metrics["tomography.reconstruct_full.calls"] == 3
    assert metrics["tomography.psd_project.calls"] == 3
    assert metrics["tomography.psd_repairs"] == 1
    assert metrics["tomography.psd_repair_ratio_sampled"] == 0.5
    assert metrics["tomography.psd_repair_ratio_exact"] == 0.0
    shares = sum(metrics[f"{layer}.share"] for layer in tracing.WRAPPED)
    assert shares == pytest.approx(1.0)
    parents = {s[0]: s[1] for s in tracer.spans}
    assert all(parents[s[0]] == -1 for s in tracer.spans if s[3].endswith("reconstruct_full"))
    assert all(parents[s[0]] >= 0 for s in tracer.spans if s[3].endswith("psd_project"))


def test_generation_is_a_function_of_the_seed():
    for workload in workloads.WORKLOADS:
        a = workloads.build(workload, 5)
        b = workloads.build(workload, 5)
        c = workloads.build(workload, 6)
        assert [(x.experiment, x.params) for x in a] == [(x.experiment, x.params) for x in b]
        assert [x.params for x in a] != [x.params for x in c]
        assert sum(x.experiment == "xprep_single" for x in a) >= 100
        assert {x.experiment for x in a} == set(workloads.SWEEPS) | {"xprep_single"}


def test_generated_targets_are_valid_x_states():
    for seed in range(20):
        for call in workloads.build("single_state_highshot", seed):
            if call.target is None:
                continue
            x = workloads._expected_entries(call.target)
            diag = [x[k] for k in "abcd"]
            assert min(diag) > 0 and math.isclose(sum(diag), 1.0, abs_tol=1e-12)
            assert math.hypot(x["w_re"], x["w_im"]) < math.sqrt(x["a"] * x["d"])
            assert math.hypot(x["z_re"], x["z_im"]) < math.sqrt(x["b"] * x["c"])


def test_closed_form_concurrence():
    bell = {"a": 0.5, "b": 0.0, "c": 0.0, "d": 0.5, "w_re": 0.5, "w_im": 0.0, "z_re": 0.0, "z_im": 0.0}
    assert workloads.closed_form(bell) == pytest.approx(1.0)
    mixed = workloads.shape_map([0.25] * 4, 0.3, 0.7)
    assert workloads.closed_form(mixed) == 0.0
