import errno
import gc
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import prepare
from goldens import GOLDEN_PATH
from oracles import circuit_unitary
from xsim.circuits import Circuit, build_xstate_circuit, run_stack
from xsim.cli import main
from xsim.errors import ConfigError, ShapeError
from xsim.experiments import (
    ExperimentResult,
    _couplings,
    _time_block,
    _time_grid,
    format_circuit_dump,
    format_csv,
    format_json,
    resolve_params,
    run_experiment,
    simplex_points,
)
from xsim import experiments, tomography
from xsim.heisenberg import evolve_diagonal
from xsim.linalg import dagger
from xsim.noise import NoiseModel
from xsim.tomography import FULL, PARTIAL3, PARTIAL5, reconstruct_full, reconstruct_x3, reconstruct_x5
from xsim.xstate import XSpectral, XState, concurrence_x, fidelity_x, from_spectral, leakage, sqrt_x, xstate_from_matrix

ZERO_NOISE = {"p_depol_1q": 0, "p_depol_2q": 0, "gamma_ad": 0, "gamma_pd": 0, "p_readout": 0}
XSTATE_TARGET = {"kind": "xstate", "a": 0.4, "b": 0.15, "c": 0.25, "d": 0.2,
                 "w_re": 0.12, "w_im": -0.15, "z_re": -0.05, "z_im": 0.1}


def test_simplex_grid_point_count_and_normalization():
    pts = simplex_points(8)
    assert pts.shape == (165, 4) and pts.dtype == np.float64
    for p in pts:
        assert sum(p) == pytest.approx(1.0, abs=1e-12)
        assert min(p) >= 0.0
    assert len(set(map(tuple, pts.tolist()))) == 165
    assert len(simplex_points(1)) == 4
    # the rows are the quotients i/n of the integer grid, in loop order
    for n in (1, 8, 64):
        want = [[i / n, j / n, k / n, (n - i - j - k) / n]
                for i in range(n + 1) for j in range(n - i + 1) for k in range(n - i - j + 1)]
        assert simplex_points(n).tolist() == want
    with pytest.raises(ConfigError, match="grid resolution must be >= 1, got 0"):
        resolve_params("tetra_sweep", {"resolution": 0})


def test_one_shot_is_accepted_and_draws_frequencies_of_0_or_1(monkeypatch):
    # the smallest shot count a config may ask for: each setting of each
    # point records its one shot as a frequency of 1 on one outcome
    assert resolve_params("heisenberg_fidelity", {"shots": 1})["shots"] == 1
    seen, measure = [], experiments.measure_block

    def record(*args, **draw):
        seen.append(measure(*args, **draw))
        return seen[-1]

    monkeypatch.setattr(experiments, "measure_block", record)
    run_experiment("heisenberg_fidelity", {"shots": 1, "time_points": 16})
    (f,) = seen
    assert f.shape == (16, 9, 4)
    assert set(f.ravel().tolist()) == {0.0, 1.0} and (f.sum(axis=-1) == 1.0).all()


def test_resolve_params_defaults_and_rejection():
    params = resolve_params("heisenberg_conc", {})
    assert params["shots"] == 8000
    assert params["seed"] == 0
    assert params["kappa"] == 0.75
    assert params["gamma"] == pytest.approx(2.0 * math.acos(math.sqrt(7.0 / 8.0)))
    assert params["noise"].p_readout == 0.02
    with pytest.raises(ConfigError):
        resolve_params("heisenberg_conc", {"bogus": 1})
    with pytest.raises(ConfigError):
        resolve_params("nope", {})
    with pytest.raises(ConfigError):
        resolve_params("heisenberg_conc", {"lambda": 1.5})
    with pytest.raises(ConfigError):
        resolve_params("heisenberg_conc", {"shots": 0})
    with pytest.raises(ConfigError):
        resolve_params("xprep_single", {})  # target is required
    with pytest.raises(ConfigError):
        resolve_params("heisenberg_conc", {"noise": {"p_depol_1q": 2.0}})


def test_field_defaults_differ_from_zero_field():
    params = resolve_params("field_conc", {})
    assert params["B"] == 1.0
    assert params["b"] == 0.5
    assert params["kappa"] == 0.95
    assert params["gamma"] == pytest.approx(2.0 * math.acos(math.sqrt(3.0 / 4.0)))


def test_analytic_columns_ignore_seed_shots_noise():
    base = {"time_points": 6}
    _, a = run_experiment("heisenberg_conc", {**base, "seed": 1, "shots": 50})
    _, b = run_experiment("heisenberg_conc", {**base, "seed": 99, "shots": 400, "noise": ZERO_NOISE})
    np.testing.assert_array_equal(
        [r[1] for r in a.rows], [r[1] for r in b.rows]
    )
    ga, gb = [r[2] for r in a.rows], [r[2] for r in b.rows]
    assert ga != gb  # the sampled column does feel the seed


def test_zero_field_limit_of_field_experiment():
    cfg = {
        "time_points": 9,
        "exact": True,
        "noise": ZERO_NOISE,
        "B": 0.0,
        "b": 0.0,
        "kappa": 0.75,
        "gamma": 2.0 * math.acos(math.sqrt(7.0 / 8.0)),
    }
    _, field = run_experiment("field_conc", cfg)
    _, zero = run_experiment(
        "heisenberg_conc", {"time_points": 9, "exact": True, "noise": ZERO_NOISE}
    )
    np.testing.assert_allclose(
        [r[1] for r in field.rows], [r[1] for r in zero.rows], atol=1e-10
    )


def test_exact_zero_noise_reconstruction_matches_analytic():
    _, res = run_experiment(
        "heisenberg_conc", {"time_points": 7, "exact": True, "noise": ZERO_NOISE}
    )
    for row in res.rows:
        # sqrt(b c) in the concurrence amplifies ~1e-16 population noise
        # from the circuit path to ~1e-9 wherever b or c vanishes
        assert row[2] == pytest.approx(row[1], abs=1e-7)
    _, res = run_experiment(
        "field_conc", {"time_points": 7, "exact": True, "noise": ZERO_NOISE}
    )
    for row in res.rows:
        # sqrt(b c) in the concurrence amplifies ~1e-16 population noise
        # from the circuit path to ~1e-9 wherever b or c vanishes
        assert row[2] == pytest.approx(row[1], abs=1e-7)


def test_fidelity_experiment_columns():
    _, zero = run_experiment(
        "heisenberg_fidelity", {"time_points": 4, "exact": True, "noise": ZERO_NOISE}
    )
    assert zero.columns == ("t", "f_full", "f_partial5", "f_partial3", "leakage")
    for row in zero.rows:
        assert row[1] == pytest.approx(1.0, abs=1e-8)
        assert row[2] == pytest.approx(1.0, abs=1e-8)
        assert row[3] == pytest.approx(1.0, abs=1e-8)
        assert row[4] == pytest.approx(0.0, abs=1e-10)
    _, field = run_experiment(
        "field_fidelity", {"time_points": 4, "exact": True, "noise": ZERO_NOISE}
    )
    assert field.columns == ("t", "f_full", "f_partial5", "leakage")
    for row in field.rows:
        assert row[1] == pytest.approx(1.0, abs=1e-8)
        assert row[2] == pytest.approx(1.0, abs=1e-8)


def test_tetra_sweep_small_grid():
    _, res = run_experiment(
        "tetra_sweep", {"resolution": 2, "shots": 400, "exact": False}
    )
    assert res.columns == ("p00", "p01", "p10", "p11", "c_analytic", "c_noisy_sim", "c_shot_tomo")
    assert len(res.rows) == 10
    vertex = [r for r in res.rows if r[0] == 1.0][0]
    assert vertex[4] == pytest.approx(math.sqrt(3.0) / 2.0, abs=1e-12)
    for row in res.rows:
        assert row[5] <= row[4] + 1e-9


def test_exact_zero_noise_bell_diagonal_tetra_sweep():
    # At theta = phi = pi/4 each simplex point is a Bell-diagonal state, with
    # concurrence max(0, 2 p_max - 1); cos^2(pi/4) is 1/2 only to one ulp.
    _, res = run_experiment("tetra_sweep", {"theta": math.pi / 4, "phi": math.pi / 4,
                                            "exact": True, "noise": ZERO_NOISE})
    want = np.maximum(0.0, 2.0 * res.rows[:, :4].max(axis=1) - 1.0)
    np.testing.assert_array_max_ulp(res.rows[:, 4], want, maxulp=1)
    assert np.abs(res.rows[:, 5] - want).max() <= 1e-15


@pytest.mark.parametrize("experiment, params, leaky", [
    ("tetra_sweep", {"shots": 50}, 70),
    ("xprep_single", {"target": XSTATE_TARGET}, 0),
])
def test_an_output_off_the_x_shape_is_a_contract_violation(tmp_path, capsys, monkeypatch, experiment, params, leaky):
    # The simulated concurrences are scored in closed form, which holds only
    # for X-shaped outputs; an output that left the shape must stop the run.
    def leaking(circuits, keep, gate_noise=None):
        pairs = run_stack(circuits, keep, gate_noise)
        if gate_noise is not None:
            pairs[leaky, 0, 1] = pairs[leaky, 1, 0] = 1e-3
        return pairs

    monkeypatch.setattr(experiments, "run_stack", leaking)
    where = f" at point {leaky}" if experiment == "tetra_sweep" else ""
    with pytest.raises(ShapeError, match=f"^matrix{where} is not X-shaped \\(leakage 2\\.000e-03\\)$"):
        run_experiment(experiment, params)
    config = _write_config(tmp_path, {"params": params}, "leak.json")
    assert main([experiment, "--config", config, "--format", "json"]) == 3
    assert "is not X-shaped" in capsys.readouterr().err


def test_time_grid_bounds():
    params, res = run_experiment(
        "heisenberg_conc", {"time_points": 5, "exact": True, "noise": ZERO_NOISE}
    )
    ts = [r[0] for r in res.rows]
    assert ts[0] == 0.0
    assert ts[-1] == pytest.approx(2.0 * math.pi / 1.0)  # max scale is eta = J = 1
    _, res2 = run_experiment(
        "heisenberg_conc",
        {"time_points": 5, "t_max": 3.0, "exact": True, "noise": ZERO_NOISE},
    )
    assert [r[0] for r in res2.rows][-1] == pytest.approx(3.0)
    with pytest.raises(ConfigError):
        run_experiment("heisenberg_conc", {"t_max": -1.0})


def _scores(result) -> np.ndarray:
    """The concurrence and fidelity columns of a sweep."""
    return result.rows[:, [i for i, c in enumerate(result.columns) if c.startswith(("c_", "f_"))]]


@pytest.mark.parametrize("experiment", ["field_conc", "field_fidelity"])
def test_exact_field_sweeps_run_to_long_times(experiment):
    # with the sine and the cosine of two roundings of one phase, the rotor's
    # |u|^2 + |c|^2 - 1 grew to 1.9e-9 by t = 1e7, and a preparation weight
    # fell below zero: this exited 3
    _, result = run_experiment(experiment, {"t_max": 1e7, "time_points": 300, "exact": True})
    scores = _scores(result)
    assert scores.shape == (300, 2)
    assert ((scores >= 0.0) & (scores <= 1.0 + 1e-12)).all()


@st.composite
def valid_field_configs(draw):
    """A field sweep and a valid config of it: couplings of any scale from
    1e-12 to 1e12, times from 1e-8 to 1e9, pure and mixed sector weights."""
    scale = 10.0 ** draw(st.floats(-12.0, 12.0))
    coupling = st.floats(-2.0, 2.0).map(lambda v: scale * v)
    unit = st.one_of(st.sampled_from([-1.0, 0.0, 1.0]), st.floats(-1.0, 1.0))
    return draw(st.sampled_from(["field_conc", "field_fidelity"])), {
        "J": draw(coupling), "kappa": draw(unit), "Jz": draw(coupling), "B": draw(coupling), "b": draw(coupling),
        "lambda": draw(unit), "gamma": draw(st.one_of(st.sampled_from([0.0, math.pi]), st.floats(0.0, math.pi))),
        "t_max": 10.0 ** draw(st.floats(-8.0, 9.0)), "time_points": draw(st.integers(2, 300)),
        "exact": draw(st.booleans()), "shots": 100,
    }


# Configs that exited 3 while the rotor's sine and cosine took two roundings of its phase
@example(case=("field_conc", {"J": 3.18e5, "kappa": -1.0, "Jz": -1.06e6, "B": -9.9e5, "b": -1.24e6, "lambda": 1.0,
                              "gamma": math.pi, "t_max": 52.0, "time_points": 300, "exact": True, "shots": 100}))
@example(case=("field_fidelity", {"J": -27424.172339813515, "kappa": 1.0, "Jz": 11312.123823630249,
                                  "B": 47676.01823752162, "b": -41802.283254007925, "lambda": 1.0, "gamma": 0.0,
                                  "t_max": 238023.1401178467, "time_points": 153, "exact": False, "shots": 100}))
@example(case=("field_conc", {"J": 13.71040212839685, "kappa": 1.0, "Jz": -13.323491740109693,
                              "B": -6.227965767057493, "b": -12.414316631518501, "lambda": 0.0,
                              "gamma": 2.813024773239828, "t_max": 19008659.70115819, "time_points": 230,
                              "exact": True, "shots": 100}))
@settings(max_examples=40, deadline=None)
@given(case=valid_field_configs())
def test_valid_field_configs_never_violate_a_contract(case):
    experiment, params = case
    _, result = run_experiment(experiment, params)
    scores = _scores(result)
    assert ((scores >= 0.0) & (scores <= 1.0 + 1e-12)).all()


def test_xprep_single_report_round_trip():
    target = {
        "kind": "xstate",
        "a": 0.4,
        "b": 0.1,
        "c": 0.15,
        "d": 0.35,
        "w_re": 0.15,
        "w_im": 0.2,
        "z_re": 0.05,
        "z_im": -0.08,
    }
    _, res = run_experiment(
        "xprep_single", {"target": target, "exact": True, "noise": ZERO_NOISE}
    )
    rep = res.report
    for key in ("target", "spectral", "phase_record", "circuit", "ideal_output",
                "noisy_output", "reconstruction", "concurrence"):
        assert key in rep
    for k, v in rep["target"].items():
        assert rep["ideal_output"][k] == pytest.approx(v, abs=1e-10)
    assert rep["concurrence"]["reconstructed"] == pytest.approx(
        rep["concurrence"]["analytic"], abs=1e-9
    )
    assert rep["reconstruction"]["fidelity_to_target"] == pytest.approx(1.0, abs=1e-9)
    # the recorded phases are nonzero for a complex target
    assert any(abs(v) > 1e-6 for v in rep["phase_record"])


def test_xprep_single_spectral_target():
    target = {"kind": "spectral", "p": [1.0, 0.0, 0.0, 0.0], "theta": math.pi / 4, "phi": 0.0}
    _, res = run_experiment("xprep_single", {"target": target})
    rep = res.report
    assert rep["concurrence"]["analytic"] == pytest.approx(1.0, abs=1e-12)
    assert rep["concurrence"]["ideal"] == pytest.approx(1.0, abs=1e-9)
    assert rep["concurrence"]["noisy"] < 1.0
    assert rep["phase_record"] == [0.0, 0.0]


def test_xprep_single_rejects_bad_targets():
    with pytest.raises(ConfigError):
        run_experiment("xprep_single", {"target": {"kind": "mystery"}})
    with pytest.raises(ConfigError):
        run_experiment("xprep_single", {"target": "phi_plus"})
    with pytest.raises(ConfigError):
        run_experiment("xprep_single", {"target": {"kind": "spectral", "p": [1, 0, 0]}})


def _csv_text(result):
    out = io.StringIO()
    format_csv(result, out)
    return out.getvalue()


def test_csv_formatting():
    values = (0.0, 1.0 / 3.0, 0.5, 2.0, -0.0, 1e-05, 1e20, 123456789012345.0, 2.0 / 3.0, 7.0)
    rows = tuple(zip(values[::2], values[1::2]))
    text = _csv_text(ExperimentResult(columns=("t", "value"), rows=rows))
    lines = text.strip().split("\n")
    assert lines[0] == "t,value"
    assert lines[1] == "0,0.333333333333"
    assert lines[2] == "0.5,2"
    assert lines[1:] == [",".join("%.12g" % v for v in row) for row in rows]
    assert text.endswith("\n")
    assert _csv_text(ExperimentResult(columns=("t", "value"), rows=np.array(rows))) == text


def _savetxt_text(columns, rows):
    out = io.StringIO()
    np.savetxt(out, rows, fmt="%.12g", delimiter=",", header=",".join(columns), comments="")
    return out.getvalue()


def test_csv_text_is_that_of_savetxt():
    goldens = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    tables = [(case["columns"], np.array(case["rows"], dtype=float)) for case in goldens.values() if case["rows"]]
    assert len(tables) == 20
    edge = [-0.0, 1e-300, 1.0 - 2.0**-53, 3.0, -7.0, 1e15, 2.0**53, 0.1, float("nan"), float("inf")]
    tables.append((("x", "y"), np.array(edge).reshape(5, 2)))
    tables.append((("x",), np.empty((0, 1))))
    for columns, rows in tables:
        assert _csv_text(ExperimentResult(columns=tuple(columns), rows=rows)) == _savetxt_text(columns, rows)


def test_json_formatting_carries_provenance():
    params, res = run_experiment(
        "heisenberg_conc", {"time_points": 3, "shots": 50, "noise": ZERO_NOISE}
    )
    out = io.StringIO()
    format_json("heisenberg_conc", params, res, out)
    blob = json.loads(out.getvalue())
    assert blob["provenance"]["experiment"] == "heisenberg_conc"
    assert blob["provenance"]["fidelity_convention"] == "squared-uhlmann"
    assert blob["provenance"]["shots"] == 50
    assert blob["columns"] == ["t", "c_analytic", "c_reconstructed"]
    assert len(blob["rows"]) == 3


def _write_config(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_cli_csv_run_and_determinism(tmp_path, capsys):
    cfg = _write_config(
        tmp_path,
        {
            "experiment": "heisenberg_conc",
            "params": {"time_points": 4, "shots": 100, "noise": ZERO_NOISE},
        },
    )
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(["heisenberg_conc", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["heisenberg_conc", "--config", cfg, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    header = out1.read_text().splitlines()[0]
    assert header == "t,c_analytic,c_reconstructed"
    err = capsys.readouterr().err
    assert "fidelity_convention" in err


@pytest.mark.parametrize("experiment, params", [
    ("field_conc", {"time_points": 3, "shots": 50}),
    ("xprep_single", {"target": XSTATE_TARGET, "shots": 50}),
])
def test_cli_dump_circuit_sidecar(tmp_path, experiment, params):
    # The sidecar holds every circuit that ran, and each one rebuilt from
    # its dump gives the same unitary to the last bit.
    cfg = _write_config(tmp_path, {"params": params})
    out = tmp_path / "c.json"
    assert main([experiment, "--config", cfg, "--out", str(out), "--format", "json", "--dump-circuit"]) == 0
    dumped = json.loads((tmp_path / "c.json.circuit.json").read_text())
    _, result = run_experiment(experiment, params)
    circuits = list(result.circuits())
    assert dumped == [{"label": label, "circuit": c.to_json()} for label, c in circuits]
    assert len(dumped) == (3 if experiment == "field_conc" else 1)
    for entry, (_, circ) in zip(dumped, circuits):
        blob = entry["circuit"]
        ops = tuple((g["kind"], (g["control"], g["target"]) if "control" in g else (g["target"],))
                    for g in blob["gates"])
        rebuilt = Circuit(blob["width"], ops, tuple(a for g in blob["gates"] for a in g["params"]))
        np.testing.assert_allclose(circuit_unitary(rebuilt), circuit_unitary(circ), rtol=0, atol=0)


def test_cli_exit_codes(tmp_path):
    bad = _write_config(tmp_path, {"params": {"bogus": 1}}, "bad.json")
    assert main(["heisenberg_conc", "--config", bad]) == 2
    mismatch = _write_config(tmp_path, {"experiment": "field_conc"}, "mismatch.json")
    assert main(["heisenberg_conc", "--config", mismatch]) == 2
    unreadable = str(tmp_path / "missing.json")
    assert main(["heisenberg_conc", "--config", unreadable]) == 2
    infeasible = _write_config(
        tmp_path,
        {
            "params": {
                "target": {
                    "kind": "xstate",
                    "a": 0.3, "b": 0.2, "c": 0.2, "d": 0.3,
                    "w_re": 0.35, "w_im": 0.0, "z_re": 0.0, "z_im": 0.0,
                }
            }
        },
        "infeasible.json",
    )
    assert main(["xprep_single", "--config", infeasible]) == 3
    # xprep_single cannot produce csv
    spectral = _write_config(
        tmp_path,
        {"params": {"target": {"kind": "spectral", "p": [1, 0, 0, 0], "theta": 0.3, "phi": 0.0}}},
        "spec.json",
    )
    assert main(["xprep_single", "--config", spectral, "--format", "csv"]) == 2
    # --dump-circuit without --out has nowhere to put the sidecar
    assert main(["xprep_single", "--config", spectral, "--dump-circuit"]) == 2


def test_seeds_above_64_bits_are_config_errors(tmp_path, capsys):
    # The sampler streams key on 64 bits, so a larger seed would draw the
    # same shots as the seed 2^64 below it.
    for experiment in sorted(experiments.RUNNERS):
        params = {"seed": 2**64, "target": XSTATE_TARGET} if experiment == "xprep_single" else {"seed": 2**64}
        assert main([experiment, "--config", _write_config(tmp_path, {"params": params})]) == 2
        assert "seed must be <= 18446744073709551615" in capsys.readouterr().err
    largest = {"seed": 2**64 - 1, "shots": 50}
    assert main(["heisenberg_conc", "--config", _write_config(tmp_path, {"params": {**largest, "time_points": 3}})]) == 0
    capsys.readouterr()
    assert main(["xprep_single", "--config", _write_config(tmp_path, {"params": {**largest, "target": XSTATE_TARGET}})]) == 0
    assert json.loads(capsys.readouterr().out)["report"]["reconstruction"]["seed"] == 2**64 - 1


def test_cli_infeasible_weights_message_prints_plain_floats(tmp_path, capsys):
    # |w| just above sqrt(a d) inverts to a weight of 1 + 1e-10
    target = {"kind": "xstate", "a": 0.5, "b": 0, "c": 0, "d": 0.5,
              "w_re": 0.5000000001, "w_im": 0, "z_re": 0, "z_im": 0}
    cfg = _write_config(tmp_path, {"params": {"target": target}})
    assert main(["xprep_single", "--config", cfg]) == 3
    err = capsys.readouterr().err
    assert "recovered weights outside [0, 1]: (1.0000000001," in err
    assert "np.float64" not in err


def test_cli_overrides_beat_config(tmp_path, capsys):
    cfg = _write_config(
        tmp_path,
        {"params": {"time_points": 3, "seed": 4, "shots": 60, "noise": ZERO_NOISE}},
    )
    out = tmp_path / "o.json"
    assert main([
        "heisenberg_conc", "--config", cfg, "--out", str(out),
        "--format", "json", "--seed", "9", "--shots", "123",
    ]) == 0
    blob = json.loads(out.read_text())
    assert blob["provenance"]["seed"] == 9
    assert blob["provenance"]["shots"] == 123


def test_cli_exact_flag_reaches_runner(tmp_path):
    cfg = _write_config(
        tmp_path,
        {"params": {"time_points": 3, "noise": ZERO_NOISE}},
    )
    out = tmp_path / "exact.json"
    assert main([
        "heisenberg_conc", "--config", cfg, "--out", str(out), "--format", "json", "--exact",
    ]) == 0
    blob = json.loads(out.read_text())
    for row in blob["rows"]:
        # sqrt(b c) in the concurrence amplifies ~1e-16 population noise
        # from the circuit path to ~1e-9 wherever b or c vanishes
        assert row[2] == pytest.approx(row[1], abs=1e-7)


@pytest.mark.parametrize("experiment, params, message", [
    ("heisenberg_conc", {"J": float("nan")}, "J must be finite"),
    ("heisenberg_conc", {"t_max": float("inf")}, "t_max must be finite"),
    ("heisenberg_conc", {"shots": 1e30}, "shots must be <="),
    ("heisenberg_conc", {"noise": {"gamma_ad": float("nan")}}, "noise.gamma_ad must be finite"),
    ("heisenberg_conc", {"J": 1e300, "kappa": 1e10}, "couplings overflow"),
    ("heisenberg_conc", {"J": 1e300, "t_max": 1e10}, "phases overflow"),
    ("heisenberg_conc", {"time_points": 10**6}, "time_points must be <="),
    ("tetra_sweep", {"resolution": 65}, "resolution must be <="),
    ("heisenberg_conc", {"seed": -1}, "seed must be >= 0"),
    ("heisenberg_conc", {"kappa": "x"}, "'kappa' must be a number"),
    ("xprep_single", {"target": {"kind": "spectral", "p": [float("nan"), 0, 0, 1], "theta": 0, "phi": 0}},
     "target.p[0] must be finite"),
    ("heisenberg_conc", {"exact": "no"}, "'exact' must be true or false"),
    ("heisenberg_conc", {"exact": 1}, "'exact' must be true or false"),
    ("heisenberg_conc", {"time_points": 2.5}, "'time_points' must be an integer"),
    ("heisenberg_conc", {"shots": 100.5}, "'shots' must be an integer"),
    ("heisenberg_conc", {"seed": 0.5}, "'seed' must be an integer"),
    ("tetra_sweep", {"resolution": 2.5}, "'resolution' must be an integer"),
    ("heisenberg_conc", {"shots": "8000"}, "'shots' must be a number"),
    ("heisenberg_conc", {"time_points": True}, "'time_points' must be a number"),
    ("heisenberg_conc", {"J": 10**400}, "'J' must be finite"),
    ("heisenberg_conc", {"noise": {"p_readout": "0.1"}}, "noise rate p_readout must be a number"),
    ("heisenberg_conc", {"noise": {"gamma_ad": True}}, "noise rate gamma_ad must be a number"),
    ("heisenberg_conc --out /no/such/dir/x.csv", {"time_points": 2, "shots": 10}, "cannot write output"),
    ("heisenberg_conc --out .", {"time_points": 2, "shots": 10}, "cannot write output"),
    ("xprep_single", {"target": {"kind": "spectral", "p": "1000", "theta": "0.3", "phi": True}},
     "'target.p' must be a number"),
    ("xprep_single", {"target": {"kind": "spectral", "p": [1, 0, 0, 0], "theta": 0.3, "phi": True}},
     "'target.phi' must be a number"),
    ("xprep_single", {"target": {"kind": "spectral", "p": [1, "0", 0, 0], "theta": 0.3, "phi": 0}},
     "'target.p[1]' must be a number"),
    ("xprep_single", {"target": {**XSTATE_TARGET, "a": "0.5"}}, "'target.a' must be a number"),
    ("xprep_single", {"target": {**XSTATE_TARGET, "w_im": False}}, "'target.w_im' must be a number"),
    ("xprep_single", {"target": {**XSTATE_TARGET, "extra": 1}}, "unknown target keys for kind xstate: ['extra']"),
    ("xprep_single", {"target": {"kind": "spectral", "p": [1, 0, 0, 0], "theta": 0, "phi": 0, "extra": 1}},
     "unknown target keys for kind spectral: ['extra']"),
    ("heisenberg_conc", {"noise": 5}, "noise must be a JSON object or null"),
    ("heisenberg_conc", {"noise": [1]}, "noise must be a JSON object or null"),
    ("xprep_single", {"target": {"kind": "spectral", "p": [1, 0, 0], "theta": 0, "phi": 0}}, "malformed spectral target"),
    ("xprep_single", {"target": {"kind": "xstate", "a": 1}}, "malformed xstate target"),
    # the message names the factor that overflowed
    ("heisenberg_conc", {"Jz": 1e300, "t_max": 1e10}, "phases overflow: t_max 10000000000.0 times |Jz| 1e+300"),
    ("heisenberg_conc", {"J": 1e-320}, "phases overflow: the default t_max 2 pi / 1e-320 is infinite; give t_max"),
    # xi = hypot(B, J kappa) overflows though B and J kappa do not
    ("field_conc", {"B": 1.5e308, "J": 1.5e308, "kappa": 1}, "couplings overflow"),
])
def test_cli_rejects_bad_numbers_as_config_errors(tmp_path, capsys, experiment, params, message):
    # an entry's first field may carry command-line flags after the experiment
    cfg = _write_config(tmp_path, {"params": params})
    assert main([*experiment.split(), "--config", cfg]) == 2
    assert message in capsys.readouterr().err


def test_a_coupling_near_the_largest_float_runs(tmp_path):
    # J = 1e308 and J kappa = 7.5e307 are finite, though J (1 + kappa) is not
    cfg = _write_config(tmp_path, {"params": {"J": 1e308, "time_points": 8}})
    out = tmp_path / "big.json"
    assert main(["heisenberg_conc", "--config", cfg, "--out", str(out), "--format", "json"]) == 0
    rows = np.array(json.loads(out.read_text())["rows"])
    assert rows.shape == (8, 3) and np.isfinite(rows).all()


@pytest.mark.parametrize("value, code", [(5.0, 2), (-0.1, 2), (0.0, 0), (math.pi / 2, 0)])
@pytest.mark.parametrize("angle", ["theta", "phi"])
def test_tetra_sweep_angles_outside_quarter_turn_are_config_errors(tmp_path, capsys, angle, value, code):
    cfg = _write_config(tmp_path, {"params": {angle: value, "resolution": 2, "shots": 10}})
    assert main(["tetra_sweep", "--config", cfg, "--out", str(tmp_path / "out.csv")]) == code
    err = capsys.readouterr().err
    if code:
        assert f"{angle} must lie in [0, pi/2]" in err


@pytest.mark.parametrize("experiment, params, field", [
    ("heisenberg_conc", {"J": 10**400}, "'J'"),
    ("heisenberg_conc", {"noise": {"gamma_ad": 10**400}}, "gamma_ad"),
    ("xprep_single", {"target": {**XSTATE_TARGET, "a": 10**400}}, "'target.a'"),
    ("heisenberg_conc", {"shots": 10**400}, "shots"),
    ("heisenberg_conc", {"time_points": 10**400}, "time_points"),
    ("tetra_sweep", {"resolution": 10**400}, "resolution"),
])
def test_cli_rejects_huge_integers_with_a_short_message(tmp_path, capsys, experiment, params, field):
    # an integer beyond any double is named, not printed
    cfg = _write_config(tmp_path, {"params": params})
    assert main([experiment, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert len(err.encode()) < 200
    assert field in err


@pytest.mark.parametrize("flags, output", [
    (["--out", "missing/x.csv"], {}),
    (["--out", "."], {}),
    (["--out", "x.csv", "--dump-circuit"], {}),  # the sidecar path is a directory
    ([], {"path": ""}),
    ([], {"path": 5}),
])
def test_cli_checks_output_paths_before_running(tmp_path, capsys, monkeypatch, flags, output):
    import xsim.cli as cli

    def not_called(*args):
        raise AssertionError("the experiment ran before its output path was checked")

    monkeypatch.setattr(cli, "run_experiment", not_called)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "x.csv.circuit.json").mkdir()
    cfg = _write_config(tmp_path, {"output": output})
    assert main(["heisenberg_conc", "--config", cfg, *flags]) == 2
    err = capsys.readouterr().err
    assert "cannot write output" in err
    assert "# {" not in err
    assert not (tmp_path / "x.csv").exists()


def test_integral_floats_are_accepted_as_sizes(tmp_path):
    cfg = _write_config(tmp_path, {"params": {"time_points": 3.0, "shots": 1e2, "seed": 4.0, "exact": False}})
    out = tmp_path / "o.json"
    assert main(["heisenberg_conc", "--config", cfg, "--out", str(out), "--format", "json"]) == 0
    blob = json.loads(out.read_text())
    assert (blob["provenance"]["shots"], blob["provenance"]["seed"], blob["provenance"]["exact"]) == (100, 4, False)
    assert len(blob["rows"]) == 3


def _one_row(block, params, hp, t):
    """(target, circuit) of time t, built by a time sweep's ``block`` as a
    block of one row."""
    targets, circuits = block(params, hp, np.array([t]))
    return XState(*(v[0] for v in (targets.a, targets.b, targets.c, targets.d, targets.w, targets.z))), circuits[0]


def _sweep_size(experiment: str, points: int) -> dict:
    """The size parameter of the shortest sweep of ``experiment`` with at
    least ``points`` points."""
    if experiment == "tetra_sweep":
        return {"resolution": next(r for r in range(1, 65) if len(simplex_points(r)) >= points)}
    return {"time_points": points}


def _points(size: dict) -> int:
    """The number of points of a sweep of size ``size``."""
    return len(simplex_points(size["resolution"])) if "resolution" in size else size["time_points"]


def _block_sizes(points: int) -> list:
    """The sizes of the consecutive blocks a sweep of ``points`` points runs in."""
    return [min(experiments._BLOCK, points - start) for start in range(0, points, experiments._BLOCK)]


@pytest.mark.parametrize("experiment, params, block", [
    # 680 points at 256 per block, 68 of them factorized (alpha = 0, two
    # gates fewer); the other 612 span three stacks
    ("tetra_sweep", _sweep_size("tetra_sweep", 2 * experiments._BLOCK + 88), None),
    # 600 points whose circuits carry no, one or two trailing RZ gates (a
    # zero-field sweep has a single op list, of 8 ops)
    ("field_conc", _sweep_size("field_conc", 2 * experiments._BLOCK + 88), _time_block),
])
def test_stacked_preparation_matches_run_noisy_per_circuit(experiment, params, block, monkeypatch):
    # The output pairs of the sweep's blocks, recorded at the executor,
    # against each point's circuit built and run on its own.
    blocks = []

    def recording(circuits, keep, gate_noise=None):
        out = run_stack(circuits, keep, gate_noise)
        blocks.append(out)
        return out

    monkeypatch.setattr(experiments, "run_stack", recording)
    params, _ = run_experiment(experiment, {**params, "exact": True})
    nm = params["noise"]
    if block is None:
        theta, phi = params["theta"], params["phi"]
        circuits = [prepare(p, theta, phi) for p in simplex_points(params["resolution"])]
    else:
        hp = _couplings(params)
        circuits = [_one_row(block, params, hp, t)[1] for t in _time_grid(params, hp)]
    pairs = np.concatenate(blocks)
    topologies = {c.ops for c in circuits}
    assert len(topologies) > 1
    size = experiments._BLOCK
    assert max(sum(c.ops == top for c in circuits) for top in topologies) > size
    assert any(len({c.ops for c in circuits[i : i + size]}) > 1 for i in range(0, len(circuits), size))
    assert pairs.shape == (len(circuits), 4, 4)
    # each circuit run on its own, as a stack of one
    for circ, pair in zip(circuits, pairs):
        np.testing.assert_allclose(pair, run_stack((circ,), (2, 3), nm.gate_noise)[0], rtol=0, atol=1e-14)


def test_run_stack_keeps_input_order_across_mixed_topologies():
    factorized = build_xstate_circuit(np.full((3, 4), 0.25), 0.3 + 0.1 * np.arange(3), 0.2)
    correlated = build_xstate_circuit(np.tile([0.5, 0.0, 0.1, 0.4], (3, 1)), 0.3, 0.2 + 0.1 * np.arange(3))
    assert factorized[0].ops != correlated[0].ops
    circuits = [c for pair in zip(factorized, correlated) for c in pair]
    nm = NoiseModel()
    for keep in ((2, 3), (0, 1, 2, 3)):
        for got, circ in zip(run_stack(circuits, keep), circuits):
            np.testing.assert_allclose(got, run_stack((circ,), keep)[0], rtol=0, atol=1e-14)
        for got, circ in zip(run_stack(circuits, keep, nm.gate_noise), circuits):
            np.testing.assert_allclose(got, run_stack((circ,), keep, nm.gate_noise)[0], rtol=0, atol=1e-14)


def test_sweep_hands_the_executor_at_most_a_block_of_circuits(monkeypatch):
    sizes = []

    def counting(circuits, keep, gate_noise=None):
        sizes.append(len(circuits))
        return run_stack(circuits, keep, gate_noise)

    monkeypatch.setattr(experiments, "run_stack", counting)
    n = 2 * experiments._BLOCK + 22
    _, result = run_experiment("heisenberg_conc", {"time_points": n, "shots": 10})
    assert len(result.rows) == n
    assert sum(sizes) == n
    assert max(sizes) <= experiments._BLOCK


def test_default_tetra_sweep_is_one_executor_batch(monkeypatch):
    # The 165 simplex points of the default resolution fit one block, so
    # the executor runs them in one call and one measurement covers them.
    calls, measured, measure = [], [], tomography.measure_block

    def counting(circuits, keep, gate_noise=None):
        calls.append(len(circuits))
        return run_stack(circuits, keep, gate_noise)

    def measuring(rho, settings, shots, seed, first, p_readout=0.0, exact=False):
        measured.append((first, len(rho)))
        return measure(rho, settings, shots, seed, first, p_readout, exact)

    monkeypatch.setattr(experiments, "run_stack", counting)
    monkeypatch.setattr(experiments, "measure_block", measuring)
    _, result = run_experiment("tetra_sweep", {})
    assert len(result.rows) == 165
    assert calls == [165] and measured == [(0, 165)]


@pytest.mark.parametrize("experiment, builder", [
    ("tetra_sweep", "build_xstate_circuit"),
    ("heisenberg_conc", "build_complex_xstate_circuit"),
    ("field_conc", "build_complex_xstate_circuit"),
])
def test_sweep_builds_each_circuit_once_unless_the_circuits_are_read(experiment, builder, monkeypatch):
    # one block build per block of the sweep, and one more per block when
    # the circuits are read; 600 time points (680 simplex points) span three
    built = []
    original = getattr(experiments, builder)

    def counting(*args):
        built.append(len(args[0].a if builder == "build_complex_xstate_circuit" else args[0]))
        return original(*args)

    monkeypatch.setattr(experiments, builder, counting)
    size = _sweep_size(experiment, 2 * experiments._BLOCK + 88)
    _, result = run_experiment(experiment, {**size, "exact": True})
    blocks = _block_sizes(len(result.rows))
    assert built == blocks
    assert len(list(result.circuits())) == len(result.rows)
    assert built == 2 * blocks


@pytest.mark.parametrize("experiment", ["tetra_sweep", "heisenberg_conc", "field_conc", "heisenberg_fidelity", "field_fidelity"])
def test_exact_rows_and_circuit_dumps_do_not_depend_on_the_block_size(experiment, monkeypatch):
    # The executor's arithmetic is per state and LAPACK per matrix, so the
    # exact output and the circuits are the same bytes at any block size;
    # the sweep spans two blocks of 256 points. Sampled rows draw from one
    # stream per block and depend on it.
    size = _sweep_size(experiment, 260)
    outputs = set()
    for block in (1, 7, 64, 256):
        monkeypatch.setattr(experiments, "_BLOCK", block)
        _, result = run_experiment(experiment, {**size, "exact": True, "seed": 5, "shots": 700})
        text, dump = io.StringIO(), io.StringIO()
        format_csv(result, text)
        format_circuit_dump(result, dump)
        outputs.add((text.getvalue(), dump.getvalue()))
    assert len(outputs) == 1


@pytest.mark.parametrize("experiment, size, blocks", [
    (experiment, size, _block_sizes(_points(size)))
    for experiment, size in (("tetra_sweep", _sweep_size("tetra_sweep", experiments._BLOCK + 22)),
                             ("heisenberg_conc", _sweep_size("heisenberg_conc", experiments._BLOCK + 22)))
])
def test_sweep_maps_each_block_of_targets_at_once(experiment, size, blocks, monkeypatch):
    # One shape map (tetra_sweep) or one evolution (a time sweep) per block
    # of arrays, not one per point.
    shapes = []

    def mapping(s):
        shapes.append(np.shape(s.p00))
        return from_spectral(s)

    def evolving(hp, populations, ts):
        shapes.append(np.shape(ts))
        return evolve_diagonal(hp, populations, ts)

    monkeypatch.setattr(experiments, "from_spectral", mapping)
    monkeypatch.setattr(experiments, "evolve_diagonal", evolving)
    run_experiment(experiment, {**size, "exact": True})
    assert len(blocks) >= 2
    assert shapes == [(n,) for n in blocks]


@pytest.mark.parametrize("experiment", ["tetra_sweep", "heisenberg_conc", "field_conc", "heisenberg_fidelity", "field_fidelity"])
def test_exact_sweeps_derive_no_seeds(experiment, monkeypatch):
    # No seed is derived per point: exact or sampled, each block is one
    # measurement keyed by the run's seed and the block's first point, and
    # the blocks tile the points.
    keys, measure = [], tomography.measure_block

    def recording(rho, settings, shots, seed, first, p_readout=0.0, exact=False):
        keys.append((seed, first, len(rho), exact))
        return measure(rho, settings, shots, seed, first, p_readout, exact)

    monkeypatch.setattr(experiments, "measure_block", recording)
    size = _sweep_size(experiment, experiments._BLOCK + 6)
    _, exact = run_experiment(experiment, {**size, "exact": True, "seed": 3})
    _, sampled = run_experiment(experiment, {**size, "shots": 50, "seed": 3})
    n, block = len(sampled.rows), experiments._BLOCK
    tiles = [(3, start, min(block, n - start)) for start in range(0, n, block)]
    assert keys == [(*tile, True) for tile in tiles] + [(*tile, False) for tile in tiles]
    assert len(tiles) == 2 and len(exact.rows) == n


def test_sampled_sweep_rows_do_not_depend_on_earlier_draws():
    # The samplers share one generator: a high-shot xprep_single run in
    # between leaves the sweep's rows as they were.
    raw = {"time_points": 70, "seed": 11}
    _, before = run_experiment("heisenberg_fidelity", raw)
    run_experiment("xprep_single", {"target": XSTATE_TARGET, "shots": 10**6, "seed": 4})
    _, after = run_experiment("heisenberg_fidelity", raw)
    np.testing.assert_array_equal(before.rows, after.rows)


@pytest.mark.parametrize("experiment", ["tetra_sweep", "heisenberg_conc", "field_conc", "heisenberg_fidelity", "field_fidelity"])
def test_result_circuits_are_the_circuits_the_executor_ran(experiment, monkeypatch):
    ran = []

    def recording(circuits, keep, gate_noise=None):
        ran.extend(circuits)
        return run_stack(circuits, keep, gate_noise)

    monkeypatch.setattr(experiments, "run_stack", recording)
    size = {"resolution": 8} if experiment == "tetra_sweep" else {"time_points": 70}
    _, result = run_experiment(experiment, {**size, "exact": True})
    label = "point" if experiment == "tetra_sweep" else "t"
    labelled = list(result.circuits())
    assert [name for name, _ in labelled] == [f"{label}_{index}" for index in range(len(ran))]
    assert [circ.to_json() for _, circ in labelled] == [circ.to_json() for circ in ran]


def _peak_growth_per_point(run) -> float:
    """Traced peak growth per time point of ``run(points)`` from 1,024 to
    8,192 points, after one small warm-up run. The sizes are far apart
    because the peak also moves by up to about 100 kB with the circuits of
    the block where it falls."""
    run(128)
    peaks = {}
    tracemalloc.start()
    try:
        for points in (1024, 8192):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            run(points)
            peaks[points] = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return (peaks[8192] - peaks[1024]) / (8192 - 1024)


def test_sweep_peak_memory_does_not_grow_with_its_length(tmp_path):
    # Only a point's row outlives its block, one float64 per column, so the
    # traced peak of a sweep grows by little more than 24 B per point.
    def run(points):
        _, result = run_experiment("heisenberg_conc", {"time_points": points, "exact": True})
        assert len(result.rows) == points

    assert _peak_growth_per_point(run) < 128

    # The CLI writes the rows into the output file one line at a time, never
    # as one text, so its traced peak grows by little more than the table.
    out = str(tmp_path / "o.csv")

    def write(points):
        cfg = _write_config(tmp_path, {"params": {"time_points": points}}, f"{points}.json")
        assert main(["heisenberg_conc", "--config", cfg, "--exact", "--out", out]) == 0

    assert _peak_growth_per_point(write) < 160


def test_tetra_sweep_result_holds_its_table_and_no_point_list():
    # The result keeps the float table and rebuilds its circuits from the
    # table's point columns, so after the run little more than the table
    # (6,545 points x 7 columns, 366 kB) stays live; a kept list of point
    # tuples would add 1.2 MB.
    run_experiment("tetra_sweep", {"resolution": 8, "exact": True})
    tracemalloc.start()
    try:
        _, result = run_experiment("tetra_sweep", {"resolution": 32, "exact": True})
        gc.collect()
        live = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert live - result.rows.nbytes < 100_000


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_cli_unwritable_stdout_is_a_config_error(tmp_path, capsys, monkeypatch, fmt):
    class FullDevice(io.StringIO):
        def write(self, text):
            raise OSError(errno.ENOSPC, "No space left on device")

    cfg = _write_config(tmp_path, {"params": {"time_points": 3, "shots": 10}})
    monkeypatch.setattr(sys, "stdout", FullDevice())
    assert main(["heisenberg_conc", "--config", cfg, "--format", fmt]) == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1] == "config error: cannot write output to stdout: [Errno 28] No space left on device"
    assert "Traceback" not in err


def _closed_pipe() -> int:
    read, write = os.pipe()
    os.close(read)
    return write


@pytest.mark.parametrize("device", ["/dev/full", "closed pipe"])
def test_cli_process_with_unwritable_stdout_exits_2(device):
    # A real stdout may keep what a failed write left in its buffer (CPython
    # 3.11 drops it; the trailing write stands in for it), and the process
    # must still exit 2 rather than fail again when it flushes at exit.
    if device == "/dev/full" and not os.path.exists(device):
        pytest.skip("no /dev/full on this system")
    fd = os.open(device, os.O_WRONLY) if device == "/dev/full" else _closed_pipe()
    try:
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from xsim.cli import main; "
             "code = main(['heisenberg_conc', '--shots', '10']); sys.stdout.write('buffered'); sys.exit(code)"],
            stdout=fd, stderr=subprocess.PIPE, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(experiments.__file__))},
        )
    finally:
        os.close(fd)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.splitlines()[-1].startswith("config error: cannot write output to stdout: [Errno ")
    assert "Exception ignored" not in proc.stderr
    assert "Traceback" not in proc.stderr


READOUT_NOISE = {"p_depol_1q": 0.001, "p_depol_2q": 0.01, "gamma_ad": 0.001, "gamma_pd": 0.001, "p_readout": 0.05}
SWEEPS = ("tetra_sweep", "heisenberg_conc", "field_conc", "heisenberg_fidelity", "field_fidelity")


@pytest.mark.parametrize("experiment", SWEEPS)
def test_sweep_rows_are_one_float_table_led_by_the_points(experiment):
    # 70 points (84 simplex points) fill more than one block.
    size = {"resolution": 6} if experiment == "tetra_sweep" else {"time_points": 70}
    params, result = run_experiment(experiment, {**size, "shots": 50})
    if experiment == "tetra_sweep":
        points = np.array(simplex_points(6))
    else:
        points = _time_grid(params, _couplings(params))[:, None]
    assert isinstance(result.rows, np.ndarray)
    assert result.rows.dtype == np.float64
    assert result.rows.shape == (len(points), len(result.columns))
    np.testing.assert_array_equal(result.rows[:, : points.shape[1]], points)


def _recording_draws(monkeypatch) -> dict:
    """Wrap ``measure_block`` to record each sampled frequency row of a run,
    keyed by (point, setting)."""
    drawn, measure = {}, tomography.measure_block

    def recording(rho, settings, shots, seed, first, p_readout=0.0, exact=False):
        frequencies = measure(rho, settings, shots, seed, first, p_readout, exact)
        if not exact:
            drawn.update(((index, setting), row) for index, point in enumerate(frequencies, first)
                         for setting, row in zip(settings, point))
        return frequencies

    for module in (experiments, tomography):
        monkeypatch.setattr(module, "measure_block", recording)
    return drawn


def _per_point_rows(experiment, params, drawn):
    """A sweep's rows computed one point at a time: exact, each point is
    measured as a stack of one; sampled, it reads the frequencies that
    ``drawn`` holds for its (point, setting) pairs."""
    nm = params["noise"]
    if experiment == "tetra_sweep":
        theta, phi = params["theta"], params["phi"]
        points = simplex_points(params["resolution"])

        def build(p):
            return from_spectral(XSpectral(*p, theta, phi)), prepare(p, theta, phi)
    else:
        hp = _couplings(params)
        points = _time_grid(params, hp)

        def build(t):
            return _one_row(_time_block, params, hp, t)
    rows = []
    for index, p in enumerate(points):
        target, circ = build(p)
        pair = run_stack((circ,), (2, 3), nm.gate_noise)[0]

        def measure(settings):
            if params["exact"]:
                return tomography.measure_block(pair[None], settings, params["shots"], params["seed"], index, nm.p_readout, True)[0]
            return np.array([drawn[index, s] for s in settings])

        if experiment == "tetra_sweep":
            c_shot = concurrence_x(reconstruct_x3(measure(PARTIAL3)))
            rows.append((*p, concurrence_x(target), concurrence_x(xstate_from_matrix(pair)), c_shot))
        elif experiment.endswith("conc"):
            settings, reconstruct = (PARTIAL5, reconstruct_x5) if experiment == "field_conc" else (PARTIAL3, reconstruct_x3)
            estimate = reconstruct(measure(settings))
            rows.append((p, concurrence_x(target), concurrence_x(estimate)))
        else:
            f = measure(FULL)
            # the full estimate's factor against the target's closed-form root, the X estimates in closed form
            overlap = dagger(reconstruct_full(f)) @ sqrt_x(target).matrix()
            scores = [np.linalg.svd(overlap, compute_uv=False).sum(axis=-1) ** 2,
                      fidelity_x(reconstruct_x5(f[[FULL.index(s) for s in PARTIAL5]]), target)]
            if experiment == "heisenberg_fidelity":
                scores.append(fidelity_x(reconstruct_x3(f[[FULL.index(s) for s in PARTIAL3]]), target))
            rows.append((p, *scores, leakage(pair)))
    return rows


@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize("experiment", SWEEPS)
def test_blocked_row_stage_matches_the_per_point_route(experiment, exact, monkeypatch):
    # 150 time points (165 simplex points) are not a multiple of the block;
    # at 50 shots with readout error, PSD repairs and corner clamps fire.
    # Sampled, the per-point route reconstructs and scores the frequencies
    # that the blocked route drew.
    size = {"resolution": 8} if experiment == "tetra_sweep" else {"time_points": 150}
    raw = {**size, "shots": 50, "seed": 5, "noise": READOUT_NOISE, "exact": exact}
    repairs, clamps = [], []
    psd, clamp = tomography.psd_project, tomography._clamped_corner

    def repairing(rho_hat):
        repairs.append(int(np.sum(np.linalg.eigvalsh(rho_hat)[..., 0] < 0.0)))
        return psd(rho_hat)

    def clamping(value, bound):
        out = clamp(value, bound)
        clamps.append(int(np.sum(out != value)))
        return out

    drawn = _recording_draws(monkeypatch)
    monkeypatch.setattr(tomography, "psd_project", repairing)
    monkeypatch.setattr(tomography, "_clamped_corner", clamping)
    params, blocked = run_experiment(experiment, raw)
    if not exact:
        assert sum(clamps) > 0
        assert sum(repairs) > 0 or not experiment.endswith("fidelity")
    per_point = _per_point_rows(experiment, params, drawn)
    settings = {"tetra_sweep": 3, "heisenberg_conc": 3, "field_conc": 5}.get(experiment, 9)
    assert len(drawn) == (0 if exact else settings * len(per_point))
    assert len(blocked.rows) == len(per_point)
    for got, want in zip(blocked.rows, per_point):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)


@pytest.mark.parametrize("experiment", ["heisenberg_fidelity", "field_fidelity"])
def test_f_full_of_a_point_alone_equals_its_row_in_a_full_block(experiment, monkeypatch):
    # 256 points are one full block; at 50 shots with readout error most
    # full estimates need a repair, and the factor carries it to the score
    # of each point's own frequencies.
    drawn = _recording_draws(monkeypatch)
    params, blocked = run_experiment(experiment, {"time_points": 256, "shots": 50, "seed": 3, "noise": READOUT_NOISE})
    column = blocked.columns.index("f_full")
    assert blocked.rows[:, column].tolist() == [row[column] for row in _per_point_rows(experiment, params, drawn)]


@pytest.mark.parametrize("experiment, partial3", [("field_fidelity", False), ("heisenberg_fidelity", True)])
def test_fidelity_sweep_reconstructs_partial3_only_without_field(experiment, partial3, monkeypatch):
    # With the field the 3-setting column is left out, so its estimate is
    # never made.
    calls = []

    def counting(data):
        calls.append(np.shape(data))
        return reconstruct_x3(data)

    for module in (experiments, tomography):
        monkeypatch.setattr(module, "reconstruct_x3", counting)
    _, result = run_experiment(experiment, {"time_points": 70, "shots": 50})
    assert ("f_partial3" in result.columns) == partial3
    assert (len(calls) > 0) == partial3


_LINALG = ("eigh", "eigvalsh", "eig", "eigvals", "svd", "inv")


@pytest.fixture
def linalg_calls(monkeypatch):
    """Counts of the calls to numpy.linalg's decompositions and inverse."""
    calls = Counter()
    for name in _LINALG:
        def counted(*args, _name=name, _fn=getattr(np.linalg, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    return calls


@pytest.mark.parametrize("experiment, params", [
    ("tetra_sweep", {}),
    ("heisenberg_conc", {}),
    ("field_conc", {}),
    ("xprep_single", {"target": XSTATE_TARGET}),
    ("xprep_single", {"target": {"kind": "spectral", "p": [0.45, 0.3, 0.15, 0.1], "theta": 0.4, "phi": 1.1}}),
])
def test_concurrence_runs_call_no_eigensolver(experiment, params, linalg_calls):
    # Every concurrence is scored in closed form, the simulated ones included.
    run_experiment(experiment, params)
    assert dict(linalg_calls) == {}


@pytest.mark.parametrize("points", [64, 300])
@pytest.mark.parametrize("experiment", ["heisenberg_fidelity", "field_fidelity"])
def test_fidelity_sweeps_make_one_eigh_and_one_svd_per_block(experiment, points, linalg_calls):
    # psd_project's eigh of the full estimates and the SVD that scores f_full
    run_experiment(experiment, {"time_points": points})
    blocks = -(-points // experiments._BLOCK)
    assert dict(linalg_calls) == {"eigh": blocks, "svd": blocks}
