"""The Hamiltonian's symmetries as metamorphic relations of the time sweeps:
each relation compares the program with itself under a change of couplings
that the physics says moves nothing, so it needs no oracle."""

import io

import numpy as np
import pytest

from xsim.experiments import format_circuit_dump, format_csv, run_experiment

TIME_SWEEPS = ("heisenberg_conc", "heisenberg_fidelity", "field_conc", "field_fidelity")
ZERO_NOISE = {"p_depol_1q": 0, "p_depol_2q": 0, "gamma_ad": 0, "gamma_pd": 0, "p_readout": 0}
# Each flip negates the couplings it names; the zero-field sweeps have no B or b.
FLIPS = (("kappa",), ("J",), ("B",), ("b",), ("B", "b"))


def _text(experiment: str, config: dict) -> str:
    _, result = run_experiment(experiment, config)
    out = io.StringIO()
    format_csv(result, out)
    format_circuit_dump(result, out)
    return out.getvalue()


@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize("experiment", TIME_SWEEPS)
def test_jz_moves_no_output(experiment, exact):
    # Jz sets only a phase between the parity sectors, which an X-state does
    # not carry, and every noise channel commutes with Z rotations: the rows
    # and the circuits are the same bytes at Jz = 0 and Jz = 3.7.
    base = {"exact": exact, "seed": 4, "time_points": 32}
    assert _text(experiment, {**base, "Jz": 0.0}) == _text(experiment, {**base, "Jz": 3.7})


# Largest move of a column under any flip, next to what the default
# 64-point sweeps show in exact mode at zero noise. The analytic
# concurrence depends on the corner magnitudes only (0 seen).
# Reconstructed concurrences take the root of populations that are zero up
# to roundoff (6.0e-9 seen), and every fidelity is 1 up to roundoff
# (1.3e-15 seen).
BOUNDS = {"c_analytic": 1e-15, "c_reconstructed": 2e-8, "f_full": 4e-15, "f_partial5": 4e-15, "f_partial3": 4e-15,
          "leakage": 0.0, "t": 0.0}


@pytest.mark.parametrize("experiment", TIME_SWEEPS)
def test_coupling_sign_flips_move_no_column_at_zero_noise(experiment):
    # kappa -> -kappa, J -> -J, B -> -B, b -> -b and (B, b) -> (-B, -b) map
    # each target to one related by a local unitary, and the energy scales
    # and so the time grid stay as they were.
    config = {"exact": True, "noise": ZERO_NOISE}
    params, base = run_experiment(experiment, config)
    flips = [flip for flip in FLIPS if set(flip) <= set(params)]
    assert len(flips) == (5 if experiment.startswith("field") else 2)
    for flip in flips:
        _, got = run_experiment(experiment, {**config, **{key: -params[key] for key in flip}})
        assert got.columns == base.columns
        for column, moved in zip(base.columns, np.abs(got.rows - base.rows).max(axis=0)):
            assert moved <= BOUNDS[column], (flip, column, moved)
