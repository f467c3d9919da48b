"""Property test of the exit-code contract: whatever JSON config arrives,
``cli.main`` returns 0, 2 or 3 and never raises.

Each example gives most keys a plausible value and up to two keys an
arbitrary JSON value, so that runs reach the runners as well as the
checks. Generated sizes stay small so that each example runs in
milliseconds; sizes above the limits are only checked for rejection.
"""

import contextlib
import io
import json
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from xsim.cli import main
from xsim.experiments import LIMITS, PARAM_SPECS

RATES = ("p_depol_1q", "p_depol_2q", "gamma_ad", "gamma_pd", "p_readout")
CORNERS = ("w_re", "w_im", "z_re", "z_im")

scalars = st.one_of(st.none(), st.booleans(), st.integers(-3, 3), st.floats(), st.text(max_size=3))
wild = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)
wild_numbers = st.one_of(st.floats(), st.integers(-10**400, 10**400), st.floats(-1e3, 1e3))
unit = st.floats(0.0, 1.0)
angles = st.floats(0.0, math.pi / 2)


def _normalized(weights):
    total = sum(weights)
    return [w / total for w in weights] if total > 0 else [0.25] * 4


weights = st.lists(unit, min_size=4, max_size=4).map(_normalized)
spectral = st.builds(lambda p, theta, phi: {"kind": "spectral", "p": p, "theta": theta, "phi": phi},
                     weights, angles, angles)
xstate = st.builds(
    lambda p, corners: {"kind": "xstate", **dict(zip("abcd", p)), **dict(zip(CORNERS, corners))},
    weights, st.lists(st.floats(-0.5, 0.5), min_size=4, max_size=4),
)
PLAUSIBLE = {
    "shots": st.one_of(st.integers(1, 10**4), st.sampled_from([1e3, 2.0e2])),
    "seed": st.one_of(st.integers(0, 2**64), st.just(3.0)),
    "exact": st.booleans(),
    "noise": st.one_of(st.none(), st.fixed_dictionaries({}, optional={name: st.floats(0.0, 0.2) for name in RATES})),
    "target": st.one_of(spectral, xstate),
    "t_max": st.one_of(st.none(), st.floats(1e-3, 20.0)),
    "time_points": st.integers(2, 4),
    "resolution": st.integers(1, 3),
    "lambda": st.floats(-1.0, 1.0),
}
WILD = {
    "noise": st.one_of(wild, st.fixed_dictionaries({}, optional={name: wild_numbers for name in RATES})),
    "target": st.one_of(wild, st.fixed_dictionaries({"kind": st.sampled_from(["spectral", "xstate", "x"])},
                                                    optional={key: wild for key in ("p", "a", "theta", "w_re")})),
    # sizes stay small even when wild: the defaults would make examples slow
    "time_points": st.one_of(st.integers(-1, 4), st.floats(-1.0, 4.0), scalars),
    "resolution": st.one_of(st.integers(-1, 3), st.floats(-1.0, 3.0), scalars),
}


@st.composite
def configs(draw):
    experiment = draw(st.sampled_from(sorted(PARAM_SPECS)))
    keys = sorted(PARAM_SPECS[experiment])
    wild_keys = draw(st.sets(st.sampled_from(keys), max_size=2))
    params = {}
    for key in keys:
        if key in wild_keys:
            params[key] = draw(WILD.get(key, st.one_of(wild_numbers, wild)))
        elif key in ("time_points", "resolution", "target") or draw(st.booleans()):
            params[key] = draw(PLAUSIBLE.get(key, st.floats(-3.0, 3.0)))
    if draw(st.integers(0, 9)) == 0:
        params[draw(st.text(min_size=1, max_size=3))] = draw(wild)
    return experiment, {"params": params}


def _run(tmp_dir, experiment, config) -> int:
    path = tmp_dir / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main([experiment, "--config", str(path)])


@settings(max_examples=200, deadline=None)
@given(case=configs())
def test_any_config_ends_in_a_documented_exit_code(tmp_path_factory, case):
    experiment, config = case
    assert _run(tmp_path_factory.getbasetemp(), experiment, config) in (0, 2, 3)


@settings(max_examples=40, deadline=None)
@given(key=st.sampled_from(sorted(LIMITS)), excess=st.one_of(st.integers(1, 10**30), st.floats(1.0, 1e300)))
def test_sizes_above_their_limits_are_rejected(tmp_path_factory, key, excess):
    experiment = "tetra_sweep" if key == "resolution" else "heisenberg_conc"
    assert _run(tmp_path_factory.getbasetemp(), experiment, {"params": {key: LIMITS[key] + excess}}) == 2
