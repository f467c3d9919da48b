"""Python call counts of the default sweeps, counted in xsim frames only.

A sweep block runs as arrays, so the Python calls of a sweep are a constant
per block plus a small slope per point: one generator step per circuit in
``run_stack``. A sampled block re-keys its one stream and draws its shots in
three array steps, so sampling adds a constant and no slope: a sampler call
per (point, setting), such as a stream keyed per draw, fails here. Two sizes
inside one block give both numbers. Frames of numpy's own
Python dispatchers are not counted, so the counts do not depend on the numpy
version; a ``NamedTuple`` constructor runs in a frame of its own module and is
not counted either.

Every slope ceiling is the measured slope plus 0.5, so one more Python call per
point, a per-point loop put back into a block route, fails on any machine.
Each constant ceiling is the measured constant plus 20. Measured with seed 0 on
Python 3.11 (Python 3.12 inlines comprehensions and counts fewer).
"""

import sys
from collections import Counter

import pytest

from xsim import experiments, tomography
from xsim.experiments import run_experiment
from xsim.heisenberg import evolve_diagonal
from xsim.rng import block_counts, keyed_stream

# experiment -> (size key, two sizes, points at each size)
SIZES = {
    "tetra_sweep": ("resolution", (4, 8), (35, 165)),
    "heisenberg_conc": ("time_points", (16, 64), (16, 64)),
    "field_conc": ("time_points", (16, 64), (16, 64)),
    "heisenberg_fidelity": ("time_points", (16, 64), (16, 64)),
    "field_fidelity": ("time_points", (16, 64), (16, 64)),
}

# (experiment, exact) -> (slope ceiling, constant ceiling); measured beside
CEILINGS = {
    ("tetra_sweep", True): (1.5, 204),  # 1, 184
    ("heisenberg_conc", True): (1.5, 172),  # 1, 152
    ("field_conc", True): (1.5, 228),  # 1, 208
    ("heisenberg_fidelity", True): (1.5, 224),  # 1, 204
    ("field_fidelity", True): (1.5, 256),  # 1, 236
    ("tetra_sweep", False): (1.5, 219),  # 1, 199
    ("heisenberg_conc", False): (1.5, 187),  # 1, 167
    ("field_conc", False): (1.5, 243),  # 1, 223
    ("heisenberg_fidelity", False): (1.5, 239),  # 1, 219
    ("field_fidelity", False): (1.5, 271),  # 1, 251
}


def xsim_calls(experiment: str, params: dict) -> int:
    """Python calls in xsim frames during the second of two runs, so that
    first-call caches are warm."""
    run_experiment(experiment, params)
    seen = Counter()

    def profile(frame, event, arg):
        if event == "call":
            seen[frame.f_globals.get("__name__", "").partition(".")[0] == "xsim"] += 1

    sys.setprofile(profile)
    try:
        run_experiment(experiment, params)
    finally:
        sys.setprofile(None)
    return seen[True]


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "sampled"])
@pytest.mark.parametrize("experiment", list(SIZES))
def test_python_calls_per_point_and_per_block_stay_under_their_ceilings(experiment, exact):
    key, sizes, points = SIZES[experiment]
    small, large = (xsim_calls(experiment, {key: n, "exact": exact, "seed": 0}) for n in sizes)
    slope = (large - small) / (points[1] - points[0])
    constant = small - slope * points[0]
    slope_ceiling, constant_ceiling = CEILINGS[experiment, exact]
    assert slope <= slope_ceiling, (small, large, slope)
    assert constant <= constant_ceiling, (small, large, constant)


def test_the_counter_sees_a_per_point_loop(monkeypatch):
    # evolving each point of a block on its own adds xsim calls per point
    params = {"time_points": 16, "exact": True, "seed": 0}
    base = xsim_calls("heisenberg_conc", params)

    def per_point(p, populations, ts):
        for t in ts:
            evolve_diagonal(p, populations, t)
        return evolve_diagonal(p, populations, ts)

    monkeypatch.setattr(experiments, "evolve_diagonal", per_point)
    assert xsim_calls("heisenberg_conc", params) - base >= 16


def test_the_counter_sees_a_stream_keyed_per_draw(monkeypatch):
    # keying a stream per (point, setting) before the block's draw adds nine
    # xsim calls per point
    params = {"time_points": 16, "seed": 0}
    base = xsim_calls("heisenberg_fidelity", params)

    def per_draw(rows, shots, seed, stream):
        for row in range(len(rows)):
            keyed_stream(seed, 9 * stream + row)
        return block_counts(rows, shots, seed, stream)

    monkeypatch.setattr(tomography, "block_counts", per_draw)
    assert xsim_calls("heisenberg_fidelity", params) - base >= 9 * 16
