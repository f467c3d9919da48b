"""Experiment drivers behind the CLI: parameter sweeps producing CSV or JSON.

Six experiments are registered:

    tetra_sweep          concurrence over the probability simplex at fixed
                         mixing angles (analytic, noisy-simulated, and
                         shot-reconstructed columns)
    heisenberg_conc      concurrence vs time for the zero-field exchange
                         model, 3-observable reconstruction
    field_conc           same with a z-field present, 5-observable
                         reconstruction
    heisenberg_fidelity  reconstruction fidelity vs time, all three
                         protocols
    field_fidelity       same with field; the 3-observable protocol is
                         omitted because the evolved corners are complex
    xprep_single         one-state pipeline inspection, JSON only

Analytic columns are pure functions of the physics parameters; shots, seed,
and noise touch only the simulated columns, evolved by ``circuits.run_stack``.
Every concurrence is the closed form ``concurrence_x``, the simulated ones
of outputs read through ``xstate_from_matrix``: the noise model keeps every
output X-shaped, and an output that left the shape would raise ShapeError.
A sweep builds, evolves, measures, reconstructs and scores its points in
one pass over blocks of 256 (``_BLOCK``), as (P, ...) stacks. A sampled
block draws all its shots from the stream keyed by the seed and the index
of its first point, so rerunning any experiment with the same config is
byte-identical; a sampled row depends on the block it falls in, an exact
row does not.

The time-sweep initial state is a two-sector classical mixture: sector
weights (r0, r1) = (cos^2(gamma/2), sin^2(gamma/2)) and an imbalance lambda
within each sector, giving circuit weights (q0 r0, q0 r1, q1 r0, q1 r1)
with q0 = (1+lambda)/2. Every time sweep evolves the matching diagonal state
with the exact propagator, zero field being its B = b = 0 case, in the
fixed local frame w -> -i w, z -> +i z: a Z rotation that makes the
zero-field corners real and moves no concurrence. Jz only sets a phase
between the parity sectors, which no X-state carries, and every noise
channel commutes with Z rotations, so Jz moves no output.
"""

from __future__ import annotations

import json
import math
from typing import NamedTuple

import numpy as np

from .circuits import build_complex_xstate_circuit, build_xstate_circuit, run_stack
from .errors import ConfigError, ContractError
from .heisenberg import HeisenbergParams, evolve_diagonal
from .linalg import dagger
from .noise import RATE_FIELDS, NoiseModel
from .tomography import FIDELITY_CONVENTION, FULL, PARTIAL3, PARTIAL5, measure_block
from .tomography import reconstruct_full, reconstruct_x3, reconstruct_x5
from .xstate import (
    XSpectral,
    XState,
    concurrence_x,
    fidelity_x,
    from_spectral,
    leakage,
    sqrt_x,
    xstate_from_matrix,
)

_REQUIRED = object()

_COMMON_DEFAULTS = {
    "shots": 8000,
    "seed": 0,
    "exact": False,
    "noise": None,  # resolved to NoiseModel defaults
}

_TIME_DEFAULTS = {
    "time_points": 64,
    "t_max": None,
    "lambda": 1.0,
    "J": 1.0,
    "Jz": 0.0,
}

# Each concurrence experiment and its fidelity twin take the same parameters.
_HEISENBERG_DEFAULTS = {
    **_COMMON_DEFAULTS,
    **_TIME_DEFAULTS,
    "kappa": 0.75,
    "gamma": 2.0 * math.acos(math.sqrt(7.0 / 8.0)),
}

_FIELD_DEFAULTS = {
    **_COMMON_DEFAULTS,
    **_TIME_DEFAULTS,
    "kappa": 0.95,
    "gamma": 2.0 * math.acos(math.sqrt(3.0 / 4.0)),
    "B": 1.0,
    "b": 0.5,
}

PARAM_SPECS = {
    "tetra_sweep": {
        **_COMMON_DEFAULTS,
        "resolution": 8,
        "theta": math.pi / 6,
        "phi": math.pi / 6,
    },
    "heisenberg_conc": _HEISENBERG_DEFAULTS,
    "heisenberg_fidelity": _HEISENBERG_DEFAULTS,
    "field_conc": _FIELD_DEFAULTS,
    "field_fidelity": _FIELD_DEFAULTS,
    "xprep_single": {
        **_COMMON_DEFAULTS,
        "target": _REQUIRED,
    },
}


def simplex_points(resolution: int) -> np.ndarray:
    """Probability 4-vectors with components that are multiples of
    1/resolution, as the rows of an (N, 4) float64 array in lexicographic
    order of the first three numerators."""
    n = resolution
    ijk = np.indices((n + 1,) * 3, dtype=np.int16).reshape(3, -1)
    ijk = ijk[:, ijk.sum(axis=0) <= n]
    return np.column_stack([*ijk, n - ijk.sum(axis=0)]) / n


class ExperimentResult(NamedTuple):
    columns: tuple
    rows: np.ndarray  # (points, columns) float64; no rows for a report
    report: dict | None = None
    circuits: object = tuple  # called with no arguments, yields the (label, Circuit) pairs


# Largest accepted values of the size parameters and the seed. Larger
# requests are rejected as configuration errors rather than left to
# overflow, to run for hours or to alias a smaller seed: 10^9 shots per
# setting, 10^5 time points, resolution 64 (47,905 simplex points), and
# 2^64 - 1, the largest seed the sampler streams key on.
LIMITS = {"shots": 10**9, "time_points": 100_000, "resolution": 64, "seed": 2**64 - 1}


def _reject_non_finite(value, path: str) -> None:
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"parameter {path} must be finite, got {value}")
    if isinstance(value, dict):
        for key, item in value.items():
            _reject_non_finite(item, f"{path}.{key}")
    elif isinstance(value, list):
        for i, item in enumerate(value):
            _reject_non_finite(item, f"{path}[{i}]")


def _number(what: str, value, integral: bool = False):
    """A JSON number as a float, or as an int when ``integral``; an integral
    float such as 1e6 counts as an integer. ``what`` names the value in
    error messages."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{what} must be a number, got {value!r}")
    if integral:
        if isinstance(value, float) and not value.is_integer():
            raise ConfigError(f"{what} must be an integer, got {value!r}")
        return int(value)
    try:
        return float(value)
    except OverflowError as exc:
        raise ConfigError(f"{what} must be finite, got an integer that overflows a double") from exc


def _noise_model(value) -> NoiseModel:
    """The noise parameter: null for the default model, or a JSON object
    giving any of the rates as numbers; omitted rates keep their defaults."""
    if value is None:
        return NoiseModel()
    if not isinstance(value, dict):
        raise ConfigError(f"noise must be a JSON object or null, got {value!r}")
    unknown = set(value) - set(RATE_FIELDS)
    if unknown:
        raise ConfigError(f"unknown noise fields {sorted(unknown)}")
    rates = {name: _number(f"noise rate {name}", rate) for name, rate in value.items()}
    try:
        return NoiseModel(**rates)
    except ContractError as exc:
        raise ConfigError(f"invalid noise model: {exc}") from exc


def resolve_params(experiment: str, given: dict) -> dict:
    """Fill defaults and reject unknown keys; returns plain resolved values.

    Every number must be a finite JSON number, ``exact`` a JSON boolean,
    the shot count, seed and sizes integral, and the sizes are capped by
    LIMITS.
    """
    if experiment not in PARAM_SPECS:
        raise ConfigError(f"unknown experiment {experiment!r}")
    spec = PARAM_SPECS[experiment]
    unknown = set(given) - set(spec)
    if unknown:
        raise ConfigError(f"unknown parameter keys for {experiment}: {sorted(unknown)}")
    for key, value in given.items():
        _reject_non_finite(value, key)
    out = {}
    for key, default in spec.items():
        if key in given:
            out[key] = given[key]
        elif default is _REQUIRED:
            raise ConfigError(f"{experiment} requires parameter {key!r}")
        else:
            out[key] = default
    out["noise"] = _noise_model(out["noise"])
    if not isinstance(out["exact"], bool):
        raise ConfigError(f"parameter 'exact' must be true or false, got {out['exact']!r}")
    for key in spec:
        if key in ("shots", "seed", "time_points", "resolution"):
            out[key] = _number(f"parameter {key!r}", out[key], integral=True)
        elif key not in ("exact", "noise", "target") and not (key == "t_max" and out[key] is None):
            out[key] = _number(f"parameter {key!r}", out[key])
    if out["shots"] < 1:
        raise ConfigError("shots must be >= 1")
    if out["seed"] < 0:
        raise ConfigError("seed must be >= 0")
    if "lambda" in out and not -1.0 <= out["lambda"] <= 1.0:
        raise ConfigError("lambda must lie in [-1, 1]")
    if "theta" in out:
        try:
            XSpectral(0.25, 0.25, 0.25, 0.25, out["theta"], out["phi"]).validate()
        except ContractError as exc:
            raise ConfigError(str(exc)) from exc
    if "time_points" in out and out["time_points"] < 2:
        raise ConfigError("time_points must be >= 2")
    for key, limit in LIMITS.items():
        if key in out and out[key] > limit:
            raise ConfigError(f"{key} must be <= {limit}; the value given exceeds the limit")
    if "resolution" in out and out["resolution"] < 1:
        raise ConfigError(f"grid resolution must be >= 1, got {out['resolution']}")
    return out


def _couplings(params: dict) -> HeisenbergParams:
    j = params["J"]
    hp = HeisenbergParams(j, j * params["kappa"], params["Jz"], params.get("B", 0.0), params.get("b", 0.0))
    if not all(math.isfinite(v) for v in (hp.Jk, hp.xi, hp.eta)):
        raise ConfigError(f"couplings overflow: {hp._asdict()}")
    return hp


def _time_grid(params: dict, hp: HeisenbergParams) -> np.ndarray:
    scale = max(abs(hp.J), abs(hp.Jk), hp.xi, hp.eta)
    t_max = params["t_max"]
    if t_max is None:
        if scale <= 0.0:
            raise ConfigError("all energy scales vanish; give t_max explicitly")
        t_max = 2.0 * math.pi / scale
        if not math.isfinite(t_max):
            raise ConfigError(f"phases overflow: the default t_max 2 pi / {scale} is infinite; give t_max explicitly")
    if t_max <= 0.0:
        raise ConfigError(f"t_max must be positive, got {t_max}")
    rate, name = (scale, "the coupling scale") if scale >= abs(hp.Jz) else (abs(hp.Jz), "|Jz|")
    if not math.isfinite(t_max * rate):
        raise ConfigError(f"phases overflow: t_max {t_max} times {name} {rate}")
    return np.linspace(0.0, t_max, params["time_points"])


def _circuit_weights(params: dict) -> tuple:
    """(q0 r0, q0 r1, q1 r0, q1 r1): sector weights from gamma, imbalance
    lambda within each sector."""
    q0 = 0.5 * (1.0 + params["lambda"])
    q1 = 1.0 - q0
    half = 0.5 * params["gamma"]
    r0 = math.cos(half) ** 2
    r1 = 1.0 - r0
    return (q0 * r0, q0 * r1, q1 * r0, q1 * r1)


# Sweep points that go through build, evolution, measurement and scoring
# together; only each point's row outlives its block. A sampled block draws
# from one stream keyed by its first point, so this size is part of the
# replay rule. 256 runs every default sweep as one executor batch, and the
# traced peak of 4,096- and 8,192-point sweeps stays flat at 1.0-2.1 MB
# (0.4-1.1 MB at 64 points, 4.2-8.0 at 1,024).
_BLOCK = 256


def _sweep(params: dict, points, build, columns, names: tuple, label: str) -> ExperimentResult:
    """The pipeline of every sweep: one row per point, in point order.

    One pass over consecutive blocks of _BLOCK points. ``build(block)``
    takes a block's points as an array, one point (or number) per row, and
    gives their targets as one XState stack and their circuits; the
    executor evolves the circuits to their noisy output pairs (2, 3); then
    ``columns(targets, pairs, draw)`` returns one sequence of floats per
    computed column. ``draw`` holds the keyword arguments (shots, seed,
    first, p_readout, exact) for ``measure_block``, ``first`` being the
    index of the block's first point. A row is the point's coordinates and
    computed columns, named ``names``, in one float64 table. The result's
    ``circuits()`` builds the circuits again through ``build`` from the
    table's leading columns, labelled ``{label}_{index}``.
    """
    nm = params["noise"]
    draw = {"shots": params["shots"], "seed": params["seed"], "p_readout": nm.p_readout, "exact": params["exact"]}
    rows = np.empty((len(points), len(names)))
    for start in range(0, len(points), _BLOCK):
        block = points[start : start + _BLOCK]
        targets, circuits = build(block)
        pairs = run_stack(circuits, (2, 3), nm.gate_noise)
        cols = columns(targets, pairs, {**draw, "first": start})
        rows[start : start + len(block)] = np.column_stack([block, *cols])
    lead = rows[:, 0] if points.ndim == 1 else rows[:, : points.shape[1]]

    def labelled():
        for start in range(0, len(lead), _BLOCK):
            for index, circ in enumerate(build(lead[start : start + _BLOCK])[1], start):
                yield f"{label}_{index}", circ

    return ExperimentResult(columns=names, rows=rows, circuits=labelled)


def run_tetra_sweep(params: dict) -> ExperimentResult:
    theta, phi = params["theta"], params["phi"]

    def build(block):
        # Simplex points are valid weights, and resolve_params checked the angles.
        targets = from_spectral(XSpectral(*block.T, theta, phi))
        return targets, build_xstate_circuit(block, theta, phi)

    def columns(targets, pairs, draw):
        c_shot = concurrence_x(reconstruct_x3(measure_block(pairs, PARTIAL3, **draw)))
        return concurrence_x(targets), concurrence_x(xstate_from_matrix(pairs)), c_shot

    names = ("p00", "p01", "p10", "p11", "c_analytic", "c_noisy_sim", "c_shot_tomo")
    return _sweep(params, simplex_points(params["resolution"]), build, columns, names, "point")


def _time_block(params: dict, hp: HeisenbergParams, ts: np.ndarray) -> tuple:
    """(XState stack, circuits) of the exact evolution of the diagonal state
    (q0 r0, q1 r1, q0 r1, q1 r0) at times ``ts``, in the time sweeps' frame.
    The evolution is unitary in each sector, so every preparation takes the
    initial sector populations, larger first, as its weights."""
    w00, w01, w10, w11 = _circuit_weights(params)
    x = evolve_diagonal(hp, (w00, w11, w01, w10), ts)
    targets = XState(x.a, x.b, x.c, x.d, -1j * x.w, 1j * x.z)
    weights = (max(w00, w10), max(w11, w01), min(w00, w10), min(w11, w01))
    return targets, build_complex_xstate_circuit(targets, weights)[0]


def _time_sweep(params: dict, columns, names: tuple) -> ExperimentResult:
    """A sweep over the time grid, each block built by ``_time_block``."""
    hp = _couplings(params)
    return _sweep(params, _time_grid(params, hp), lambda ts: _time_block(params, hp, ts), columns, names, "t")


def run_conc_experiment(params: dict, with_field: bool) -> ExperimentResult:
    """Concurrence vs time, analytic and reconstructed: from five settings with the field, else three."""
    settings, reconstruct = (PARTIAL5, reconstruct_x5) if with_field else (PARTIAL3, reconstruct_x3)

    def columns(targets, pairs, draw):
        estimate = reconstruct(measure_block(pairs, settings, **draw))
        return concurrence_x(targets), concurrence_x(estimate)

    return _time_sweep(params, columns, ("t", "c_analytic", "c_reconstructed"))


_PARTIAL5_ROWS = [FULL.index(s) for s in PARTIAL5]
_PARTIAL3_ROWS = [FULL.index(s) for s in PARTIAL3]


def run_fidelity_experiment(params: dict, with_field: bool) -> ExperimentResult:
    """Fidelity of all three protocols vs time; with the field the evolved
    corners are complex, so the 3-observable protocol is left out.

    The protocols read one shared dataset of nine settings per point, so
    they differ in which settings they use, not in sampling luck. X estimates
    score in closed form (``fidelity_x``); the full one, a factor L, as the
    squared sum of the singular values of L^dagger sqrt_x(target).
    """
    partial3 = () if with_field else ("f_partial3",)

    def columns(targets, pairs, draw):
        f = measure_block(pairs, FULL, **draw)
        overlap = dagger(reconstruct_full(f)) @ sqrt_x(targets).matrix()
        scores = [np.linalg.svd(overlap, compute_uv=False).sum(axis=-1) ** 2,
                  fidelity_x(reconstruct_x5(f[:, _PARTIAL5_ROWS]), targets)]
        if not with_field:
            scores.append(fidelity_x(reconstruct_x3(f[:, _PARTIAL3_ROWS]), targets))
        return (*scores, leakage(pairs))

    return _time_sweep(params, columns, ("t", "f_full", "f_partial5", *partial3, "leakage"))


def _parse_target(obj) -> tuple:
    """Returns (XState, XSpectral or None) from the xprep_single target key.

    Every field of the kind must be given as a JSON number (``p`` as a list
    of four), and keys other than ``kind`` and those fields are rejected. A
    well-formed but unphysical target raises ContractError."""
    fields = {"spectral": ("p", "theta", "phi"), "xstate": ("a", "b", "c", "d", "w_re", "w_im", "z_re", "z_im")}
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ConfigError("target must be an object with a 'kind' key")
    kind = obj["kind"]
    if not isinstance(kind, str) or kind not in fields:
        raise ConfigError(f"unknown target kind {kind!r}")
    body = {k: v for k, v in obj.items() if k != "kind"}
    unknown = set(body) - set(fields[kind])
    if unknown:
        raise ConfigError(f"unknown target keys for kind {kind}: {sorted(unknown)}")
    values = {}
    for key, value in body.items():
        if key == "p" and isinstance(value, list):
            values[key] = [_number(f"parameter 'target.p[{i}]'", item) for i, item in enumerate(value)]
        else:
            values[key] = _number(f"parameter 'target.{key}'", value)
    missing = set(fields[kind]) - set(values)
    if missing:
        raise ConfigError(f"malformed {kind} target: missing keys {sorted(missing)}")
    if kind == "spectral":
        if not isinstance(values["p"], list) or len(values["p"]) != 4:
            raise ConfigError(f"malformed spectral target: p must be a list of four numbers, got {body['p']!r}")
        spectral = XSpectral(*values["p"], values["theta"], values["phi"]).validate()
        return from_spectral(spectral), spectral
    w, z = complex(values["w_re"], values["w_im"]), complex(values["z_re"], values["z_im"])
    return XState(values["a"], values["b"], values["c"], values["d"], w, z).validate(), None


def run_xprep_single(params: dict) -> ExperimentResult:
    nm = params["noise"]
    target_x, spectral = _parse_target(params["target"])
    # a stack of one through the sweeps' block builders
    if spectral is not None:
        circ = build_xstate_circuit(np.array([spectral.probs]), spectral.theta, spectral.phi)[0]
        phases = (0.0, 0.0)
    else:
        circuits, stack, phases = build_complex_xstate_circuit(XState.stack([target_x]))
        circ, spectral = circuits[0], XSpectral(*(float(v[0]) for v in stack))
        phases = (float(phases[0][0]), float(phases[1][0]))
    ideal_pair = run_stack((circ,), (2, 3))[0]
    noisy_pair = run_stack((circ,), (2, 3), nm.gate_noise)[0]
    freqs = measure_block(noisy_pair[None], PARTIAL5, params["shots"], params["seed"], 0, nm.p_readout, params["exact"])
    x5 = reconstruct_x5(freqs[0])
    x5_matrix, leak = x5.matrix(), leakage(noisy_pair)
    ideal_x = xstate_from_matrix(ideal_pair)
    # Each pair of scores is one stack of two.
    c_analytic, c_reconstructed = concurrence_x(XState.stack([target_x, x5]))
    c_ideal, c_noisy = concurrence_x(XState.stack([ideal_x, xstate_from_matrix(noisy_pair)]))
    payload = {
        "target": target_x.to_json(),
        "spectral": spectral.to_json(),
        "phase_record": list(phases),
        "circuit": circ.to_json(),
        "ideal_output": ideal_x.to_json(),
        "noisy_output": {
            "re": noisy_pair.real.tolist(),
            "im": noisy_pair.imag.tolist(),
            "leakage": leak,
        },
        "reconstruction": {
            "protocol": "partial5",
            "reconstructed_re": x5_matrix.real.tolist(),
            "reconstructed_im": x5_matrix.imag.tolist(),
            "fidelity_to_target": float(fidelity_x(x5, target_x)),
            "fidelity_convention": FIDELITY_CONVENTION,
            "leakage": leak,
            "shots": 0 if params["exact"] else params["shots"],
            "seed": params["seed"],
        },
        "concurrence": {"analytic": c_analytic, "ideal": c_ideal, "noisy": c_noisy, "reconstructed": c_reconstructed},
    }
    return ExperimentResult(columns=(), rows=np.empty((0, 0)), report=payload, circuits=lambda: (("target", circ),))


RUNNERS = {
    "tetra_sweep": run_tetra_sweep,
    "heisenberg_conc": lambda p: run_conc_experiment(p, with_field=False),
    "field_conc": lambda p: run_conc_experiment(p, with_field=True),
    "heisenberg_fidelity": lambda p: run_fidelity_experiment(p, with_field=False),
    "field_fidelity": lambda p: run_fidelity_experiment(p, with_field=True),
    "xprep_single": run_xprep_single,
}


def run_experiment(experiment: str, raw_params: dict) -> tuple:
    """Resolve parameters and run; returns (resolved params, result)."""
    params = resolve_params(experiment, raw_params)
    return params, RUNNERS[experiment](params)


def format_csv(result: ExperimentResult, fh) -> None:
    """Write the header and one line per row, each value as ``%.12g``: the
    text of ``numpy.savetxt`` with that format, formatted and written at once."""
    rows = np.asarray(result.rows, dtype=float)
    line = ",".join(["%.12g"] * rows.shape[1]) + "\n"
    fh.write(",".join(result.columns) + "\n" + (line * len(rows)) % tuple(rows.ravel().tolist()))


def provenance(experiment: str, params: dict) -> dict:
    return {
        "experiment": experiment,
        "seed": params["seed"],
        "shots": params["shots"],
        "exact": params["exact"],
        "noise": params["noise"].to_json(),
        "fidelity_convention": FIDELITY_CONVENTION,
    }


def format_json(experiment: str, params: dict, result: ExperimentResult, fh) -> None:
    payload = {"provenance": provenance(experiment, params)}
    if result.report is not None:
        payload["report"] = result.report
    else:
        payload["columns"] = list(result.columns)
        payload["rows"] = result.rows.tolist()
    fh.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def format_circuit_dump(result: ExperimentResult, fh) -> None:
    payload = [{"label": label, "circuit": circ.to_json()} for label, circ in result.circuits()]
    fh.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
