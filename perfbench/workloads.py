"""Seeded workloads for the xsim benchmark and the checks on their outputs.

Every workload runs all five sweep experiments and a batch of
``xprep_single`` calls, so that every end-to-end metric exists on every
workload. What differs is the regime, chosen to load a different layer:

* ``paper_defaults``: every experiment at its default config (default
  noise, 8000 shots, 165 simplex points, 64 time points). Kraus noise in
  ``noise.run_noisy`` does most of the work.
* ``clean_tomography``: all-zero noise. ``heisenberg_fidelity`` at 50 shots
  and ``field_fidelity`` with ``--exact``, both on 256 time points, so that
  reconstruction, PSD repair and fidelity scoring do most of the work; the
  exact leg must give ``f_full`` = ``f_partial5`` = 1.
* ``single_state_highshot``: 10^6 shots with default noise. The
  ``xprep_single`` calls (JSON output plus circuit dump) carry the per-call
  overhead and the shot-scaling cost; the sweeps are kept small.

All program seeds and all ``xprep_single`` targets come from the workload
seed, so one seed always gives the same configs.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

SWEEPS = ("tetra_sweep", "heisenberg_conc", "field_conc", "heisenberg_fidelity", "field_fidelity")

ZERO_NOISE = {"p_depol_1q": 0.0, "p_depol_2q": 0.0, "gamma_ad": 0.0, "gamma_pd": 0.0, "p_readout": 0.0}
DEFAULT_NOISE = {"p_depol_1q": 0.001, "p_depol_2q": 0.01, "gamma_ad": 0.001, "gamma_pd": 0.001, "p_readout": 0.02}

# Workload -> (params of every call, per-sweep overrides). Unset params keep
# the program's defaults: 8000 shots, default noise, resolution 8, 64 points.
REGIMES = {
    "paper_defaults": ({}, {}),
    "clean_tomography": ({"noise": ZERO_NOISE, "shots": 50}, {
        "heisenberg_fidelity": {"time_points": 256},
        "field_fidelity": {"time_points": 256, "exact": True},
    }),
    "single_state_highshot": ({"shots": 10**6}, {
        "tetra_sweep": {"resolution": 3},
        **{exp: {"time_points": 8} for exp in SWEEPS[1:]},
    }),
}
WORKLOADS = tuple(REGIMES)

# At least 100 calls per pass, so that ten latencies lie beyond the p90.
XPREP_CALLS = 110

# |f - 1| allowed on the exact zero-noise leg. The program reads up to
# 1 + 2.0e-8 there (square roots of ~1e-16 eigenvalues), so a bare f <= 1
# would flag correct output.
EXACT_FIDELITY_TOL = 1e-6
# Slack above 1 for any fidelity or concurrence column.
UNIT_TOL = 1e-6
# The program's analytic concurrence against the closed form computed here;
# covers the 12 significant digits of the CSV and reordered float sums.
ANALYTIC_TOL = 1e-10
# Ideal (noise-free) prepared state against the generated target.
IDEAL_TOL = 1e-9
# Off-X weight allowed when the noise model is zero.
LEAKAGE_TOL = 1e-9

TETRA_THETA = TETRA_PHI = math.pi / 6  # the tetra_sweep defaults

COLUMNS = {
    "tetra_sweep": ("p00", "p01", "p10", "p11", "c_analytic", "c_noisy_sim", "c_shot_tomo"),
    "heisenberg_conc": ("t", "c_analytic", "c_reconstructed"),
    "field_conc": ("t", "c_analytic", "c_reconstructed"),
    "heisenberg_fidelity": ("t", "f_full", "f_partial5", "f_partial3", "leakage"),
    "field_fidelity": ("t", "f_full", "f_partial5", "leakage"),
}


@dataclass
class Call:
    """One CLI invocation: experiment, the params written to its config, and
    what the benchmark expects back."""

    experiment: str
    params: dict
    points: int
    target: dict | None = None
    argv: list = field(default_factory=list)

    @property
    def exact(self) -> bool:
        return bool(self.params.get("exact", False))

    @property
    def noise(self) -> dict:
        return self.params.get("noise") or DEFAULT_NOISE

    def out_files(self) -> tuple:
        """Files the call writes: the --out report and its circuit sidecar."""
        if "--out" not in self.argv:
            return ()
        out = Path(self.argv[self.argv.index("--out") + 1])
        return out, Path(f"{out}.circuit.json")


def simplex_points(resolution: int) -> int:
    n = resolution
    return (n + 1) * (n + 2) * (n + 3) // 6


def _seed(rng):
    return rng.randrange(1, 2**31)


def _spectral_target(rng):
    weights = [rng.uniform(0.05, 1.0) for _ in range(4)]
    total = sum(weights)
    return {
        "kind": "spectral",
        "p": [w / total for w in weights],
        "theta": rng.uniform(0.05, math.pi / 2 - 0.05),
        "phi": rng.uniform(0.05, math.pi / 2 - 0.05),
    }


def _xstate_target(rng):
    """Complex X-state strictly inside the positive cone."""
    diag = [rng.uniform(0.05, 1.0) for _ in range(4)]
    total = sum(diag)
    a, b, c, d = (v / total for v in diag)
    w = rng.uniform(0.0, 0.95) * math.sqrt(a * d)
    z = rng.uniform(0.0, 0.95) * math.sqrt(b * c)
    mu, nu = rng.uniform(-math.pi, math.pi), rng.uniform(-math.pi, math.pi)
    return {
        "kind": "xstate", "a": a, "b": b, "c": c, "d": d,
        "w_re": w * math.cos(mu), "w_im": w * math.sin(mu),
        "z_re": z * math.cos(nu), "z_im": z * math.sin(nu),
    }


def build(workload: str, seed: int) -> list:
    """The calls of one pass; every pass of a run repeats the same list."""
    common, overrides = REGIMES[workload]
    rng = random.Random(f"{workload}:{seed}")
    calls = []
    for exp in SWEEPS:
        params = {**common, **overrides.get(exp, {}), "seed": _seed(rng)}
        if exp == "tetra_sweep":
            points = simplex_points(params.get("resolution", 8))
        else:
            points = params.get("time_points", 64)
        calls.append(Call(exp, params, points))
    xprep = []
    for _ in range(XPREP_CALLS):
        target = _spectral_target(rng) if rng.random() < 0.5 else _xstate_target(rng)
        xprep.append(Call("xprep_single", {**common, "seed": _seed(rng), "target": target}, 1, target))
    # Interleave: each sweep is followed by a fifth of the xprep calls, so
    # that a slow minute of the machine does not land on one leg only.
    chunk = -(-len(xprep) // len(calls))
    return [c for i, sweep in enumerate(calls) for c in [sweep] + xprep[i * chunk:(i + 1) * chunk]]


def write_configs(calls, work_dir) -> None:
    """Write one config file per call and fill in its argv."""
    for i, call in enumerate(calls):
        path = work_dir / f"config_{i:03d}.json"
        path.write_text(json.dumps({"experiment": call.experiment, "params": call.params}, sort_keys=True))
        call.argv = [call.experiment, "--config", str(path)]
        if call.experiment == "xprep_single":
            call.argv += ["--format", "json", "--dump-circuit", "--out", str(work_dir / "xprep.json")]


def digest(*texts) -> str:
    h = hashlib.sha256()
    for t in texts:
        h.update(t.encode("utf-8"))
        h.update(b"\0")
    return h.hexdigest()


# ---------------------------------------------------------------- checks


def closed_form(x) -> float:
    """Concurrence 2 max(0, |w| - sqrt(bc), |z| - sqrt(ad)) of an X-state dict."""
    w = math.hypot(x["w_re"], x["w_im"])
    z = math.hypot(x["z_re"], x["z_im"])
    return 2.0 * max(0.0, w - math.sqrt(max(x["b"] * x["c"], 0.0)), z - math.sqrt(max(x["a"] * x["d"], 0.0)))


def shape_map(p, theta, phi) -> dict:
    """X-state entries of spectral weights p = (p00, p01, p10, p11) and angles."""
    ct, st, cf, sf = math.cos(theta), math.sin(theta), math.cos(phi), math.sin(phi)
    return {
        "a": p[0] * ct * ct + p[2] * st * st,
        "d": p[0] * st * st + p[2] * ct * ct,
        "b": p[1] * sf * sf + p[3] * cf * cf,
        "c": p[1] * cf * cf + p[3] * sf * sf,
        "w_re": (p[0] - p[2]) * ct * st, "w_im": 0.0,
        "z_re": (p[1] - p[3]) * cf * sf, "z_im": 0.0,
    }


def _expected_entries(target) -> dict:
    if target["kind"] == "spectral":
        return shape_map(target["p"], target["theta"], target["phi"])
    return {k: target[k] for k in ("a", "b", "c", "d", "w_re", "w_im", "z_re", "z_im")}


def _check_provenance(call, prov, problems):
    want = {"experiment": call.experiment, "seed": call.params["seed"], "exact": call.exact, "noise": call.noise}
    for key, value in want.items():
        if prov.get(key) != value:
            problems.append(f"provenance {key}={prov.get(key)!r}, expected {value!r}")
    if not call.exact and prov.get("shots") != call.params.get("shots", 8000):
        problems.append(f"provenance shots={prov.get('shots')!r}")


def _in_unit(values, name, problems):
    for v in values:
        if not -UNIT_TOL <= v <= 1.0 + UNIT_TOL:
            problems.append(f"{name}={v!r} outside [0, 1]")
            return


def check_csv(call, stdout, stderr) -> list:
    problems = []
    lines = stdout.splitlines()
    if not lines or tuple(lines[0].split(",")) != COLUMNS[call.experiment]:
        return [f"header {lines[:1]!r}, expected {COLUMNS[call.experiment]}"]
    try:
        rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    except ValueError as exc:
        return [f"unparsable row: {exc}"]
    if len(rows) != call.points:
        problems.append(f"{len(rows)} rows, expected {call.points}")
    if any(len(r) != len(COLUMNS[call.experiment]) or not all(map(math.isfinite, r)) for r in rows):
        problems.append("ragged or non-finite row")
        return problems
    prov_lines = [line for line in stderr.splitlines() if line.startswith("# ")]
    if len(prov_lines) != 1:
        problems.append(f"{len(prov_lines)} provenance lines on stderr")
    else:
        _check_provenance(call, json.loads(prov_lines[0][2:]), problems)
    cols = dict(zip(COLUMNS[call.experiment], zip(*rows)))

    if call.experiment == "tetra_sweep":
        for r in rows:
            if abs(sum(r[:4]) - 1.0) > 1e-9:
                problems.append(f"simplex point {r[:4]} does not sum to 1")
                break
            want = closed_form(shape_map(r[:4], TETRA_THETA, TETRA_PHI))
            if abs(r[4] - want) > ANALYTIC_TOL:
                problems.append(f"c_analytic {r[4]!r} != closed form {want!r} at {r[:4]}")
                break
        for name in ("c_analytic", "c_noisy_sim", "c_shot_tomo"):
            _in_unit(cols[name], name, problems)
        return problems

    t = cols["t"]
    if t[0] != 0.0 or any(b <= a for a, b in zip(t, t[1:])):
        problems.append("time column does not start at 0 and increase")
    for name, values in cols.items():
        if name != "t" and name != "leakage":
            _in_unit(values, name, problems)
    if "leakage" in cols:
        limit = LEAKAGE_TOL if call.noise == ZERO_NOISE else 1.0
        if any(not 0.0 <= v <= limit for v in cols["leakage"]):
            problems.append(f"leakage outside [0, {limit}]")
    if call.exact and call.noise == ZERO_NOISE:
        for name in ("f_full", "f_partial5"):
            worst = max(abs(v - 1.0) for v in cols[name])
            if worst > EXACT_FIDELITY_TOL:
                problems.append(f"exact leg {name} off 1 by {worst:.3e} > {EXACT_FIDELITY_TOL}")
    return problems


def check_xprep(call, out_text, dump_text) -> list:
    problems = []
    try:
        payload = json.loads(out_text)
        dump = json.loads(dump_text)
    except json.JSONDecodeError as exc:
        return [f"unparsable JSON output: {exc}"]
    report = payload.get("report", {})
    _check_provenance(call, payload.get("provenance", {}), problems)
    want = _expected_entries(call.target)
    for key, value in want.items():
        if abs(report["target"][key] - value) > ANALYTIC_TOL:
            problems.append(f"target {key}={report['target'][key]!r}, expected {value!r}")
        if abs(report["ideal_output"][key] - value) > IDEAL_TOL:
            problems.append(f"ideal output {key}={report['ideal_output'][key]!r}, expected {value!r}")
    conc = report["concurrence"]
    want_c = closed_form(want)
    if abs(conc["analytic"] - want_c) > ANALYTIC_TOL:
        problems.append(f"analytic concurrence {conc['analytic']!r} != closed form {want_c!r}")
    _in_unit(conc.values(), "concurrence", problems)
    rec = report["reconstruction"]
    if rec["shots"] != (0 if call.exact else call.params.get("shots", 8000)):
        problems.append(f"reconstruction shots {rec['shots']!r}")
    _in_unit([rec["fidelity_to_target"]], "fidelity_to_target", problems)
    if dump != [{"label": "target", "circuit": report["circuit"]}]:
        problems.append("circuit dump does not match the reported circuit")
    return problems
