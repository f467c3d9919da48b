"""Golden outputs of all six experiments at small sizes.

    PYTHONPATH=src python tests/goldens.py --write
    PYTHONPATH=src python tests/goldens.py --check

``--write`` regenerates ``tests/goldens.json``. It rewrites only the cases
that no longer match the file, so the diff names exactly the cases a change
moved. ``--check`` recomputes every case without writing, prints each
case's first difference and its largest float drift from the file, and
exits 1 on any mismatch.
``test_goldens.py`` recomputes every case and compares it with that file,
which it never writes. Each experiment runs sampled and ``--exact``, under
the default and the all-zero noise model.
Float values must agree within ``FLOAT_ATOL``; everything else must agree
exactly, including the integer shot counts of every (point, setting), which
are captured by wrapping ``measure_block``; they are the recorded counts,
readout error included.

The ``--dump-circuit`` sidecar of each experiment at these sizes (both
``xprep_single`` target kinds) is kept in ``tests/sidecars/`` and must
match as an exact string: the circuit angles are written at full
precision, so any change of their arithmetic shows there. ``--write``
rewrites those files too, and ``--check`` reports each one that differs.
"""

from __future__ import annotations

import argparse
import inspect
import io
import json
import sys
from itertools import zip_longest
from pathlib import Path

import numpy as np
import pytest

GOLDEN_PATH = Path(__file__).with_name("goldens.json")
SIDECAR_DIR = Path(__file__).with_name("sidecars")
# Reordered float sums and LAPACK in place of the Jacobi solver move the
# float columns by up to ~2e-8; a changed shot count moves them by at least
# 1/SHOTS.
FLOAT_ATOL = 1e-7
SHOTS = 200
SEED = 3

ZERO_NOISE = {"p_depol_1q": 0.0, "p_depol_2q": 0.0, "gamma_ad": 0.0, "gamma_pd": 0.0, "p_readout": 0.0}
SIZES = {
    "tetra_sweep": {"resolution": 2},
    "heisenberg_conc": {"time_points": 5},
    "field_conc": {"time_points": 5},
    "heisenberg_fidelity": {"time_points": 5},
    "field_fidelity": {"time_points": 5},
    "xprep_single": {
        "target": {
            "kind": "xstate", "a": 0.4, "b": 0.15, "c": 0.25, "d": 0.2,
            "w_re": 0.12, "w_im": -0.15, "z_re": -0.05, "z_im": 0.1,
        }
    },
}
SPECTRAL_TARGET = {"kind": "spectral", "p": [0.45, 0.3, 0.15, 0.1], "theta": 0.4, "phi": 1.1}


def cases() -> dict:
    """Case name -> (experiment, params)."""
    out = {}
    for experiment, size in SIZES.items():
        for noise_name, noise in (("default", None), ("zero", ZERO_NOISE)):
            for exact in (False, True):
                name = f"{experiment}-{noise_name}-{'exact' if exact else 'sampled'}"
                out[name] = (experiment, {**size, "shots": SHOTS, "seed": SEED, "noise": noise, "exact": exact})
    out["xprep_single-spectral-default-sampled"] = (
        "xprep_single", {"target": SPECTRAL_TARGET, "shots": SHOTS, "seed": SEED})
    return out


def sidecar_cases() -> dict:
    """Sidecar file name -> (experiment, params); the sidecar does not
    depend on shots, seed or noise."""
    out = {f"{experiment}.circuit.json": (experiment, size) for experiment, size in SIZES.items()}
    out["xprep_single-spectral.circuit.json"] = ("xprep_single", {"target": SPECTRAL_TARGET})
    return out


def sidecar_text(experiment: str, params: dict) -> str:
    """The text that ``--dump-circuit`` writes for one run."""
    from xsim.experiments import format_circuit_dump, run_experiment

    _, result = run_experiment(experiment, params)
    fh = io.StringIO()
    format_circuit_dump(result, fh)
    return fh.getvalue()


def run_case(experiment: str, params: dict, monkeypatch) -> dict:
    """Run one case with ``measure_block`` wrapped to record the counts of
    its sampled draws as [seed, setting, counts], point-major."""
    import xsim.tomography
    from xsim.experiments import run_experiment

    original = xsim.tomography.measure_block
    counts = []

    signature = inspect.signature(original)

    def recording(*args, **kwargs):
        frequencies = original(*args, **kwargs)
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        drawn = bound.arguments
        if not drawn["exact"]:
            # each frequency is a count over shots, which rint recovers exactly
            block = np.rint(frequencies * drawn["shots"]).astype(int).tolist()
            for seed, point in zip(drawn["seeds"], block):
                counts.extend([seed, setting, c] for setting, c in zip(drawn["settings"], point))
        return frequencies

    for module in [m for n, m in sys.modules.items() if n.startswith("xsim.")]:
        for attr, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, attr, recording)
    _, result = run_experiment(experiment, params)
    return json.loads(json.dumps({
        "columns": result.columns,
        "rows": result.rows.tolist(),
        "report": result.report,
        "counts": counts,
    }))


def _flatten(value, path=""):
    if isinstance(value, dict):
        for key in sorted(value):
            yield from _flatten(value[key], f"{path}.{key}")
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _flatten(item, f"{path}[{i}]")
    else:
        yield path, value


def _same(a, b) -> bool:
    if isinstance(a, float) and isinstance(b, float):
        return abs(a - b) <= FLOAT_ATOL
    return type(a) is type(b) and a == b


def _entry_same(want, have) -> bool:
    return want is not None and have is not None and want[0] == have[0] and _same(want[1], have[1])


def first_difference(golden: dict, got: dict):
    """Description of the first differing row, count or report entry, or None."""
    for section in ("columns", "rows", "counts"):
        for i, (want, have) in enumerate(zip_longest(golden[section], got[section])):
            if not all(_entry_same(w, h) for w, h in zip_longest(_flatten(want), _flatten(have))):
                return f"{section}[{i}]: got {have}, golden {want}"
    for want, have in zip_longest(_flatten(golden["report"]), _flatten(got["report"])):
        if not _entry_same(want, have):
            return f"report: got {have}, golden {want}"
    return None


def float_drift(golden: dict, got: dict) -> float:
    """Largest |golden - got| over the float entries at matching paths."""
    drift = 0.0
    for section in ("rows", "counts", "report"):
        for want, have in zip(_flatten(golden[section]), _flatten(got[section])):
            if want[0] == have[0] and isinstance(want[1], float) and isinstance(have[1], float):
                drift = max(drift, abs(want[1] - have[1]))
    return drift


def check(previous: dict, computed: dict) -> int:
    """Print each case's first difference and float drift; 1 on any mismatch."""
    failed, worst = [], 0.0
    for name in sorted(set(previous) | set(computed)):
        kept, entry = previous.get(name), computed.get(name)
        if kept is None or entry is None:
            diff, drift = "missing from " + ("the file" if kept is None else "the cases"), 0.0
        elif (kept["experiment"], kept["params"]) != (entry["experiment"], entry["params"]):
            diff, drift = "experiment or params differ", 0.0
        else:
            diff, drift = first_difference(kept, entry), float_drift(kept, entry)
        worst = max(worst, drift)
        if diff is not None:
            failed.append(name)
        print(f"{name}: {'ok' if diff is None else diff}; largest float drift {drift:.3g}")
    print(f"{len(computed)} cases, {len(failed)} mismatched {failed}; largest float drift {worst:.3g}"
          f" (FLOAT_ATOL {FLOAT_ATOL:g})")
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Regenerate or check the golden outputs.")
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", action="store_true", help=f"overwrite {GOLDEN_PATH.name}")
    mode.add_argument("--check", action="store_true", help=f"compare with {GOLDEN_PATH.name}, writing nothing")
    args = parser.parse_args(argv)
    previous = json.loads(GOLDEN_PATH.read_text(encoding="utf-8")) if GOLDEN_PATH.exists() else {}
    computed = {}
    for name, (experiment, params) in cases().items():
        with pytest.MonkeyPatch.context() as mp:
            computed[name] = {"experiment": experiment, "params": params, **run_case(experiment, params, mp)}
    sidecars = {name: sidecar_text(*case) for name, case in sidecar_cases().items()}
    if args.check:
        moved = [name for name, text in sidecars.items()
                 if not (SIDECAR_DIR / name).exists() or (SIDECAR_DIR / name).read_text(encoding="utf-8") != text]
        print(f"{len(sidecars)} sidecars, {len(moved)} differ {moved}")
        return max(check(previous, computed), 1 if moved else 0)
    SIDECAR_DIR.mkdir(exist_ok=True)
    for name, text in sidecars.items():
        (SIDECAR_DIR / name).write_text(text, encoding="utf-8")
    goldens, rewritten = {}, []
    for name, entry in computed.items():
        params = entry["params"]
        kept = previous.get(name)
        if kept and kept["params"] == params and first_difference(kept, entry) is None:
            goldens[name] = kept
        else:
            goldens[name] = entry
            rewritten.append(name)
    GOLDEN_PATH.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(goldens)} cases to {GOLDEN_PATH}; rewritten: {rewritten}")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    sys.exit(main())
