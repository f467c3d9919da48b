"""Mutation score of the tier-1 tests over the computing modules of xsim.

    python tests/mutants.py                          # the fixed sample
    python tests/mutants.py --module tomography --all
    python tests/mutants.py --list

A mutant changes one site of one module: + <-> -, * <-> /, < <-> <=,
> <-> >=, == <-> !=, an int constant + 1, a float constant * 1.5 (0.0 -> 1.0).
Sites are numbered in ``ast.walk`` order, so a module's numbering changes
only when its code does. Each mutant is the module's ``ast.unparse`` with
that one site changed, run against a copy of ``src`` by one ``pytest -x``
over the whole tier-1 suite; it is killed when pytest fails or runs past
``TIMEOUT`` seconds. ``ast.unparse`` drops comments, so each module's
unmutated unparse is run first and must pass.

By default SAMPLE sites are drawn with ``random.Random(SEED)`` from all the
modules named (the eight computing modules if none is); ``--all`` runs every
site of them instead. A survivor is a mutant that passes; the script exits 1
when one survives that ``EQUIVALENT`` does not list. pytest does not collect
this file, and tier-1 does not run it.
"""

from __future__ import annotations

import argparse
import ast
import random
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = ("circuits", "experiments", "heisenberg", "linalg", "noise", "rng", "tomography", "xstate")
SEED = 1
SAMPLE = 60
TIMEOUT = 300

_SWAPS = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult,
          ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt, ast.Eq: ast.NotEq, ast.NotEq: ast.Eq}

# (module, original source line stripped, mutation) -> why no test can kill it.
EQUIVALENT = {
    ("tomography", "lam = w.reshape(-1, n)", "1 -> 2"): "numpy reads any negative size as 'infer'",
    ("tomography", "maps = _OUTCOME_MAPS[[setting_index(s) for s in settings]].reshape(-1, 16)", "1 -> 2"):
        "numpy reads any negative size as 'infer'",
    ("tomography", "probs = np.maximum(np.matmul(maps, rho.reshape(-1, 16, 1))[..., 0].real, 0.0)", "1 -> 2"):
        "numpy reads any negative size as 'infer'",
    ("tomography", "return block_counts(probs.reshape(-1, 4), shots, seed, first).reshape(probs.shape)[:, index] / shots",
     "1 -> 2"): "numpy reads any negative size as 'infer'",
    ("tomography", "keep = (mag <= bound) | (mag == 0.0)", "0.0 -> 1.0"):
        "a reconstructed corner has parts (+-<XX> +- <YY>)/4 or (+-<XY> +- <YX>)/4, so |w| <= 1/sqrt(2) < 1",
    ("tomography", "keep = (mag <= bound) | (mag == 0.0)", "LtE -> Lt"):
        "a corner whose magnitude equals its bound is scaled by bound / mag = 1.0",
    ("tomography", "neg = lam[:, i] < 0.0", "Lt -> LtE"):
        "a zero eigenvalue moves no mass, and a unit-trace matrix keeps its largest eigenvalue positive",
    ("tomography", "n = rho_hat.shape[-1]", "1 -> 2"): "is_hermitian has checked the matrices square",
    ("tomography", "if (np.abs(np.trace(rho_hat, axis1=-2, axis2=-1).real - 1.0) > 1e-10).any():", "Gt -> GtE"):
        "near 1, tr - 1 is a multiple of 2^-53, which 1e-10 is not",
    ("tomography", "if i == n - 1:", "Sub -> Add"):
        "after the unit-trace check the last eigenvalue holds mass near 1, so the branch is never reached",
    ("tomography", "return np.where(keep, value, value * (bound / np.where(keep, 1.0, mag)))", "1.0 -> 1.5"):
        "the outer where discards the quotient of a kept corner; its divisor only has to be nonzero",
}


def _label(node) -> str | None:
    """The mutation of one node, or None when it has none."""
    op = getattr(node, "op", None)
    if isinstance(node, ast.BinOp) and type(op) in _SWAPS:
        return f"{type(op).__name__} -> {_SWAPS[type(op)].__name__}"
    if isinstance(node, ast.Constant) and type(node.value) is int:
        return f"{node.value} -> {node.value + 1}"
    if isinstance(node, ast.Constant) and type(node.value) is float:
        return f"{node.value!r} -> {node.value * 1.5 if node.value else 1.0!r}"
    return None


def _compare_labels(node) -> list:
    return [f"{type(op).__name__} -> {_SWAPS[type(op)].__name__}" for op in node.ops if type(op) in _SWAPS]


def sites(module: str) -> list:
    """[(module, index, line number, source line, mutation)] of one module."""
    source = (ROOT / "src" / "xsim" / f"{module}.py").read_text(encoding="utf-8")
    lines = source.splitlines()
    out = []
    for node in ast.walk(ast.parse(source)):
        labels = _compare_labels(node) if isinstance(node, ast.Compare) else [_label(node)]
        for label in filter(None, labels):
            out.append((module, len(out), node.lineno, lines[node.lineno - 1].split("  #")[0].strip(), label))
    return out


def mutated(module: str, index: int) -> str:
    """The unparse of ``module`` with site ``index`` changed, or unchanged for -1."""
    tree = ast.parse((ROOT / "src" / "xsim" / f"{module}.py").read_text(encoding="utf-8"))
    k = 0
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            for i, op in enumerate(node.ops):
                if type(op) in _SWAPS:
                    if k == index:
                        node.ops[i] = _SWAPS[type(op)]()
                    k += 1
        elif _label(node):
            if k == index:
                if isinstance(node, ast.BinOp):
                    node.op = _SWAPS[type(node.op)]()
                elif type(node.value) is int:
                    node.value += 1
                else:
                    node.value = node.value * 1.5 if node.value else 1.0
            k += 1
    return ast.unparse(tree)


def run(src: Path, module: str, text: str) -> tuple:
    """(passed, seconds) of tier-1 with ``module`` replaced by ``text``."""
    target = src / "xsim" / f"{module}.py"
    original = target.read_text(encoding="utf-8")
    target.write_text(text, encoding="utf-8")
    start = time.perf_counter()
    try:
        code = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "-o", f"pythonpath={src}"],
            cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=TIMEOUT).returncode
    except subprocess.TimeoutExpired:
        code = "timeout"
    finally:
        target.write_text(original, encoding="utf-8")
    return code == 0, time.perf_counter() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Mutation score of the tier-1 tests.")
    parser.add_argument("--module", action="append", choices=MODULES, help="a module to mutate (repeatable)")
    parser.add_argument("--all", action="store_true", help=f"every site, not a sample of {SAMPLE}")
    parser.add_argument("--list", action="store_true", help="print the sites and run nothing")
    args = parser.parse_args(argv)
    candidates = [site for module in args.module or MODULES for site in sites(module)]
    picked = candidates if args.all or len(candidates) <= SAMPLE else random.Random(SEED).sample(candidates, SAMPLE)
    if args.list:
        for site in picked:
            print(*site, sep="\t")
        return 0
    survivors = []
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        for module in sorted({site[0] for site in picked}):
            passed, seconds = run(src, module, mutated(module, -1))
            print(f"{module}: unmutated unparse {'passes' if passed else 'FAILS'} ({seconds:.0f} s)", flush=True)
            if not passed:
                return 2
        for module, index, line, text, label in picked:
            passed, seconds = run(src, module, mutated(module, index))
            known = EQUIVALENT.get((module, text, label))
            verdict = ("survived, equivalent: " + known) if passed and known else "SURVIVED" if passed else "killed"
            print(f"{module}#{index} line {line} [{label}] {text}: {verdict} ({seconds:.0f} s)", flush=True)
            if passed:
                survivors.append((module, index, line, text, label, known))
    real = [s for s in survivors if s[5] is None]
    killed = len(picked) - len(survivors)
    print(f"{len(picked)} mutants of {len(candidates)} sites: {killed} killed, "
          f"{len(survivors) - len(real)} equivalent, {len(real)} real survivors")
    return 1 if real else 0


if __name__ == "__main__":
    sys.exit(main())
