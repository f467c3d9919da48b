"""Command line entry point.

    xsim <experiment> [--config cfg.json] [--out path] [--format csv|json]
                      [--seed N] [--shots N] [--exact] [--dump-circuit]

The config file is a JSON object {"experiment": ..., "params": {...},
"output": {"path": ..., "format": ...}}; every section is optional but
unknown keys are rejected. Command line flags override config values.

Exit codes: 0 on success, 2 for configuration problems, 3 when a numerical
contract is violated (infeasible target, non-physical state, and so on).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import lru_cache

from .errors import ConfigError, ContractError
from .experiments import (
    RUNNERS,
    format_circuit_dump,
    format_csv,
    format_json,
    provenance,
    run_experiment,
)

_CONFIG_KEYS = ("experiment", "params", "output")
_OUTPUT_KEYS = ("path", "format")


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = set(cfg) - set(_CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    output = cfg.get("output", {})
    if not isinstance(output, dict):
        raise ConfigError("config 'output' must be an object")
    bad = set(output) - set(_OUTPUT_KEYS)
    if bad:
        raise ConfigError(f"unknown output keys: {sorted(bad)}")
    params = cfg.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError("config 'params' must be an object")
    return cfg


def _check_writable(path) -> None:
    """Reject, before anything runs, an output path that cannot be written as a file."""
    if isinstance(path, str) and os.path.basename(path) and not os.path.isdir(path):
        parent = os.path.dirname(path) or "."
        if os.path.isdir(parent) and os.access(path if os.path.exists(path) else parent, os.W_OK):
            return
    raise ConfigError(f"cannot write output {path!r}: not a writable file path")


def _write(path: str | None, write, *args) -> None:
    """Call ``write(*args, fh)`` with the file at ``path`` open as ``fh``, or
    with stdout when ``path`` is None. After a failed write to the real stdout,
    fd 1 points at the null device, so that what the write left buffered
    cannot fail again when the interpreter flushes stdout at exit."""
    try:
        if path is None:
            write(*args, sys.stdout)
            sys.stdout.flush()
        else:
            with open(path, "w", encoding="utf-8") as fh:
                write(*args, fh)
    except OSError as exc:
        if path is None and sys.stdout is sys.__stdout__:
            null = os.open(os.devnull, os.O_WRONLY)
            os.dup2(null, sys.stdout.fileno())
            os.close(null)
        raise ConfigError(f"cannot write output {'to stdout' if path is None else path}: {exc}") from exc


@lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xsim",
        description="Two-qubit mixed-state preparation and dynamics experiments.",
    )
    parser.add_argument("experiment", choices=sorted(RUNNERS), help="experiment to run")
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--out", help="output file path (default: stdout)")
    parser.add_argument("--format", choices=("csv", "json"), help="output format")
    parser.add_argument("--seed", type=int, help="master sampling seed")
    parser.add_argument("--shots", type=int, help="shots per measurement setting")
    parser.add_argument("--exact", action="store_true", help="use exact outcome probabilities instead of sampling")
    parser.add_argument("--dump-circuit", action="store_true", help="write prepared circuits next to the output")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _load_config(args.config) if args.config else {}
        if "experiment" in cfg and cfg["experiment"] != args.experiment:
            raise ConfigError(
                f"config names experiment {cfg['experiment']!r} but {args.experiment!r} was requested"
            )
        raw_params = dict(cfg.get("params", {}))
        if args.seed is not None:
            raw_params["seed"] = args.seed
        if args.shots is not None:
            raw_params["shots"] = args.shots
        if args.exact:
            raw_params["exact"] = True

        output_cfg = cfg.get("output", {})
        out_path = args.out if args.out is not None else output_cfg.get("path")
        fmt = args.format if args.format is not None else output_cfg.get("format")
        if fmt is None:
            fmt = "json" if args.experiment == "xprep_single" else "csv"
        if fmt not in ("csv", "json"):
            raise ConfigError(f"unknown output format {fmt!r}")
        if args.experiment == "xprep_single" and fmt == "csv":
            raise ConfigError("xprep_single produces a JSON report; use --format json")
        if args.dump_circuit and out_path is None:
            raise ConfigError("--dump-circuit needs --out to name the sidecar file")
        if out_path is not None:
            _check_writable(out_path)
        if args.dump_circuit:
            _check_writable(out_path + ".circuit.json")

        params, result = run_experiment(args.experiment, raw_params)
        if fmt == "csv":
            print(
                "# " + json.dumps(provenance(args.experiment, params), sort_keys=True),
                file=sys.stderr,
            )
            _write(out_path, format_csv, result)
        else:
            _write(out_path, format_json, args.experiment, params, result)
        if args.dump_circuit:
            _write(out_path + ".circuit.json", format_circuit_dump, result)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ContractError as exc:
        print(f"contract violation: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
