"""Outside-in tracing of xsim: wrap public functions, record spans, derive layer metrics.

The wrappers live in the benchmark, not in the program: ``install`` replaces
each listed function in every ``xsim`` module namespace that bound it (for
example ``herm_eig`` is imported by name into ``tomography`` and ``xstate``),
and ``uninstall`` puts the originals back. A function that a later version
of the program no longer has is reported as absent instead of failing.

The program is single-threaded, so spans nest strictly and no span ever
waits on another: the layer metrics have busy time and counts but no wait
time.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time

import numpy as np

# Layer name -> public functions wrapped in that module.
WRAPPED = {
    "cli": ("main",),
    "experiments": ("run_experiment", "resolve_params", "format_csv", "format_json", "format_circuit_dump"),
    "circuits": ("build_xstate_circuit", "build_complex_xstate_circuit", "run_density", "gate_matrix"),
    "noise": ("run_noisy", "apply_channel", "readout_flip"),
    "tomography": (
        "sample_setting",
        "exact_record",
        "outcome_probabilities",
        "robustness_report",
        "reconstruct_full",
        "reconstruct_x5",
        "reconstruct_x3",
        "psd_project",
    ),
    "linalg": ("partial_trace", "herm_eig", "fidelity"),
    "xstate": ("concurrence_wootters_oracle", "concurrence_x", "from_spectral", "canonicalize_spectral", "strip_phases"),
    "heisenberg": ("evolve_diagonal",),
    "rng": ("substream", "derive_seed"),
}

# Counts computed from call arguments, so they do not depend on how the
# program does the work. They must repeat exactly between passes.
COUNTERS = (
    "noise.gates_applied",
    "noise.channel_applications",
    "tomography.settings_measured",
    "tomography.shots_drawn",
    "tomography.psd_calls_sampled",
    "tomography.psd_calls_exact",
    "tomography.psd_repairs_sampled",
    "tomography.psd_repairs_exact",
)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _probe_run_noisy(counts, ctx, args, kwargs, result):
    circuit, nm = _arg(args, kwargs, 0, "c"), _arg(args, kwargs, 2, "nm")
    counts["noise.gates_applied"] += len(circuit.gates)
    for g in circuit.gates:
        touched = 1 if g.control is None else 2
        depol = nm.p_depol_2q if touched == 2 else nm.p_depol_1q
        channels = (depol > 0.0) + (nm.gamma_ad > 0.0) + (nm.gamma_pd > 0.0)
        counts["noise.channel_applications"] += touched * channels


def _probe_sample_setting(counts, ctx, args, kwargs, result):
    counts["tomography.settings_measured"] += 1
    counts["tomography.shots_drawn"] += int(_arg(args, kwargs, 2, "shots"))


def _probe_exact_record(counts, ctx, args, kwargs, result):
    counts["tomography.settings_measured"] += 1


def _probe_psd_project(counts, ctx, args, kwargs, result):
    given = np.asarray(_arg(args, kwargs, 0, "rho_hat"), dtype=complex)
    counts[f"tomography.psd_calls_{ctx}"] += 1
    if not np.array_equal(given, result):
        counts[f"tomography.psd_repairs_{ctx}"] += 1


PROBES = {
    "noise.run_noisy": _probe_run_noisy,
    "tomography.sample_setting": _probe_sample_setting,
    "tomography.exact_record": _probe_exact_record,
    "tomography.psd_project": _probe_psd_project,
}


class Tracer:
    """Keeps spans in memory as (id, parent, root, name, start, end, ok) tuples.

    ``context`` is set by the caller to "sampled" or "exact" before each CLI
    call, so that PSD repairs can be split by measurement mode.
    """

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.context = "sampled"

    def wrap(self, name, fn):
        probe = PROBES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(self.spans)
            parent = self.stack[-1] if self.stack else -1
            root = self.stack[0] if self.stack else sid
            self.spans.append((sid, parent, root, name, 0.0, 0.0, True))
            self.stack.append(sid)
            ok = False
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = time.perf_counter()
                self.stack.pop()
                self.spans[sid] = (sid, parent, root, name, start, end, ok)
            if probe is not None:
                probe(self.counts, self.context, args, kwargs, result)
            return result

        return traced

    def write_jsonl(self, path):
        epoch = self.spans[0][4] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, root, name, start, end, ok in self.spans:
                fh.write(json.dumps({
                    "id": sid, "parent": parent, "root": root, "name": name,
                    "start_s": start - epoch, "end_s": end - epoch, "ok": ok,
                }) + "\n")


def install(tracer, package="xsim"):
    """Wrap every listed function wherever an ``xsim`` module bound it.

    Returns (patches, absent): the patches to hand to ``uninstall`` and the
    "<layer>.<function>" names that the program does not define.
    """
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == package or n.startswith(package + "."))]
    patches, absent = [], []
    for layer, names in WRAPPED.items():
        home = sys.modules.get(f"{package}.{layer}")
        for fname in names:
            qual = f"{layer}.{fname}"
            original = getattr(home, fname, None)
            if not callable(original):
                absent.append(qual)
                continue
            wrapper = tracer.wrap(qual, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        patches.append((module, attr, original))
    return patches, absent


def uninstall(patches):
    for module, attr, original in reversed(patches):
        setattr(module, attr, original)


def covered(interval, children):
    """Length of the part of ``interval`` covered by the union of ``children``."""
    lo, hi = interval
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in children if min(b, hi) > max(a, lo))
    total, cur_a, cur_b = 0.0, None, None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans):
    """Span id -> duration minus the time its child spans cover."""
    children = {}
    for sid, parent, _root, _name, start, end, _ok in spans:
        children.setdefault(parent, []).append((start, end))
    return {
        sid: (end - start) - covered((start, end), children.get(sid, ()))
        for sid, _parent, _root, _name, start, end, _ok in spans
    }


def percentile(values, q):
    """Linear-interpolation percentile (numpy's default method), q in [0, 100]."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no values")
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def layer_metrics(tracer, absent):
    """Per-function, per-layer and computed metrics of one traced pass.

    Values are plain numbers; ``run.py`` attaches units from BENCHMARK.json.
    """
    selfs = self_times(tracer.spans)
    calls, self_s, inclusive, errors = {}, {}, {}, {}
    for sid, parent, _root, name, start, end, ok in tracer.spans:
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + selfs[sid]
        inclusive[name] = inclusive.get(name, 0.0) + (end - start)
        if not ok:
            errors[name] = errors.get(name, 0) + 1
    total = sum(end - start for _s, parent, _r, _n, start, end, _o in tracer.spans if parent == -1)

    out = {}
    for layer, names in WRAPPED.items():
        layer_self = 0.0
        layer_errors = 0
        for fname in names:
            qual = f"{layer}.{fname}"
            out[f"{qual}.calls"] = calls.get(qual, 0)
            out[f"{qual}.self_s"] = self_s.get(qual, 0.0)
            layer_self += self_s.get(qual, 0.0)
            layer_errors += errors.get(qual, 0)
        out[f"{layer}.self_s"] = layer_self
        out[f"{layer}.share"] = layer_self / total if total > 0 else 0.0
        out[f"{layer}.errors"] = layer_errors

    c = tracer.counts
    out["noise.gates_applied"] = c["noise.gates_applied"]
    out["noise.channel_applications"] = c["noise.channel_applications"]
    out["noise.us_per_gate"] = _ratio(inclusive.get("noise.run_noisy", 0.0) * 1e6, c["noise.gates_applied"])
    out["tomography.settings_measured"] = c["tomography.settings_measured"]
    out["tomography.shots_drawn"] = c["tomography.shots_drawn"]
    out["tomography.ns_per_shot"] = _ratio(inclusive.get("tomography.sample_setting", 0.0) * 1e9,
                                           c["tomography.shots_drawn"])
    repairs_s, repairs_e = c["tomography.psd_repairs_sampled"], c["tomography.psd_repairs_exact"]
    calls_s, calls_e = c["tomography.psd_calls_sampled"], c["tomography.psd_calls_exact"]
    out["tomography.psd_repairs"] = repairs_s + repairs_e
    out["tomography.psd_repair_ratio"] = _ratio(repairs_s + repairs_e, calls_s + calls_e)
    out["tomography.psd_repair_ratio_sampled"] = _ratio(repairs_s, calls_s)
    out["tomography.psd_repair_ratio_exact"] = _ratio(repairs_e, calls_e)
    out["trace.spans"] = len(tracer.spans)
    out["trace.absent_functions"] = len(absent)
    return out


def exact_counts(tracer, metrics):
    """The values that must repeat exactly between two passes of one seed."""
    keys = [k for k in metrics if k.endswith(".calls") or k.endswith(".errors")]
    snapshot = {k: metrics[k] for k in keys}
    snapshot.update(tracer.counts)
    return snapshot


def _ratio(num, den):
    return num / den if den else 0.0
