import numpy as np

from oracles import substream
from xsim import tomography
from xsim.experiments import run_experiment
from xsim.rng import SNAP_ATOL, _snap, keyed_stream, multinomial_counts


def test_multinomial_counts_follow_numpy_draw_for_draw():
    src = np.random.default_rng(2)
    for case in range(1000):
        probs = src.dirichlet(np.ones(4))
        if case % 4 == 0:
            probs[src.integers(4)] = 0.0
            probs = probs / probs.sum()
        n = int(src.choice([1, 50, 8000, 10**6]))
        want = substream(case, 3).multinomial(n, probs)
        got = multinomial_counts(substream(case, 3), n, probs)
        assert got == tuple(int(c) for c in want)


def test_multinomial_counts_are_stable_under_roundoff():
    # conditional probabilities where numpy's binomial sampler branches:
    # on 1/2 and 1; n p = 30 at 120 shots (inversion vs BTPE); and (n+1) p
    # integral at 5954 shots, where BTPE's mode floor((n+1) p) jumps
    unstable = 0
    for shots, probs in ((8000, [0.5, 0.5, 0.0, 0.0]), (8000, [0.0, 0.5, 0.0, 0.5]),
                         (8000, [0.5, 0.25, 0.25, 0.0]), (8000, [1.0, 0.0, 0.0, 0.0]),
                         (120, [0.25, 0.25, 0.25, 0.25]), (5954, [0.25, 0.25, 0.25, 0.25])):
        base = multinomial_counts(substream(5, 1), shots, probs)
        assert sum(base) == shots
        for eps in (1e-16, -1e-16, 1e-14):
            nudged = np.clip(np.asarray(probs) + eps * np.array([1.0, -1.0, 1.0, -1.0]), 0.0, None)
            nudged = nudged / nudged.sum()
            assert multinomial_counts(substream(5, 1), shots, nudged) == base
            unstable += tuple(substream(5, 1).multinomial(shots, nudged)) != base
    assert unstable > 0  # numpy's multinomial alone moves on these inputs


def test_multinomial_counts_are_stable_under_roundoff_on_sweep_distributions(monkeypatch):
    # The distributions and seeds that the five default sweeps draw with, at
    # seeds 0 and 7 (neither depends on the shot count), drawn at each shot
    # count, each shifted three times by a random zero-sum offset of size
    # 2e-15: roundoff of the kind a refactor makes moves no count.
    draws = []
    sample = tomography.sample_setting

    def recording(probs, setting, shots, seed):
        draws.append((probs, tomography.setting_index(setting), seed))
        return sample(probs, setting, shots, seed)

    monkeypatch.setattr(tomography, "sample_setting", recording)
    for experiment in ("tetra_sweep", "heisenberg_conc", "field_conc", "heisenberg_fidelity", "field_fidelity"):
        for seed in (0, 7):
            run_experiment(experiment, {"shots": 50, "seed": seed})
    assert len(draws) == 2 * (165 * 3 + 64 * (3 + 5 + 9 + 9))
    offsets = np.random.default_rng(17).standard_normal((4, len(draws), 3, 4))
    offsets -= offsets.mean(axis=-1, keepdims=True)
    offsets *= 2e-15 / np.abs(offsets).max(axis=-1, keepdims=True)
    for shots, shifts in zip((50, 1000, 8000, 10**6), offsets):
        for (probs, stream, seed), shift in zip(draws, shifts):
            counts = multinomial_counts(keyed_stream(seed, stream), shots, probs)
            for shifted in (probs + shift).tolist():
                assert multinomial_counts(keyed_stream(seed, stream), shots, shifted) == counts


def _snap_reference(p, n):
    """The anchor loop that _snap must reproduce, kept as the reference."""
    k = round(p * (n + 1))
    for anchor in (0.0, 0.5, 1.0, 30.0 / n, 1.0 - 30.0 / n, k / (n + 1)):
        if abs(p - anchor) <= SNAP_ATOL:
            return anchor
    return min(max(p, 0.0), 1.0)


def test_snap_matches_reference_on_random_and_anchor_adjacent_inputs():
    src = np.random.default_rng(11)
    ns = src.choice([1, 2, 29, 30, 31, 50, 119, 120, 8000, 10**6, 10**7, 3 * 10**7, 10**9], size=120_000)
    ns = np.where(src.random(ns.size) < 0.3, src.integers(1, 10**9, size=ns.size), ns)
    kind = src.integers(0, 7, size=ns.size)
    offsets = src.choice([0.0, 1e-13, -1e-13, 9.9e-13, -9.9e-13, 1.01e-12, -1.01e-12, 1e-16], size=ns.size)
    for n, k, off, u in zip(ns.tolist(), kind.tolist(), offsets.tolist(), src.random(ns.size).tolist()):
        p = (u, 0.0, 0.5, 1.0, 30.0 / n, 1.0 - 30.0 / n, round(u * (n + 1)) / (n + 1))[k] + off
        assert _snap(p, n) == _snap_reference(p, n), (p, n)


def test_keyed_stream_draws_what_substream_draws():
    # numpy keeps its binomial set-up per Generator and reuses it when
    # (n, p) repeats; a re-keyed stream must still match a fresh one
    cases = [(8000, (0.3, 0.2, 0.4, 0.1)), (8000, (0.3, 0.2, 0.4, 0.1)), (50, (0.5, 0.5, 0.0, 0.0)),
             (8000, (0.3, 0.2, 0.4, 0.1)), (10**6, (0.25, 0.25, 0.25, 0.25)), (10**6, (0.25, 0.25, 0.25, 0.25))]
    for seed in (0, 7, 2**63 + 5):
        for stream, (n, probs) in enumerate(cases * 3):
            stream %= 18
            want = multinomial_counts(substream(seed, stream), n, probs)
            assert multinomial_counts(keyed_stream(seed, stream), n, probs) == want
            rng = keyed_stream(seed, stream)
            assert np.array_equal(rng.binomial(n, 0.37, size=3), substream(seed, stream).binomial(n, 0.37, size=3))
