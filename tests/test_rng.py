import numpy as np
import pytest

from oracles import substream
from xsim import experiments, tomography
from xsim.experiments import run_experiment
from xsim.rng import CHAIN_BELOW, SNAP_ATOL, _snap, block_counts, keyed_stream, multinomial_counts


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
    measure = tomography.measure_block

    def recording(rho, settings, shots, seeds, p_readout=0.0, exact=False):
        if not exact:
            probs = tomography.setting_probabilities(rho, settings, p_readout).tolist()
            draws.extend((p, tomography.setting_index(setting), seed) for seed, point in zip(seeds, probs)
                         for setting, p in zip(settings, point))
        return measure(rho, settings, shots, seeds, p_readout, exact)

    monkeypatch.setattr(experiments, "measure_block", recording)
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


@pytest.mark.filterwarnings("error")
def test_block_counts_draw_rows_numpy_rejects_through_the_chain():
    # numpy's multinomial raises on an entry outside [0, 1] or a first-three
    # sum above 1 + 1e-12; such rows are drawn by the chain alone, which
    # reads them as it always has, and raises what it raises on a NaN. No
    # row makes a floating-point warning, which would reach stderr: not one
    # whose mass runs out before its last outcome (p2 / r2 = inf). The
    # block is large enough for numpy's draws, and each row is also drawn
    # alone, by the chain.
    rows = np.array([[[0.5, 0.5 + 1e-11, 0.0, 0.0], [0.25, 0.25, 0.25, 0.25], [0.5, 0.5, 1e-18, 0.0]],
                     [[0.2, 0.2, 0.7, -0.1], [0.1, -1e-17, 0.4, 0.5], [1.0, 0.0, 0.0, 0.0]],
                     [[0.5, 0.5, 0.0, 0.0], [0.3, 0.3, 0.3 + 1e-16, 0.1], [0.0, 0.0, 0.0, 1.0]]])
    seeds, streams = (3, 2**64 - 1, 0), (4, 8, 2)
    assert rows[..., 0].size >= CHAIN_BELOW
    for shots in (1, 50, 8000):
        got = block_counts(rows, shots, seeds, streams)
        assert got.shape == rows.shape and got.dtype == np.int64
        for i, seed in enumerate(seeds):
            for k, stream in enumerate(streams):
                want = multinomial_counts(substream(seed, stream), shots, rows[i, k].tolist())
                assert tuple(got[i, k].tolist()) == want
                assert block_counts(rows[i:i + 1, k:k + 1], shots, seeds[i:i + 1], streams[k:k + 1])[0, 0].tolist() == list(want)
    rows[1, 0, 0] = np.nan
    with pytest.raises(ValueError, match="cannot convert float NaN to integer"):
        multinomial_counts(substream(2**64 - 1, 4), 50, rows[1, 0].tolist())
    for block, block_seeds, block_streams in ((rows, seeds, streams), (rows[1:2, :1], seeds[1:2], streams[:1])):
        with pytest.raises(ValueError, match="cannot convert float NaN to integer"):
            block_counts(block, 50, block_seeds, block_streams)
