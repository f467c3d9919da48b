import numpy as np
import pytest

from oracles import block_counts_reference, snap_reference, substream
from xsim import rng, tomography
from xsim.errors import ContractError
from xsim.experiments import run_experiment
from xsim.rng import ARRAY_FROM, _snap, block_counts, keyed_stream


def _both_routes(rows, shots, seed, stream, monkeypatch) -> tuple:
    """``block_counts`` of ``rows`` through the scalar loop and through the
    array steps, each as nested lists."""
    out = []
    for threshold in (len(rows) + 1, 0):
        monkeypatch.setattr(rng, "ARRAY_FROM", threshold)
        out.append(block_counts(np.asarray(rows, dtype=float), shots, seed, stream).tolist())
    return tuple(out)


def test_a_one_row_block_follows_numpy_multinomial_draw_for_draw():
    # One row has one step per outcome in numpy's order: away from the snap
    # anchors, its counts are numpy's multinomial on the same stream.
    src = np.random.default_rng(2)
    for case in range(1000):
        probs = src.dirichlet(np.ones(4))
        if case % 4 == 0:
            probs[src.integers(4)] = 0.0
            probs = probs / probs.sum()
        n = int(src.choice([1, 50, 8000, 10**6]))
        want = substream(case, 3).multinomial(n, probs)
        assert block_counts(probs[None], n, case, 3).tolist() == [want.tolist()]


def test_block_counts_draw_nothing_from_zero_shots_and_reject_negative_ones(monkeypatch):
    rows = [[0.25, 0.25, 0.25, 0.25], [0.5, 0.5, 0.0, 0.0], [0.1, 0.2, 0.3, 0.4]]
    for got in _both_routes(rows, 0, 4, 2, monkeypatch):
        assert got == [[0, 0, 0, 0]] * 3
    with pytest.raises(ContractError):
        block_counts(np.array(rows), -1, 4, 2)


def test_block_counts_are_stable_under_roundoff():
    # conditional probabilities where numpy's binomial sampler branches:
    # on 1/2 and 1; n p = 30 at 120 shots (inversion vs BTPE); and (n+1) p
    # integral at 5954 shots, where BTPE's mode floor((n+1) p) jumps
    unstable = 0
    for shots, probs in ((8000, [0.5, 0.5, 0.0, 0.0]), (8000, [0.0, 0.5, 0.0, 0.5]),
                         (8000, [0.5, 0.25, 0.25, 0.0]), (8000, [1.0, 0.0, 0.0, 0.0]),
                         (120, [0.25, 0.25, 0.25, 0.25]), (5954, [0.25, 0.25, 0.25, 0.25])):
        base = block_counts(np.array([probs]), shots, 5, 1)
        assert base.sum() == shots
        for eps in (1e-16, -1e-16, 1e-14):
            nudged = np.clip(np.asarray(probs) + eps * np.array([1.0, -1.0, 1.0, -1.0]), 0.0, None)
            nudged = nudged / nudged.sum()
            assert (block_counts(nudged[None], shots, 5, 1) == base).all()
            unstable += tuple(substream(5, 1).multinomial(shots, nudged)) != tuple(base[0])
    assert unstable > 0  # numpy's multinomial alone moves on these inputs


def test_block_counts_are_stable_under_roundoff_on_sweep_blocks(monkeypatch):
    # The blocks that the five default sweeps draw, at seeds 0 and 7 (they do
    # not depend on the shot count), drawn at each shot count with every row
    # shifted three times by a random zero-sum offset of size 2e-15. One
    # changed draw would shift every later draw of its block, so no count in
    # the block may change: roundoff of the kind a refactor makes moves none.
    blocks, draw = [], tomography.block_counts

    def recording(rows, shots, seed, stream):
        blocks.append((rows.copy(), seed, stream))
        return draw(rows, shots, seed, stream)

    monkeypatch.setattr(tomography, "block_counts", recording)
    for experiment in ("tetra_sweep", "heisenberg_conc", "field_conc", "heisenberg_fidelity", "field_fidelity"):
        for seed in (0, 7):
            run_experiment(experiment, {"shots": 50, "seed": seed})
    assert [len(rows) for rows, _, _ in blocks] == [9 * n for n in (165, 64, 64, 64, 64) for _ in range(2)]
    src = np.random.default_rng(17)
    for rows, seed, stream in blocks:
        for shots in (50, 1000, 8000, 10**6):
            counts = draw(rows, shots, seed, stream)
            for _ in range(3):
                offsets = src.standard_normal(rows.shape)
                offsets -= offsets.mean(axis=-1, keepdims=True)
                offsets *= 2e-15 / np.abs(offsets).max(axis=-1, keepdims=True)
                assert (draw(rows + offsets, shots, seed, stream) == counts).all()


def test_array_snap_equals_the_reference_on_random_and_anchor_adjacent_inputs():
    src = np.random.default_rng(11)
    ns = src.choice([1, 2, 29, 30, 31, 50, 119, 120, 8000, 10**6, 10**7, 3 * 10**7, 10**9], size=120_000)
    ns = np.where(src.random(ns.size) < 0.3, src.integers(1, 10**9, size=ns.size), ns)
    kind = src.integers(0, 7, size=ns.size)
    offsets = src.choice([0.0, 1e-13, -1e-13, 9.9e-13, -9.9e-13, 1.01e-12, -1.01e-12, 1e-16], size=ns.size)
    ps = np.array([(u, 0.0, 0.5, 1.0, 30.0 / n, 1.0 - 30.0 / n, round(u * (n + 1)) / (n + 1))[k] + off
                   for n, k, off, u in zip(ns.tolist(), kind.tolist(), offsets.tolist(), src.random(ns.size).tolist())])
    want = np.array([snap_reference(p, n) for p, n in zip(ps.tolist(), ns.tolist())])
    assert _snap(ps, ns).tobytes() == want.tobytes()
    assert (want != ps).sum() == 69_551  # dense in the anchors: most inputs move


def test_keyed_stream_draws_what_substream_draws():
    # numpy keeps its binomial set-up per Generator and reuses it when
    # (n, p) repeats; a re-keyed stream must still match a fresh one
    cases = [(8000, (0.3, 0.2, 0.4, 0.1)), (8000, (0.3, 0.2, 0.4, 0.1)), (50, (0.5, 0.5, 0.0, 0.0)),
             (8000, (0.3, 0.2, 0.4, 0.1)), (10**6, (0.25, 0.25, 0.25, 0.25)), (10**6, (0.25, 0.25, 0.25, 0.25))]
    for seed in (0, 7, 2**63 + 5):
        for stream, (n, probs) in enumerate(cases * 3):
            stream %= 18
            rows = [probs] * (1 + stream % 3)
            want = block_counts_reference(rows, n, seed, stream)
            assert block_counts(np.array(rows), n, seed, stream).tolist() == want
            got = keyed_stream(seed, stream).binomial(n, 0.37, size=3)
            assert np.array_equal(got, substream(seed, stream).binomial(n, 0.37, size=3))


@pytest.mark.filterwarnings("error")
def test_both_routes_draw_odd_rows_as_the_reference_does(monkeypatch):
    # Rows outside the simplex, with entries below 0 or a sum above 1,
    # conditionals a snap moves, and mass that runs out before the last
    # outcome: both routes draw them as the reference reads them, without a
    # floating-point warning, which would reach stderr. A NaN raises a
    # ValueError on either route.
    rows = [[0.5, 0.5 + 1e-11, 0.0, 0.0], [0.25, 0.25, 0.25, 0.25], [0.5, 0.5, 1e-18, 0.0],
            [0.2, 0.2, 0.7, -0.1], [0.1, -1e-17, 0.4, 0.5], [1.0, 0.0, 0.0, 0.0],
            [0.5, 0.5, 0.0, 0.0], [0.3, 0.3, 0.3 + 1e-16, 0.1], [0.0, 0.0, 0.0, 1.0]]
    for seed, stream in ((3, 4), (2**64 - 1, 2**40)):
        for shots in (1, 50, 8000):
            want = block_counts_reference(rows, shots, seed, stream)
            assert _both_routes(rows, shots, seed, stream, monkeypatch) == (want, want)
    rows[3][0] = np.nan
    for threshold in (len(rows) + 1, 0):
        monkeypatch.setattr(rng, "ARRAY_FROM", threshold)
        with pytest.raises(ValueError):
            block_counts(np.array(rows), 50, 2**64 - 1, 13)


def test_scalar_and_array_routes_give_the_same_counts(monkeypatch):
    # Around the threshold and at a full block of 256 points in nine
    # settings, on rows dense in the snap anchors: weights k/8, exact zeros
    # and uniform rows off by 1e-16, mixed with random ones.
    src = np.random.default_rng(23)
    eighths = np.array([[a, b, c, 8 - a - b - c] for a in range(9) for b in range(9 - a) for c in range(9 - a - b)])
    pool = np.concatenate([eighths / 8.0, 0.25 + src.choice([-1e-16, 0.0, 1e-16], size=(40, 4)),
                           src.dirichlet(np.ones(4), size=200)])
    for size in (ARRAY_FROM - 1, ARRAY_FROM, 2304):
        rows = pool[src.integers(len(pool), size=size)]
        for shots in (1, 50, 8000, 10**6):
            scalar, array = _both_routes(rows, shots, 9, size, monkeypatch)
            assert scalar == array
        assert block_counts(rows, 8000, 9, size).tolist() == block_counts_reference(rows.tolist(), 8000, 9, size)
