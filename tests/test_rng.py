import numpy as np

from xsim.rng import multinomial_counts, substream


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
