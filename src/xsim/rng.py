"""Deterministic random-stream plumbing.

Sampling uses numpy's Philox generator, which is counter based: a stream is
fully determined by its two-word key. The split rules are fixed so that every
sampled artifact can be replayed byte for byte from (seed, structure):

* setting s of point i draws from the Philox stream keyed by
  (seed, 9 i + s), seed being the run's seed and s the setting index, which
  enumerates Pauli pairs row-major (XX=0, XY=1, ..., ZZ=8); a one-state run
  is point 0; readout bit-flips are folded into the setting's distribution
  and take no stream of their own,
* the samplers get these streams from ``keyed_stream``, which re-keys one
  shared Generator (checked against ``substream`` in ``tests/oracles.py``).

Counts are those of ``multinomial_counts``: numpy's own chain of binomial
draws, with each conditional probability snapped onto the nearby point where
numpy's binomial sampler changes branch (``_anchors``: 0, 1/2, 1 and three
points that depend on the shot count) when it lies within ``SNAP_ATOL`` of
one, so that roundoff in the probabilities cannot change the counts.
``block_counts`` draws a block of them with numpy's C-level multinomial, the
same chain without the snaps, and redraws through ``multinomial_counts``
only the draws that one array pass over the same anchors finds a snap could
have moved; a block of fewer than ``CHAIN_BELOW`` draws goes through
``multinomial_counts`` alone.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError

# The one bit generator that keyed_stream re-keys and the one Generator over
# it, made on first use: a run that draws nothing never imports numpy.random.
# The state setter copies the values out of _STATE (lists set faster than
# arrays), so a re-key only rewrites _KEY. The Generator's only own state is
# its binomial set-up, a function of (n, p) that it redoes when either changes.
_philox = _generator = None
_KEY = [0, 0]
_STATE = {"bit_generator": "Philox", "state": {"counter": [0] * 4, "key": _KEY},
          "buffer": [0] * 4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}


def keyed_stream(seed: int, stream: int) -> np.random.Generator:
    """The shared Generator, its Philox reset to counter 0 under the key
    (seed, stream): it draws exactly what a fresh
    ``Generator(Philox(key=(seed, stream)))`` draws, until the next call
    re-keys it. Keep no reference to it; not safe to share between threads.
    """
    global _philox, _generator
    if _generator is None:
        _philox = np.random.Philox(0)
        _generator = np.random.Generator(_philox)
    _KEY[:] = int(seed) & 0xFFFFFFFFFFFFFFFF, int(stream)
    _philox.state = _STATE
    return _generator


# numpy's binomial sampler for n draws is discontinuous in p at a few known
# points: at p = 0 it consumes no draw; above 1/2 it draws the complement;
# it switches between inversion and BTPE where n min(p, 1-p) = 30; and BTPE
# starts from the mode floor((n+1) min(p, 1-p)), which jumps where (n+1) p
# is an integer. Symmetric states and rational weights put conditional
# probabilities exactly on such points, where a 1e-16 change of the state
# would otherwise change the counts. Within SNAP_ATOL of one of them, p is
# moved onto it. The constant is far above roundoff and far below any
# probability a shot count can resolve.
SNAP_ATOL = 1e-12


def _anchors(p, n) -> tuple:
    """The snap anchors of a conditional p of n draws (the points above), in
    ``_snap``'s order, for floats (``round``) or arrays of one shape
    (``np.rint``); both round half to even."""
    k = round(p * (n + 1)) if isinstance(p, float) else np.rint(p * (n + 1))
    return 0.0, 0.5, 1.0, 30.0 / n, 1.0 - 30.0 / n, k / (n + 1)


def _snap(p: float, n: int) -> float:
    # The first anchor within SNAP_ATOL wins: for large n, 30/n and
    # k/(n+1) can both lie that near p.
    for anchor in _anchors(p, n):
        if abs(p - anchor) <= SNAP_ATOL:
            return anchor
    return min(max(p, 0.0), 1.0)


def _may_snap(p: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Where ``_snap`` could move p of n draws (arrays): p outside [0, 1], or
    off an anchor by at most SNAP_ATOL, any anchor, not only the one it picks."""
    with np.errstate(all="ignore"):
        off = np.abs([p - anchor for anchor in _anchors(p, n)])
    return ((off > 0.0) & (off <= SNAP_ATOL)).any(axis=0) | (p < 0.0) | (p > 1.0)


def multinomial_counts(rng: np.random.Generator, n: int, probs) -> tuple:
    """Counts of n draws over the outcome probabilities ``probs``.

    The same chain as ``Generator.multinomial``, one binomial per outcome but
    the last, consuming the generator in the same order; only the snapped
    conditional probabilities differ. O(1) in n; n = 0 draws nothing.
    """
    if n < 0:
        raise ContractError(f"cannot draw {n} shots")
    binomial = rng.binomial
    counts = [0] * len(probs)
    left = int(n)
    remaining = 1.0
    for j in range(len(probs) - 1):
        if left <= 0:
            break
        pj = float(probs[j])
        p = _snap(pj / remaining, left) if remaining > 0.0 else 1.0
        if p > 0.0:
            counts[j] = int(binomial(left, p))
            left -= counts[j]
        remaining -= pj
    if left > 0:
        counts[-1] = left
    return tuple(counts)


# Below this many draws the chain draws every row: on a 2-core Xeon with
# numpy 2.4 at 8,000 shots, 3, 5 and 9 draws take about 50, 83 and 150 us
# through it and 131, 143 and 165 us through numpy's draws and the array
# passes. A one-point call draws 3, 5 or 9; a default sweep block, 192-576.
CHAIN_BELOW = 9


def _numpy_draws(rows: np.ndarray, shots: int, seed: int, streams: list) -> tuple:
    """numpy's multinomial draws of ``rows`` (N, 4), row n on the stream
    (seed, streams[n]), and the indices that ``multinomial_counts`` must
    draw again: the draws a snap could have moved and the rows numpy
    rejects."""
    # the mass r_j left before each step, step-major (3, N), in numpy's order
    remaining = np.array([np.ones(len(rows)), 1.0 - rows[:, 0], 1.0 - rows[:, 0] - rows[:, 1]])
    # numpy gets the last step snapped where p2 / r2 is near 0, 1/2 or 1: p2
    # becomes s r2, which numpy divides back to s exactly, s being 0 or a
    # power of two. No step after the last reads p2.
    lean, rest = rows.copy(), remaining[2]
    with np.errstate(all="ignore"):
        last = rows[:, 2] / rest
        for anchor in _anchors(last, shots)[:3]:
            np.copyto(lean[:, 2], anchor * rest, where=np.abs(last - anchor) <= SNAP_ATOL)
        p = lean[:, :3].T / remaining
    drawn, rejected = [], []
    for stream, row in zip(streams, lean):
        try:
            drawn.append(keyed_stream(seed, stream).multinomial(shots, row))
        except ValueError:  # a row numpy rejects, such as one with a NaN
            rejected.append(len(drawn))
            drawn.append(np.zeros(4, dtype=np.int64))
    counts = np.array(drawn, dtype=np.int64).reshape(-1, 4)
    # A draw is redrawn if a drawn step j (shots left) has r_j <= 0 or a
    # conditional p_j / r_j, as numpy divides it, that a snap could move.
    left = np.full((3, len(rows)), shots, dtype=np.int64)
    left[1:] -= np.cumsum(counts[:, :2], axis=1).T
    moved = (_may_snap(p, left) | (remaining <= 0.0)) & (left > 0)
    return counts, sorted(set(np.flatnonzero(moved.any(axis=0)).tolist() + rejected))


def block_counts(probs: np.ndarray, shots: int, seed: int, streams: np.ndarray) -> np.ndarray:
    """Counts (P, S, 4) of ``shots`` draws over each outcome distribution of
    ``probs`` (P, S, 4): [i, k] is ``multinomial_counts(keyed_stream(seed,
    streams[i, k]), shots, probs[i, k])``, bit for bit, with ``streams`` a
    (P, S) array of stream numbers.

    From ``CHAIN_BELOW`` draws on, every draw is first made by numpy's own
    multinomial, the same binomial chain on the same stream without the
    snaps; one pass over the block then finds the draws that a snap could
    have moved, and only those are drawn again through
    ``multinomial_counts``.
    """
    rows, streams = probs.reshape(-1, 4), np.ravel(streams).tolist()
    if len(rows) < CHAIN_BELOW:
        counts, redraw = np.zeros(rows.shape, dtype=np.int64), range(len(rows))
    else:
        counts, redraw = _numpy_draws(rows, shots, seed, streams)
    for i in redraw:
        counts[i] = multinomial_counts(keyed_stream(seed, streams[i]), shots, rows[i].tolist())
    return counts.reshape(probs.shape)
