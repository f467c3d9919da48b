"""Deterministic random-stream plumbing.

Sampling uses numpy's Philox generator, which is counter based: a stream is
fully determined by its two-word key. The split rule is fixed so that every
sampled artifact can be replayed byte for byte from (seed, structure):

* a measured block whose first point is point ``first`` of its run draws
  all its shots from the one Philox stream keyed by (seed, first), seed
  being the run's seed; a sweep's blocks are its consecutive runs of
  ``experiments._BLOCK`` (256) points and a one-state run is point 0, so a
  sampled row depends on the block it falls in; readout bit-flips are
  folded into each setting's distribution and take no stream of their own,
* ``block_counts`` gets that stream from ``keyed_stream``, which re-keys
  one shared Generator (checked against ``substream`` in ``tests/oracles.py``).

Counts are those of ``block_counts``: per row numpy's own multinomial chain
of binomial draws, one per outcome but the last, drawn step-major over the
block's rows, with each conditional probability snapped onto the nearby
point where numpy's binomial sampler changes branch (``_snap``: 0, 1/2, 1
and three points that depend on the shot count) when it lies within
``SNAP_ATOL`` of one, so that roundoff in the probabilities cannot change
the counts.
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


def _snap(p: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Each conditional p of n draws (arrays of one shape) moved onto the
    first of its anchors (the points above, in this order) within SNAP_ATOL,
    then clipped to [0, 1]. For large n, 30/n and k/(n+1) can both lie that
    near p. k is p (n+1) rounded half to even."""
    anchors = 0.0, 0.5, 1.0, 30.0 / n, 1.0 - 30.0 / n, np.rint(p * (n + 1)) / (n + 1)
    out = p.copy()
    for anchor in anchors[::-1]:
        np.copyto(out, anchor, where=np.abs(p - anchor) <= SNAP_ATOL)
    return np.minimum(np.maximum(out, 0.0), 1.0)


# From this many rows on, block_counts draws each step as one array call.
# On a 2-core Xeon VM with Python 3.11 and numpy 2.4, at 50 to 10^6 shots,
# the scalar loop takes 39-42, 74-79 and 109-117 us at 9, 18 and 27 rows
# and the array steps 95-102, 97-103 and 101-106 us: a one-point draw is
# 9 rows, a default sweep block 576 or more.
ARRAY_FROM = 27


def block_counts(rows: np.ndarray, shots: int, seed: int, stream: int) -> np.ndarray:
    """Counts (R, 4) of ``shots`` draws over each outcome distribution of
    ``rows`` (R, 4), all from the stream (seed, stream).

    Row r is numpy's multinomial chain: step j draws binomial(left_r,
    p_rj / (1 - p_r0 - ... - p_r(j-1))) of the shots left_r that earlier
    steps left, the conditional snapped by ``_snap`` (1 where no mass is
    left), and the last outcome takes the rest. The chain runs step-major:
    step j of every row, in row order, before step j + 1 of any. A step
    with no shots left or a zero conditional consumes nothing, as in
    numpy. From ``ARRAY_FROM`` rows on, each step is one array call to
    numpy's binomial; below, a scalar loop makes the same calls one by one.
    O(1) per row in ``shots``.
    """
    if shots < 0:
        raise ContractError(f"cannot draw {shots} shots")
    binomial = keyed_stream(seed, stream).binomial
    if len(rows) < ARRAY_FROM:
        # The same calls one draw at a time, with _snap written out for one
        # float: a function call per draw makes a one-point draw a sixth slower.
        atol, rows = SNAP_ATOL, rows.tolist()
        counts = [[0, 0, 0, shots] for _ in rows]
        remaining = [1.0] * len(rows)
        for j in range(3):
            for i, row in enumerate(rows):
                count = counts[i]
                left = count[3]
                if left > 0:
                    p = row[j] / remaining[i] if remaining[i] > 0.0 else 1.0
                    c, grid = 30.0 / left, round(p * (left + 1)) / (left + 1)
                    if -atol <= p <= atol:
                        p = 0.0
                    elif -atol <= p - 0.5 <= atol:
                        p = 0.5
                    elif -atol <= p - 1.0 <= atol:
                        p = 1.0
                    elif -atol <= p - c <= atol:
                        p = c
                    elif -atol <= p - (1.0 - c) <= atol:
                        p = 1.0 - c
                    elif -atol <= p - grid <= atol:
                        p = grid
                    if not 0.0 <= p <= 1.0:
                        p = 0.0 if p < 0.0 else 1.0
                    if p > 0.0:
                        count[j] = drawn = int(binomial(left, p))
                        count[3] = left - drawn
                remaining[i] -= row[j]
        return np.array(counts, dtype=np.int64).reshape(-1, 4)
    counts = np.empty(rows.shape, dtype=np.int64)
    left = np.full(len(rows), shots, dtype=np.int64)
    remaining = np.ones(len(rows))
    with np.errstate(divide="ignore", invalid="ignore"):
        for j in range(3):
            p = np.where(remaining > 0.0, _snap(rows[:, j] / remaining, left), 1.0)
            counts[:, j] = binomial(left, p)
            left -= counts[:, j]
            remaining -= rows[:, j]
    counts[:, 3] = left
    return counts
