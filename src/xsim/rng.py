"""Deterministic random-stream plumbing.

Sampling uses numpy's Philox generator, which is counter based: a stream is
fully determined by its two-word key. The split rules are fixed so that every
sampled artifact can be replayed byte for byte from (seed, structure):

* measurement settings draw from the Philox stream keyed by
  (seed, setting_index), where the setting index enumerates Pauli pairs
  row-major (XX=0, XY=1, ..., ZZ=8); readout bit-flips are folded into the
  setting's distribution and take no stream of their own,
* the samplers get these streams from ``keyed_stream``, which re-keys one bit
  generator instead of building one per stream; the tests check it against
  a freshly built generator per key (``substream`` in ``tests/oracles.py``),
* sweep experiments derive one seed per grid/time point with
  ``derive_seed(master_seed, point_index)`` (a SeedSequence spawn).

Counts are drawn by ``multinomial_counts``: numpy's own chain of binomial
draws, with each conditional probability snapped onto the nearby point where
numpy's binomial sampler changes branch (0, 1/2, 1 and a few points that
depend on the shot count) when it lies within ``SNAP_ATOL`` of one, so that
roundoff in the probabilities cannot change the counts.
"""

from __future__ import annotations

import numpy as np

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


def _key(seed: int, stream: int) -> np.ndarray:
    return np.array([int(seed) & 0xFFFFFFFFFFFFFFFF, int(stream)], dtype=np.uint64)


# The one bit generator that keyed_stream re-keys, made on first use:
# building a Philox runs a SeedSequence, about four times the cost of
# re-keying one. Setting its state copies the arrays, so one zero block
# serves every reset.
_philox = None
_ZEROS = np.zeros(4, dtype=np.uint64)


def keyed_stream(seed: int, stream: int) -> np.random.Generator:
    """A generator that draws exactly what a fresh
    ``Generator(Philox(key=(seed, stream)))`` draws.

    It wraps one shared Philox bit generator, reset to counter 0 under the
    key (seed, stream), so the next call re-keys it: draw from the result
    only inside the call that made it, and keep no reference to it. Not
    safe to share between threads.
    """
    global _philox
    if _philox is None:
        _philox = np.random.Philox(0)
    _philox.state = {
        "bit_generator": "Philox",
        "state": {"counter": _ZEROS, "key": _key(seed, stream)},
        "buffer": _ZEROS,
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return np.random.Generator(_philox)


def derive_seed(master: int, *path: int) -> int:
    """Collapse (master, path...) into a fresh 63-bit seed, reproducibly."""
    ss = np.random.SeedSequence(entropy=int(master), spawn_key=tuple(int(p) for p in path))
    return int(ss.generate_state(1, dtype=np.uint64)[0] >> np.uint64(1))


def _snap(p: float, n: int) -> float:
    # Anchors are tried in a fixed order, the first match wins: for large n,
    # 30/n and k/(n+1) can both lie within SNAP_ATOL of p.
    if abs(p) <= SNAP_ATOL:
        return 0.0
    if abs(p - 0.5) <= SNAP_ATOL:
        return 0.5
    if abs(p - 1.0) <= SNAP_ATOL:
        return 1.0
    anchor = 30.0 / n
    if abs(p - anchor) <= SNAP_ATOL:
        return anchor
    if abs(p - (1.0 - anchor)) <= SNAP_ATOL:
        return 1.0 - anchor
    anchor = round(p * (n + 1)) / (n + 1)
    if abs(p - anchor) <= SNAP_ATOL:
        return anchor
    return min(max(p, 0.0), 1.0)


def multinomial_counts(rng: np.random.Generator, n: int, probs) -> tuple:
    """Counts of n draws over the outcome probabilities ``probs``.

    The same chain as ``Generator.multinomial``, one binomial per outcome but
    the last, consuming the generator in the same order; only the snapped
    conditional probabilities differ. O(1) in n.
    """
    counts = [0] * len(probs)
    left = int(n)
    remaining = 1.0
    for j in range(len(probs) - 1):
        p = _snap(float(probs[j]) / remaining, left) if remaining > 0.0 else 1.0
        if p > 0.0:
            counts[j] = int(rng.binomial(left, p))
            left -= counts[j]
        if left <= 0:
            break
        remaining -= float(probs[j])
    if left > 0:
        counts[-1] = left
    return tuple(counts)
