"""Deterministic random-stream plumbing.

Sampling uses numpy's Philox generator, which is counter based: a stream is
fully determined by its two-word key. The split rules are fixed so that every
sampled artifact can be replayed byte for byte from (seed, structure):

* measurement settings draw from the Philox stream keyed by
  (seed, setting_index), where the setting index enumerates Pauli pairs
  row-major (XX=0, XY=1, ..., ZZ=8); readout bit-flips are folded into the
  setting's distribution and take no stream of their own,
* the samplers get these streams from ``keyed_stream``, which re-keys one
  shared Generator (checked against ``substream`` in ``tests/oracles.py``),
* sweep experiments give point i the seed of ``SeedSequence(master_seed,
  spawn_key=(i,))``, which ``block_seeds`` computes for a block of points
  at once (checked against ``derive_seed`` in ``tests/oracles.py``).

Counts are drawn by ``multinomial_counts``: numpy's own chain of binomial
draws, with each conditional probability snapped onto the nearby point where
numpy's binomial sampler changes branch (0, 1/2, 1 and a few points that
depend on the shot count) when it lies within ``SNAP_ATOL`` of one, so that
roundoff in the probabilities cannot change the counts.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError

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


# SeedSequence's uint32 hash constants (numpy/random/bit_generator.pyx);
# _POOLED_A is its hash constant after the 16 steps that make its pool.
_MULT_A, _INIT_B, _MULT_B = 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MASK32, _MIX_L, _MIX_R = 0xFFFFFFFF, 0xCA01F9DD, 0x4973F715
_POOLED_A = 0x43B0D7E5 * pow(_MULT_A, 16, 1 << 32) & _MASK32


def _hashmix(value, const: int, mult: int):
    """SeedSequence's hashmix of uint32 words: (hashed, next constant)."""
    value = value ^ const
    const = const * mult & _MASK32
    value = value * const & _MASK32
    return value ^ (value >> 16), const


def block_seeds(master: int, start: int, stop: int) -> list:
    """The 63-bit seeds of points start..stop-1 as Python ints: point i
    gets the first uint64 word of ``SeedSequence(master, spawn_key=(i,))``
    shifted right by one. Its pool before the word i is mixed in is the
    pool of ``SeedSequence(master)`` (padding the master with zero words
    changes nothing), so only the mixing of i runs per point, on an index
    array, for the two pool words the output reads. Defined for a master
    below 2^64 and indices below 2^32.
    """
    if not (0 <= master < 1 << 64 and 0 <= start <= stop <= 1 << 32):
        raise ContractError(f"block seeds need a master below 2^64 and indices below 2^32, got {master}, [{start}, {stop})")
    pool = np.random.SeedSequence(master).pool.tolist()
    index = np.arange(start, stop, dtype=np.uint32)
    seeds, const, out = np.zeros(stop - start, dtype=np.uint64), _POOLED_A, _INIT_B
    for dst in range(2):
        value, const = _hashmix(index, const, _MULT_A)
        mixed = ((_MIX_L * pool[dst] & _MASK32) - (_MIX_R * value & _MASK32)) & _MASK32
        word, out = _hashmix(mixed ^ (mixed >> 16), out, _MULT_B)
        seeds |= word.astype(np.uint64) << np.uint64(32 * dst)
    return (seeds >> np.uint64(1)).tolist()


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
    binomial = rng.binomial
    counts = [0] * len(probs)
    left = int(n)
    remaining = 1.0
    for j in range(len(probs) - 1):
        pj = float(probs[j])
        p = _snap(pj / remaining, left) if remaining > 0.0 else 1.0
        if p > 0.0:
            counts[j] = int(binomial(left, p))
            left -= counts[j]
        if left <= 0:
            break
        remaining -= pj
    if left > 0:
        counts[-1] = left
    return tuple(counts)
