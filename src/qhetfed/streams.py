"""Derivation of independent, reproducible random streams from one master seed.

Every random draw in the simulator comes from a generator keyed by
``(master_seed, purpose, indices...)``.  Keying draws by *what they are for*
rather than by call order lets algorithm variants share batch sequences and
quantizer noise draw-for-draw, which is what makes the trajectory-equivalence
tests possible.

Draw contract: ``stream(seed, *label)`` is numpy's own
``default_rng(SeedSequence(entropy))`` with ``entropy = (seed, *encoded_label)``:
integer parts are kept as they are and each string part becomes the first 8
bytes of its sha256 digest, read as a little-endian integer.  The seed and
the non-string parts must be non-negative integers (Python or numpy); a
float is a ``TypeError``, never truncated.  ``_entropy_words`` hands numpy
that entropy as its 32-bit words, with the words of string parts cached.

Bulk path: ``seed_states(seed, purpose, *index)`` runs numpy's pool hash
(``mix_entropy``) and ``generate_state(4, np.uint64)`` once over integer
index arrays that broadcast like numpy operands.  ``stream(seed, purpose,
*key, state=...)`` builds its PCG64 from such a state, used as given
(neither re-hashed nor checked against the label): one ``stream`` call per
key, with the same draws as the per-key path.  Such a generator cannot
``spawn``; nothing in qhetfed spawns.
"""

from __future__ import annotations

import hashlib
import math
from functools import lru_cache
from operator import index as _index

import numpy as np
from numpy.random.bit_generator import ISeedSequence

_MASK32 = 0xFFFFFFFF

# numpy's SeedSequence hashes word by word as
#   v = (word ^ H_i) * H_{i+1};  v ^= v >> 16   (mod 2**32)
# with H_{i+1} = H_i * MULT, from INIT_A when it mixes the entropy into its
# 4-word pool and from INIT_B when generate_state reads the pool out.  The
# constants depend only on the hash's position, never on the words.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


def _hash_constants(init: int, mult: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(xor, multiplier) columns of the first ``n`` hashes: H_i and H_{i+1}."""
    h = [init]
    for _ in range(n):
        h.append(h[-1] * mult & _MASK32)
    col = np.array(h, dtype=np.uint32)[:, None]
    return col[:-1], col[1:]


def _hash(words: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    v = (words ^ xor) * mult
    return v ^ v >> 16


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    v = _MIX_MULT_L * x - _MIX_MULT_R * y
    return v ^ v >> 16


# generate_state(4, np.uint64) reads eight words, pool[i % 4] on hash i
_STATE_XOR, _STATE_MULT = _hash_constants(_INIT_B, _MULT_B, 8)


class _PrecomputedSeed(ISeedSequence):
    """Hands a PCG64 the seeding state ``seed_states`` derived for its label."""

    def __init__(self, state: np.ndarray) -> None:
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or dtype is not np.uint64:
            raise ValueError("a precomputed stream seed holds only the PCG64 state (4 x uint64)")
        return self.state


def _split_words(value: int, out: list[int]) -> None:
    out.append(value & _MASK32)
    while value := value >> 32:
        out.append(value & _MASK32)


@lru_cache(maxsize=256)
def _string_words(part: str) -> tuple[int, ...]:
    words: list[int] = []
    _split_words(int.from_bytes(hashlib.sha256(part.encode("utf8")).digest()[:8], "little"), words)
    return tuple(words)


def _entropy_words(master_seed: int, label: tuple) -> np.ndarray:
    # operator.index accepts Python and numpy integers and rejects floats, so
    # stream(0, "batch", 2.7) raises instead of aliasing stream(0, "batch", 2)
    seed = _index(master_seed)
    if seed < 0:
        raise ValueError("master_seed must be non-negative")
    words: list[int] = []
    _split_words(seed, words)
    for part in label:
        if isinstance(part, str):
            words.extend(_string_words(part))
            continue
        value = _index(part)
        if value < 0:
            raise ValueError(f"stream label parts must be non-negative, got {part}")
        _split_words(value, words)
    return np.array(words, dtype=np.uint32)


def seed_states(master_seed: int, purpose: int | str, *index) -> np.ndarray:
    """PCG64 seeding states of the streams ``(master_seed, purpose, *key)`` over broadcast ``index`` arrays.

    The index parts are integer scalars or arrays of values in [0, 2**32), one
    entropy word each; they broadcast like numpy operands.  The result has
    their broadcast shape plus a last axis of 4 ``uint64``, and its entry at
    ``i`` equals ``np.random.SeedSequence(words).generate_state(4, np.uint64)``
    for the key ``(purpose, *(part[i] for part in index))``.  Every key has the
    same word layout, so numpy's pool hash runs once over all of them.
    """
    parts = [np.asarray(part) for part in index]
    if any(part.dtype.kind not in "iu" for part in parts):
        raise TypeError("stream indices for seed_states must be integers")
    if any(part.size and (part.min() < 0 or part.max() > _MASK32) for part in parts):
        raise ValueError("stream indices for seed_states must be in [0, 2**32)")
    parts = np.broadcast_arrays(*parts)
    shape = parts[0].shape if parts else ()
    prefix = _entropy_words(master_seed, (purpose,))
    n_words = len(prefix) + len(parts)
    # numpy pads an entropy shorter than the pool with hashes of zero words
    words = np.zeros((max(n_words, 4), math.prod(shape)), dtype=np.uint32)
    words[: len(prefix)] = prefix[:, None]
    for row, part in zip(words[len(prefix) :], parts):
        row[:] = part.ravel()
    # mix_entropy hashes 4 pool words, 12 in the cross-mix and 4 per word past the pool
    xor, mult = _hash_constants(_INIT_A, _MULT_A, 4 * max(n_words, 4))
    pool = _hash(words[:4], xor[:4], mult[:4])
    at = 4
    # every pool word mixes into the other three, then each word past the pool into all four
    for src in range(4):
        dst = [i for i in range(4) if i != src]
        pool[dst] = _mix(pool[dst], _hash(pool[src], xor[at : at + 3], mult[at : at + 3]))
        at += 3
    for word in words[4:n_words]:
        pool = _mix(pool, _hash(word, xor[at : at + 4], mult[at : at + 4]))
        at += 4
    v = _hash(np.concatenate((pool, pool)), _STATE_XOR, _STATE_MULT)
    # numpy pairs consecutive 32-bit words little-endian into each uint64, on any host
    return v.T.astype("<u4", order="C").view("<u8").astype(np.uint64, copy=False).reshape(*shape, 4)


def stream(master_seed: int, *label: int | str, state: np.ndarray | None = None) -> np.random.Generator:
    """Return a fresh generator for the stream named by ``label``.

    The same ``(master_seed, *label)`` always yields the same stream, and
    distinct labels yield statistically independent streams.  A ``state``
    from ``seed_states`` is used as given, in place of the label's hash: it is
    neither re-hashed nor checked against the label, so the caller keeps the
    two matched.
    """
    if state is not None:
        return np.random.Generator(np.random.PCG64(_PrecomputedSeed(state)))
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(_entropy_words(master_seed, label))))


def derive_seed(master_seed: int, *label: int | str) -> int:
    """Collapse a stream label to a plain integer seed (for sub-configs)."""
    state = np.random.SeedSequence(_entropy_words(master_seed, label)).generate_state(2, np.uint64)
    return int(state[0] ^ (state[1] << 1)) % (2**63)
