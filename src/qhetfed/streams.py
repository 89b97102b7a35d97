"""Derivation of independent, reproducible random streams from one master seed.

Every random draw in the simulator comes from a generator keyed by
``(master_seed, purpose, indices...)``.  Keying draws by *what they are for*
rather than by call order lets algorithm variants share batch sequences and
quantizer noise draw-for-draw, which is what makes the trajectory-equivalence
tests possible.

Draw contract: ``stream(seed, *label)`` is draw-for-draw equal to
``np.random.default_rng(np.random.SeedSequence(entropy))``, where ``entropy``
is the tuple ``(seed, *encoded_label)``: integer parts are kept as they are
and each string part becomes the first 8 bytes of its sha256 digest, read as
a little-endian integer.  The seed and the non-string parts must be
non-negative integers (Python or numpy); a float is a ``TypeError``, never
truncated.  The replay tests and the exact acceptance criteria
pin the draws, so the construction keeps numpy's SeedSequence -> PCG64 path
bit for bit and removes only the Python overhead around it, because the
simulator builds one generator per device step and per upload:

* numpy splits every entropy integer into little-endian 32-bit words (0 gives
  one zero word) through a small array per part.  ``_entropy_words`` does the
  same split once, into one ``uint32`` array, and caches the words of string
  parts so "batch", "q1" and "q2" are not re-hashed on every call.
* PCG64 asks its seed sequence for ``generate_state(4, np.uint64)`` and
  nothing else.  numpy hashes the 4-word pool through a generic path;
  ``_KeyedSeedSequence`` hashes it with the array hash of the bulk path
  below.  Every other request goes to numpy's own code.

Bulk path: the streams of one set and round differ only in their index words,
so ``seed_states`` runs numpy's pool hash (``mix_entropy``) and the
``generate_state`` hash once over an (N, K) index array in ``uint32`` array
operations.  Inside ``with prefetched(seed, purpose, index):``, a
``stream(seed, purpose, *row)`` call for a row of ``index`` builds its PCG64
from that precomputed state: the same state and the same draws as the
per-key path, one ``stream`` call and one generator per label as before.
A label is looked up as a dict key, so inside the block a float equal to a
prefetched integer index finds its state instead of raising.  Such a
generator's ``bit_generator.seed_seq`` holds only the state, so it cannot
``spawn``; nothing in qhetfed spawns.
"""

from __future__ import annotations

import hashlib
from contextlib import contextmanager
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


@lru_cache(maxsize=8)
def _pool_constants(n_words: int) -> tuple[np.ndarray, np.ndarray]:
    # mix_entropy hashes 4 pool words, 12 in the cross-mix and 4 per word past the pool
    return _hash_constants(_INIT_A, _MULT_A, 4 * max(n_words, 4))


def _pool_states(pool: np.ndarray) -> np.ndarray:
    """``generate_state(4, np.uint64)`` of each column of a (4, N) uint32 pool, as N rows."""
    v = _hash(np.concatenate((pool, pool)), _STATE_XOR, _STATE_MULT)
    # numpy pairs consecutive 32-bit words little-endian into each uint64, on any host
    return v.T.astype("<u4", order="C").view("<u8").astype(np.uint64, copy=False)


class _KeyedSeedSequence(np.random.SeedSequence):
    """A SeedSequence whose PCG64 seeding request skips numpy's generic path."""

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or dtype is not np.uint64:
            return super().generate_state(n_words, dtype)
        return _pool_states(self.pool[:, None])[0]


class _PrecomputedSeed(ISeedSequence):
    """Hands a PCG64 the seeding state ``seed_states`` derived for its label."""

    def __init__(self, state: np.ndarray) -> None:
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or dtype is not np.uint64:
            raise ValueError("a precomputed stream seed holds only the PCG64 state (4 x uint64)")
        return self.state


def _split_words(value: int, out: list[int]) -> None:
    if value <= _MASK32:
        out.append(value)
        return
    while value:
        out.append(value & _MASK32)
        value >>= 32


@lru_cache(maxsize=256)
def _string_words(part: str) -> tuple[int, ...]:
    digest = hashlib.sha256(part.encode("utf8")).digest()
    words: list[int] = []
    _split_words(int.from_bytes(digest[:8], "little"), words)
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


def seed_states(master_seed: int, purpose: int | str, index) -> np.ndarray:
    """PCG64 seeding states of the streams ``(master_seed, purpose, *row)``, one per row of ``index``.

    Row i equals ``stream(master_seed, purpose, *index[i])``'s seeding state.
    ``index`` is an (N, K) integer array of values in [0, 2**32), one entropy
    word each, so every label has the same word layout and numpy's pool hash
    runs once over all N columns.
    """
    index = np.asarray(index)
    if index.ndim != 2 or index.dtype.kind not in "iu":
        raise TypeError(f"stream indices must be an (N, K) integer array, got {index.dtype} {index.shape}")
    if index.size and (index.min() < 0 or index.max() > _MASK32):
        raise ValueError("stream indices for seed_states must be in [0, 2**32)")
    prefix = _entropy_words(master_seed, (purpose,))
    n_words = len(prefix) + index.shape[1]
    # numpy pads an entropy shorter than the pool with hashes of zero words
    words = np.zeros((max(n_words, 4), len(index)), dtype=np.uint32)
    words[: len(prefix)] = prefix[:, None]
    words[len(prefix) : n_words] = index.T
    xor, mult = _pool_constants(n_words)
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
    return _pool_states(pool)


# label -> PCG64 seeding state, filled only inside ``prefetched`` blocks
_PREFETCHED: dict[tuple, np.ndarray] = {}


@contextmanager
def prefetched(master_seed: int, purpose: int | str, index):
    """Seed the streams ``(master_seed, purpose, *row)`` of ``index`` in one ``seed_states`` pass.

    Inside the block, ``stream`` builds each of them from its precomputed
    state once; the states it has not used are dropped on exit.
    """
    states = seed_states(master_seed, purpose, index)
    keys = [(master_seed, purpose, *row) for row in np.asarray(index).tolist()]
    _PREFETCHED.update(zip(keys, states))
    try:
        yield
    finally:
        for key in keys:
            _PREFETCHED.pop(key, None)


def stream(master_seed: int, *label: int | str) -> np.random.Generator:
    """Return a fresh generator for the stream named by ``label``.

    The same ``(master_seed, *label)`` always yields the same stream, and
    distinct labels yield statistically independent streams.
    """
    if _PREFETCHED:
        state = _PREFETCHED.pop((master_seed, *label), None)
        if state is not None:
            return np.random.Generator(np.random.PCG64(_PrecomputedSeed(state)))
    seq = _KeyedSeedSequence(_entropy_words(master_seed, label))
    return np.random.Generator(np.random.PCG64(seq))


def derive_seed(master_seed: int, *label: int | str) -> int:
    """Collapse a stream label to a plain integer seed (for sub-configs)."""
    state = np.random.SeedSequence(_entropy_words(master_seed, label)).generate_state(2, np.uint64)
    return int(state[0] ^ (state[1] << 1)) % (2**63)
