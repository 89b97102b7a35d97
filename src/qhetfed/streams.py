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
  ``_KeyedSeedSequence`` hashes it in Python ints with the per-position hash
  constants precomputed.  Every other request goes to numpy's own code.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache
from operator import index as _index

import numpy as np

_MASK32 = 0xFFFFFFFF

# SeedSequence.generate_state hashes output word i as
#   v = (pool[i % 4] ^ H_i) * H_{i+1};  v ^= v >> 16   (mod 2**32)
# with H_0 = INIT_B and H_{i+1} = H_i * MULT_B.  The constants depend only on
# the position, so the eight (xor, multiplier) pairs of a 4 x uint64 request
# are fixed.
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED


def _state_constants(n_words: int) -> tuple[tuple[int, int], ...]:
    out = []
    h = _INIT_B
    for _ in range(n_words):
        nxt = (h * _MULT_B) & _MASK32
        out.append((h, nxt))
        h = nxt
    return tuple(out)


(
    (_X0, _M0), (_X1, _M1), (_X2, _M2), (_X3, _M3),
    (_X4, _M4), (_X5, _M5), (_X6, _M6), (_X7, _M7),
) = _state_constants(8)


class _KeyedSeedSequence(np.random.SeedSequence):
    """A SeedSequence whose PCG64 seeding request skips numpy's generic path."""

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or dtype is not np.uint64:
            return super().generate_state(n_words, dtype)
        p0, p1, p2, p3 = self.pool.tolist()
        a = ((p0 ^ _X0) * _M0) & _MASK32
        b = ((p1 ^ _X1) * _M1) & _MASK32
        c = ((p2 ^ _X2) * _M2) & _MASK32
        d = ((p3 ^ _X3) * _M3) & _MASK32
        e = ((p0 ^ _X4) * _M4) & _MASK32
        f = ((p1 ^ _X5) * _M5) & _MASK32
        g = ((p2 ^ _X6) * _M6) & _MASK32
        h = ((p3 ^ _X7) * _M7) & _MASK32
        # numpy pairs consecutive 32-bit words little-endian into each uint64
        return np.array(
            [
                (a ^ a >> 16) | (b ^ b >> 16) << 32,
                (c ^ c >> 16) | (d ^ d >> 16) << 32,
                (e ^ e >> 16) | (f ^ f >> 16) << 32,
                (g ^ g >> 16) | (h ^ h >> 16) << 32,
            ],
            dtype=np.uint64,
        )


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


def stream(master_seed: int, *label: int | str) -> np.random.Generator:
    """Return a fresh generator for the stream named by ``label``.

    The same ``(master_seed, *label)`` always yields the same stream, and
    distinct labels yield statistically independent streams.
    """
    seq = _KeyedSeedSequence(_entropy_words(master_seed, label))
    return np.random.Generator(np.random.PCG64(seq))


def derive_seed(master_seed: int, *label: int | str) -> int:
    """Collapse a stream label to a plain integer seed (for sub-configs)."""
    state = np.random.SeedSequence(_entropy_words(master_seed, label)).generate_state(2, np.uint64)
    return int(state[0] ^ (state[1] << 1)) % (2**63)
