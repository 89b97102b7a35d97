import hashlib

import numpy as np
import pytest

from qhetfed.streams import _PREFETCHED, _KeyedSeedSequence, _entropy_words, derive_seed, prefetched, seed_states, stream


def test_same_label_same_sequence():
    a = stream(7, "batch", 0, 1, 2, 3).random(16)
    b = stream(7, "batch", 0, 1, 2, 3).random(16)
    assert np.array_equal(a, b)


def test_labels_separate_streams():
    base = stream(7, "batch", 0, 0, 0, 0).random(8)
    assert not np.array_equal(base, stream(7, "batch", 0, 0, 0, 1).random(8))
    assert not np.array_equal(base, stream(7, "batch", 0, 0, 1, 0).random(8))
    assert not np.array_equal(base, stream(7, "q1", 0, 0, 0, 0).random(8))
    assert not np.array_equal(base, stream(8, "batch", 0, 0, 0, 0).random(8))


def test_string_labels_hash_stably():
    # two different purposes must not collide
    assert not np.array_equal(stream(0, "q1").random(4), stream(0, "q2").random(4))
    # the same purpose spelled identically is the same stream
    assert np.array_equal(stream(0, "init").random(4), stream(0, "init").random(4))


def test_derive_seed_deterministic_and_distinct():
    s1 = derive_seed(11, "run", 0)
    s2 = derive_seed(11, "run", 0)
    s3 = derive_seed(11, "run", 1)
    assert s1 == s2
    assert s1 != s3
    assert 0 <= s1 < 2**63


def test_negative_label_rejected():
    with pytest.raises(ValueError):
        stream(0, "batch", -1)
    with pytest.raises(ValueError):
        stream(0, "q1", np.int64(-3))
    with pytest.raises(ValueError):
        derive_seed(0, "run", -1)


def test_non_integer_key_part_rejected():
    # floats were once truncated, so these aliased stream(0, "batch", 2) and stream(3, "x")
    with pytest.raises(TypeError):
        stream(0, "batch", 2.7)
    with pytest.raises(TypeError):
        stream(3.9, "x")
    with pytest.raises(TypeError):
        stream(0, "q1", np.float64(2.0))
    with pytest.raises(TypeError):
        derive_seed(0, "run", 1.0)
    assert np.array_equal(stream(np.uint64(3), "x", np.int32(4)).random(4), stream(3, "x", 4).random(4))


def test_negative_seed_rejected():
    with pytest.raises(ValueError):
        stream(-1, "batch")
    with pytest.raises(ValueError):
        derive_seed(-1, "run")


# The reference construction: every label part encoded on its own (strings by
# the first 8 bytes of their sha256 digest, little-endian), the whole tuple
# handed to numpy's SeedSequence and default_rng.  ``stream`` must stay
# draw-for-draw equal to it.
def _reference_encode(part):
    if isinstance(part, str):
        return int.from_bytes(hashlib.sha256(part.encode("utf8")).digest()[:8], "little")
    return int(part)


def _reference_stream(seed, *label):
    entropy = (int(seed),) + tuple(_reference_encode(part) for part in label)
    return np.random.default_rng(np.random.SeedSequence(entropy))


_SEEDS = (0, 7, 2**32 - 1, 2**32, 2**63 - 1, 2**64 + 12345, 2**96 + 7)
_LABELS = (
    (),
    ("batch", 0, 1, 2, 3),
    ("q1", 2, 19, 4, 14),
    ("q2", 1, 39),
    (0,),
    (2**32 - 1,),
    (2**32,),
    (2**64 + 3, 5),
    (2**64 - 1, 2**127),
    (np.int64(5), np.uint32(2**32 - 1), np.uint64(2**63 + 11)),
    ("",),
    ("", 0, ""),
    ("données", 3),
    ("数据", "q1", 2**33),
    ("init",),
)


@pytest.mark.parametrize("seed", _SEEDS)
def test_stream_matches_reference_construction(seed):
    for label in _LABELS:
        got, ref = stream(seed, *label), _reference_stream(seed, *label)
        assert got.bit_generator.state == ref.bit_generator.state, label
        assert got.random(7).tobytes() == ref.random(7).tobytes(), label
        assert np.array_equal(got.integers(0, 1000, size=9), ref.integers(0, 1000, size=9)), label
        assert np.array_equal(got.integers(0, 2**62, size=3), ref.integers(0, 2**62, size=3)), label
        assert got.bit_generator.state == ref.bit_generator.state, label


def test_derive_seed_pinned_values():
    # values of the SeedSequence(entropy tuple) construction, recorded before
    # the entropy encoding was rewritten
    table = [
        ((0,), 919895218882808876),
        ((11, "run", 0), 5987754981759917804),
        ((11, "run", 1), 4801401463841596284),
        ((7, "dataset"), 6406994627006041272),
        ((2**32, "q1", 2**32 - 1), 9060946270955949077),
        ((2**63 - 1, "", 0), 7154192117942919698),
        ((2**64 + 5, "é", 2**65 + 3), 6133210903018736853),
        ((3, np.int64(9), "partition"), 5755832661041544171),
    ]
    for args, expected in table:
        assert derive_seed(*args) == expected, args


# The bulk path: seed_states hashes the labels (purpose, *row) of an index
# array at once, and a stream built inside ``prefetched`` takes its state.
def _random_labels(rng, count):
    seeds = (0, 7, 2**32 - 1, 2**32, 2**63 - 1, 2**70)
    # strings hash to 2 words; an integer first part gives the 1-word layout
    purposes = ("batch", "q1", "", 5, 2**32 - 1, 2**40)
    for _ in range(count):
        rows = rng.integers(0, 2**32, size=(3, rng.integers(0, 6)), dtype=np.uint64)
        rows[0] = 0
        rows[1] = 2**32 - 1
        yield seeds[rng.integers(len(seeds))], purposes[rng.integers(len(purposes))], rows


def test_seed_states_match_the_per_key_hash():
    layouts = set()
    for seed, purpose, rows in _random_labels(np.random.default_rng(3), 240):
        states = seed_states(seed, purpose, rows)
        for row, state in zip(rows.tolist(), states):
            words = _entropy_words(seed, (purpose, *row))
            layouts.add(len(words))
            assert np.array_equal(state, _KeyedSeedSequence(words).generate_state(4, np.uint64))
            assert np.array_equal(state, np.random.SeedSequence(words).generate_state(4, np.uint64))
    # 1-3 seed words, 1-2 purpose words and 0-5 indices: 2 to 10 entropy words
    assert layouts == set(range(2, 11))


def test_prefetched_streams_equal_per_key_streams():
    for seed, purpose, rows in _random_labels(np.random.default_rng(4), 120):
        with prefetched(seed, purpose, rows):
            got = [stream(seed, purpose, *row) for row in rows.tolist()]
        for row, g in zip(rows.tolist(), got):
            ref = stream(seed, purpose, *row)
            assert g.bit_generator.state == ref.bit_generator.state
            assert np.array_equal(g.integers(0, 1000, size=9), ref.integers(0, 1000, size=9))
    assert not _PREFETCHED


def test_seed_states_reject_what_one_word_cannot_hold():
    for bad in ([[-1, 0]], np.array([[0, -3]], dtype=np.int64), [[0, 2**32]]):
        with pytest.raises(ValueError):
            seed_states(0, "batch", bad)
    for bad in ([[0.0, 1.0]], [[1, 2.5]], [0, 1]):
        with pytest.raises(TypeError):
            seed_states(0, "batch", bad)
    with pytest.raises(ValueError):
        seed_states(-1, "batch", [[0]])
    assert not _PREFETCHED


def test_prefetched_drops_unused_states_on_exit():
    rows = np.array([[0, 1], [2, 3]])
    with prefetched(5, "q1", rows):
        assert len(_PREFETCHED) == 2
        stream(5, "q1", 0, 1)
        assert list(_PREFETCHED) == [(5, "q1", 2, 3)]
    assert not _PREFETCHED
    with pytest.raises(RuntimeError):
        with prefetched(5, "q1", rows):
            raise RuntimeError("a phase failed")
    assert not _PREFETCHED
