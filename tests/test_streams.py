import hashlib

import numpy as np
import pytest

from qhetfed.streams import _entropy_words, derive_seed, integers_from_words, seed_states, stream


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
    # a bool is not an integer key either, though Python reads True as 1
    for seed, label in [(0, ("q2", True)), (True, ("q2",)), (np.True_, ("x", 1)), (0, ("batch", np.False_))]:
        with pytest.raises(TypeError):
            stream(seed, *label)
        with pytest.raises(TypeError):
            derive_seed(seed, *label)
    with pytest.raises(TypeError):
        seed_states(True, "q2", 1)
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


# The bulk path: seed_states hashes the keys (purpose, *index) of broadcast
# index arrays at once, and stream(..., state=) builds a generator from one.
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
        # one index part per column, so the 3 rows are 3 keys; with no column, one key
        states = seed_states(seed, purpose, *rows.T)
        assert states.shape == ((3, 4) if rows.shape[1] else (4,)) and states.dtype == np.uint64
        for row, state in zip(rows.tolist(), states.reshape(-1, 4)):
            words = _entropy_words(seed, (purpose, *row))
            layouts.add(len(words))
            assert np.array_equal(state, np.random.SeedSequence(words).generate_state(4, np.uint64))
    # 1-3 seed words, 1-2 purpose words and 0-5 indices: 2 to 10 entropy words
    assert layouts == set(range(2, 11))


def test_seed_states_broadcast_like_numpy_operands():
    n, k = np.arange(4), np.array([0, 3, 7])
    states = seed_states(11, "batch", 2, n[:, None], 5, k)
    assert states.shape == (4, 3, 4) and states.dtype == np.uint64
    for i in range(4):
        for j in range(3):
            words = _entropy_words(11, ("batch", 2, i, 5, int(k[j])))
            assert np.array_equal(states[i, j], np.random.SeedSequence(words).generate_state(4, np.uint64))


def test_stream_with_state_equals_per_key_stream():
    for seed, purpose, rows in _random_labels(np.random.default_rng(4), 120):
        states = seed_states(seed, purpose, *rows.T).reshape(-1, 4)
        for row, state in zip(rows.tolist(), states):
            got, ref = stream(seed, purpose, *row, state=state), stream(seed, purpose, *row)
            assert got.bit_generator.state == ref.bit_generator.state
            assert np.array_equal(got.integers(0, 1000, size=9), ref.integers(0, 1000, size=9))


def test_seed_states_reject_what_one_word_cannot_hold():
    for bad in ([-1, 0], np.array([0, -3], dtype=np.int64), [0, 2**32]):
        with pytest.raises(ValueError):
            seed_states(0, "batch", 1, bad)
    for bad in ([0.0, 1.0], [1, 2.5], 2.0):
        with pytest.raises(TypeError):
            seed_states(0, "batch", 1, bad)
    with pytest.raises(ValueError):
        seed_states(-1, "batch", 0)


def _first_words(states, count):
    """The raw words ``integers_from_words`` reads: the first (count + 1) // 2 of each fresh stream."""
    return np.array([stream(0, state=state).bit_generator.random_raw((count + 1) // 2) for state in states])


@pytest.mark.parametrize("count", [1, 2, 5])
def test_integers_from_words_redraw_the_rows_numpy_rejects(count):
    # sizes just above 2**31 reject about half of all 32-bit halves, those just below almost none
    n = 600
    sizes = 2**31 + np.random.default_rng(6).integers(-(2**24), 2**24, size=n)
    states = seed_states(9, "batch", np.arange(n))
    words = _first_words(states, count)
    want = np.array([stream(9, "batch", i, state=states[i]).integers(0, sizes[i], size=count) for i in range(n)])
    assert np.array_equal(integers_from_words(words, sizes, count, states), want)
    # without the redraw, Lemire's rule on the words alone misses a large share of the rows
    halves = words.astype("<u8").view("<u4")[:, :count].astype(np.uint64)
    plain = (halves * sizes.astype(np.uint64)[:, None]) >> 32
    assert 0.15 < np.mean((plain != want).any(axis=1)) < 0.85


def test_integers_from_words_leave_sizes_outside_32_bits_to_numpy():
    sizes = np.array([1, 2, 3, 55, 2**32 - 1, 2**32, 2**32 + 7, 2**40])
    states = seed_states(2, "batch", np.arange(len(sizes)))
    for count in (1, 6, 9):
        got = integers_from_words(_first_words(states, count), sizes, count, states)
        want = [stream(0, state=state).integers(0, size, size=count) for state, size in zip(states, sizes)]
        assert got.dtype == np.int64 and np.array_equal(got, want)
