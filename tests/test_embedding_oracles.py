"""Differential tests of the EMB1 reader and the ``EmbeddingSet``
constructor against their record-by-record and row-by-row oracles in
``helpers``: for every input both return the same set (equal ids,
bit-equal vectors, equal read-only speaker rows) or raise the same
exception type with the same message. Also pins that a set never shares
memory with the caller's array."""

import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import emb1_blob, embedding_set_oracle, load_binary_oracle
from varispace import EmbeddingSet, load_embeddings

PROPERTY = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def assert_same_outcome(call, oracle, *args):
    try:
        utt_ids, spk_ids, vectors, row_of, speaker_rows = oracle(*args)
    except Exception as exc:
        with pytest.raises(type(exc)) as err:
            call(*args)
        assert type(err.value) is type(exc)
        assert str(err.value) == str(exc)
        return
    emb = call(*args)
    assert emb.utt_ids == utt_ids
    assert emb.spk_ids == spk_ids
    assert emb.vectors.dtype == vectors.dtype
    assert emb.vectors.shape == vectors.shape
    assert emb.vectors.tobytes() == vectors.tobytes()
    assert not emb.vectors.flags.writeable
    assert emb.rows_of(row_of).tolist() == list(row_of.values())
    assert emb.speakers() == tuple(speaker_rows)
    for spk, rows in speaker_rows.items():
        got = emb.speaker_rows(spk)
        assert got.dtype == rows.dtype
        assert got.tolist() == rows.tolist()
        assert not got.flags.writeable


# few distinct short ids, so duplicates and empty ids are common
ids = st.one_of(st.sampled_from(["", "a", "b", "码", "ü-β"]), st.text(max_size=4))


@st.composite
def emb1_files(draw):
    """A valid EMB1 blob (ids may be empty, multi-byte or duplicated; values
    may be non-finite), then, some of the time, cut at a drawn byte, with
    bytes flipped, or with a header declaring the wrong N or D. The magic
    stays whole, so that ``load_embeddings`` reads the blob as EMB1."""
    d = draw(st.integers(1, 4))
    records = draw(
        st.lists(
            st.tuples(ids, ids, st.lists(st.floats(width=32), min_size=d, max_size=d)),
            max_size=5,
        )
    )
    blob = bytearray(emb1_blob(d, records))
    damage = draw(st.sampled_from(["none", "cut", "flip", "header"]))
    if damage == "cut":
        del blob[draw(st.integers(4, len(blob))):]
    elif damage == "flip":
        for _ in range(draw(st.integers(1, 3))):
            at = draw(st.integers(4, len(blob) - 1))
            blob[at] ^= draw(st.integers(1, 255))
    elif damage == "header":
        struct.pack_into(
            "<IQ", blob, 8,
            draw(st.integers(0, 6)) if draw(st.booleans()) else d,
            draw(st.integers(0, 8)),
        )
    return bytes(blob)


@PROPERTY
@given(blob=emb1_files())
def test_reader_matches_record_by_record_oracle(tmp_path, blob):
    path = tmp_path / "emb.bin"
    path.write_bytes(blob)
    assert_same_outcome(load_embeddings, load_binary_oracle, path)


# ids of every kind the constructor must reject or accept, duplicates included
mixed_ids = st.one_of(
    ids,
    st.integers(-2, 2),
    st.binary(max_size=2),
    st.lists(st.sampled_from(["", "a"]), max_size=2),
)


@st.composite
def id_lists(draw):
    n = draw(st.integers(1, 6))
    # the id lists usually match the rows, and sometimes do not
    lengths = st.one_of(st.just(n), st.integers(0, 7))
    utts, spks = (
        draw(st.lists(mixed_ids, min_size=k, max_size=k)) for k in (draw(lengths), draw(lengths))
    )
    kind = draw(st.sampled_from([np.float64, np.float32, list]))
    vectors = np.arange(n * 3, dtype=np.float64).reshape(n, 3)
    vectors = vectors.tolist() if kind is list else vectors.astype(kind)
    return utts, spks, vectors


@PROPERTY
@given(args=id_lists())
def test_constructor_matches_row_by_row_oracle(args):
    assert_same_outcome(EmbeddingSet, embedding_set_oracle, *args)


@PROPERTY
@given(
    utts=st.lists(st.text(min_size=1, max_size=4), min_size=1, max_size=30, unique=True),
    data=st.data(),
)
def test_valid_sets_match_oracle(utts, data):
    spks = data.draw(st.lists(st.sampled_from(["s", "t", "码", "ü-β"]), min_size=len(utts),
                              max_size=len(utts)))
    vectors = np.random.default_rng(len(utts)).standard_normal((len(utts), 2))
    assert_same_outcome(EmbeddingSet, embedding_set_oracle, utts, spks, vectors)


class Holder:
    """An object whose ``__array__`` hands out its own float64 array."""

    def __init__(self, array):
        self.array = array

    def __array__(self, dtype=None, copy=None):
        return self.array


class Sub(np.ndarray):
    pass


@pytest.mark.parametrize(
    "make",
    [
        lambda a: a,
        lambda a: a[:, ::-1],
        lambda a: a.view(Sub),
        lambda a: memoryview(a),
        lambda a: Holder(a),
    ],
    ids=["array", "view", "subclass", "memoryview", "__array__"],
)
def test_vectors_never_alias_the_callers_float64(make):
    source = np.arange(6.0).reshape(3, 2)
    emb = EmbeddingSet(("a", "b", "c"), ("s", "s", "t"), make(source))
    assert not np.shares_memory(emb.vectors, source)
    assert not emb.vectors.flags.writeable
    source[0, 0] = 99.0
    assert emb.vectors[0, 0] != 99.0


def test_float32_input_is_copied_once():
    n, d = 1000, 256
    source = np.random.default_rng(0).standard_normal((n, d)).astype(np.float32)
    utts = tuple(f"u{i}" for i in range(n))
    spks = tuple(f"s{i % 10}" for i in range(n))
    tracemalloc.start()
    try:
        emb = EmbeddingSet(utts, spks, source)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert emb.vectors.dtype == np.float64
    assert not np.shares_memory(emb.vectors, source)
    assert not emb.vectors.flags.writeable
    # one float64 matrix plus the finiteness mask and the id maps, not two
    assert peak < 1.5 * 8 * n * d


def test_speaker_rows_cannot_be_made_writable():
    emb = EmbeddingSet(("a", "b", "c"), ("s", "t", "s"), np.eye(3))
    rows = emb.speaker_rows("s")
    assert rows.tolist() == [0, 2]
    with pytest.raises(ValueError):
        rows.setflags(write=True)
