"""Differential tests of the EMB1 and CSV readers and the ``EmbeddingSet``
constructor against their record-by-record and row-by-row oracles in
``helpers``: for every input both return the same set (equal ids,
bit-equal vectors, equal read-only speaker rows) or raise the same
exception type with the same message. Also pins that a set never shares
memory with a caller's writable array or view, and that a CSV read keeps
the matrix it parsed rather than copying it."""

import struct
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import emb1_blob, embedding_set_oracle, load_binary_oracle, load_csv_oracle
from varispace import EmbeddingSet, embeddings, load_embeddings, save_embeddings

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


LIMIT = 131072  # csv's default field size limit, in characters

# ids that csv and a plain split read alike, NUL and spaces included
plain_text = st.text(
    st.characters(exclude_categories=("Cs",), exclude_characters=',"\r\n\x1c\x1d\x1e\x1f'),
    max_size=3,
)

# ids the writer quotes, ids whose quoting is wrong, the separators
# \x1c-\x1f, empty ids, and ids at and over the field limit
ODD_IDS = [
    '"a,b"', '"a""b"', '"a\rb"', '"a\nb"', '"a\r\nb"', '""', '"a"', 'a"b', '"a', "",
    "\x1c", "a\x1fb", "u" * LIMIT, "u" * (LIMIT + 1), '"' + "u" * (LIMIT + 1) + '"',
]

# spellings float() and np.loadtxt may disagree on, and values at and over
# the field limit
ODD_VALUES = [
    " 1 ", "1_0", "１", "0x10", "nan(1)", "1j", "", "1e500", "-Infinity", "\x00", "1\x00",
    "\x1c1", "1\x1d", "\x1e1", "1\x1f", "\x0b1", "1 ", "+.5", "1.", "1e-400", "inf",
    "-nan", '"1"', '"1', "1,0", "1" * (LIMIT + 1), "0." + "0" * (LIMIT - 3) + "1",
    "0." + "0" * (LIMIT - 1) + "1",
]

finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def csv_texts(draw):
    """An embeddings CSV text: usually a good header and records of finite
    values in 17 or fewer digits, into which up to two defects are put: a
    blank or whitespace-only line, a record one field short or long, an odd
    id or an odd value spelling. Each line ends in "\n", "\r\n" or "\r",
    the last one sometimes in nothing."""
    d = draw(st.integers(1, 3))
    names = ["utt_id", "spk_id"] + [f"d{i}" for i in range(1, d + 1)]
    header = draw(st.sampled_from([",".join(names)] * 5 + [
        ",".join(f'"{n}"' for n in names), "", "utt_id,spk_id",
        ",".join(names[:-1] + ["d9"]), "utt_id,spk_id,d1,d1",
    ]))
    n = draw(st.integers(0, 5))
    records = [
        [f"u{i}" + draw(plain_text), draw(st.sampled_from(["s", "t", "码", "s\x00", " s"]))]
        + [draw(finite.map(lambda v: format(v, ".17g")) | finite.map(repr)) for _ in range(d)]
        for i in range(n)
    ]
    lines = [",".join(fields) for fields in records]
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from(["blank", "width", "id", "value"]))
        if kind == "blank" or not records:
            lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", " ", "\t"])))
            continue
        row = draw(st.integers(0, len(records) - 1))
        fields = list(records[row])
        if kind == "width":
            fields = fields[:-1] if draw(st.booleans()) else fields + ["1"]
        elif kind == "id":
            fields[draw(st.integers(0, 1))] = draw(st.sampled_from(ODD_IDS))
        else:
            fields[draw(st.integers(2, d + 1))] = draw(st.sampled_from(ODD_VALUES))
        lines[row] = ",".join(fields)
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=len(lines) + 1,
                         max_size=len(lines) + 1))
    text = "".join(line + end for line, end in zip([header] + lines, ends))
    return text[: -len(ends[-1])] if draw(st.booleans()) else text


def csv_outcome(load, path):
    """What ``load`` makes of a file: the set's ids and vector bytes, or the
    type and message of what it raised."""
    try:
        emb = load(path)
    except Exception as exc:
        return type(exc), str(exc)
    assert not emb.vectors.flags.writeable
    return emb.utt_ids, emb.spk_ids, emb.vectors.dtype, emb.vectors.shape, emb.vectors.tobytes()


@PROPERTY
@given(text=csv_texts())
def test_csv_reader_matches_row_by_row_oracle(tmp_path, text):
    path = tmp_path / "emb.csv"
    path.write_text(text, encoding="utf-8", newline="")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert csv_outcome(load_embeddings, path) == csv_outcome(load_csv_oracle, path)
    assert not caught


def single_defects():
    """Three plain records at D=2 with one line changed: each odd id or
    value in place of a field, a field dropped or added, a blank or
    whitespace-only line put in."""
    records = [["u1", "s", "1.5", "-2"], ["u2", "t", "0.25", "3e-300"], ["u3", "s", "-0", "1e300"]]
    changes = [(0, value) for value in ODD_IDS] + [(1, value) for value in ODD_IDS]
    changes += [(3, value) for value in ODD_VALUES]
    for column, value in changes:
        yield [records[0], records[1][:column] + [value] + records[1][column + 1:], records[2]]
    yield [records[0], records[1][:-1], records[2]]
    yield [records[0], records[1] + ["1"], records[2]]
    for blank in ("", " ", "\t"):
        yield [records[0], [blank], records[1], records[2]]


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
def test_csv_reader_matches_oracle_on_each_single_defect(tmp_path, end):
    path = tmp_path / "emb.csv"
    for lines in single_defects():
        text = "".join(",".join(fields) + end for fields in [["utt_id", "spk_id", "d1", "d2"]] + lines)
        path.write_text(text, encoding="utf-8", newline="")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert csv_outcome(load_embeddings, path) == csv_outcome(load_csv_oracle, path), text[:200]
        assert not caught


def plain_set(n=4000, d=128):
    rng = np.random.default_rng(7)
    utts = tuple(f"spk{i % 40} utt{i}" for i in range(n))
    spks = tuple(f"spk{i % 40}·码" for i in range(n))
    return EmbeddingSet(utts, spks, rng.standard_normal((n, d)) * 10.0 ** rng.integers(-300, 300, (n, d)))


def refuse_row_reader(source):
    raise AssertionError("the row reader ran")


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
def test_written_csv_loads_without_the_row_reader(tmp_path, monkeypatch, end):
    emb = plain_set(n=200, d=16)
    path = tmp_path / "emb.csv"
    save_embeddings(emb, path)
    # the writer's file, with other line ends and blank lines put in
    lines = path.read_text(encoding="utf-8").splitlines()
    path.write_text(end.join(lines[:50] + ["", ""] + lines[50:] + [""]), encoding="utf-8",
                    newline="")

    monkeypatch.setattr(embeddings, "_load_csv_rows", refuse_row_reader)
    got = load_embeddings(path)
    assert got.utt_ids == emb.utt_ids
    assert got.spk_ids == emb.spk_ids
    assert got.vectors.tobytes() == emb.vectors.tobytes()


@pytest.mark.parametrize("error", [MemoryError, OSError])
def test_csv_errors_other_than_value_errors_skip_the_row_reader(tmp_path, monkeypatch, error):
    # only a file the np.loadtxt pass rejects is read again row by row
    save_embeddings(plain_set(n=20, d=4), tmp_path / "emb.csv")

    def fail(*args, **kwargs):
        raise error("stand-in")

    monkeypatch.setattr(embeddings.np, "loadtxt", fail)
    monkeypatch.setattr(embeddings, "_load_csv_rows", refuse_row_reader)
    with pytest.raises(error, match="^stand-in$"):
        load_embeddings(tmp_path / "emb.csv")


@pytest.mark.parametrize("quoted", [False, True], ids=["plain", "quoted"])
def test_csv_matrix_is_not_copied(tmp_path, quoted):
    emb = plain_set()
    if quoted:
        # a quoted id sends the file to the row reader
        emb = EmbeddingSet(("a,b",) + emb.utt_ids[1:], emb.spk_ids, emb.vectors)
    save_embeddings(emb, tmp_path / "emb.csv")
    n, d = emb.vectors.shape
    tracemalloc.start()
    try:
        got = load_embeddings(tmp_path / "emb.csv")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got.vectors.tobytes() == emb.vectors.tobytes()
    # the plain reader's one matrix plus ids and lines in flight, not two
    # matrices; the row reader holds its rows and the matrix made from them
    assert peak < (1.5 if not quoted else 3.0) * 8 * n * d


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
