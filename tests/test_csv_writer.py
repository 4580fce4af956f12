"""The embeddings CSV writer against its row-by-row oracle, and its
vectorised value kernel against ``format_float``: every value's text is
``%.17g``'s, byte for byte, whatever its exponent, sign or rounding."""

import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from helpers import save_csv_oracle
from varispace import EmbeddingSet, embeddings, save_embeddings
from varispace.embeddings import format_float

PROPERTY = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
MAX = np.finfo(np.float64).max


def kernel_texts(values) -> list[str]:
    """Each value's text as the writer's field kernel spells it."""
    fields = embeddings._float_fields(np.asarray(values, dtype=np.float64))
    return [row.tobytes().replace(b"\0", b"").decode()[1:] for row in fields]


def assert_kernel_matches(values):
    values = np.asarray(values, dtype=np.float64)
    for start in range(0, len(values), embeddings._CHUNK):
        chunk = values[start : start + embeddings._CHUNK]
        fields = embeddings._float_fields(chunk)
        got = fields[fields != 0].tobytes().decode()
        want = "".join("," + format_float(v) for v in chunk.tolist())
        if got != want:
            bad = [
                (v, text, format_float(v))
                for v, text in zip(chunk.tolist(), kernel_texts(chunk))
                if text != format_float(v)
            ]
            pytest.fail(f"{len(bad)} values misspelt, first: {bad[:5]}")


def assert_same_file(emb, tmp_path):
    save_embeddings(emb, tmp_path / "got.csv")
    save_csv_oracle(emb, tmp_path / "want.csv")
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


EDGES = [
    (1000000000000000.25, "1000000000000000.2"),  # a tie, rounded to even
    (1000000000000000.75, "1000000000000000.8"),
    (-0.0, "-0"),
    (0.0, "0"),
    (0.5, "0.5"),
    (5e-324, "4.9406564584124654e-324"),
    (1e-4, "0.0001"),  # the last fixed spelling
    (1e-5, "1.0000000000000001e-05"),  # the first scientific one
    (1e-6, "9.9999999999999995e-07"),  # just below the true 10**-6
    (1e16, "10000000000000000"),
    (1e17, "1e+17"),
    (123.0, "123"),
    (-MAX, "-1.7976931348623157e+308"),
]


@pytest.mark.parametrize("value, text", EDGES, ids=[t for _, t in EDGES])
def test_edge_values_spelt_as_format_float(value, text):
    assert format_float(value) == text
    assert kernel_texts([value]) == [text]


def test_powers_of_ten_and_their_neighbours():
    values = []
    for k in range(-7, 18):
        power = 10.0**k
        values += [power, np.nextafter(power, np.inf), np.nextafter(power, -np.inf)]
    values += [2.0 * v for v in values] + [0.5 * v for v in values]
    assert_kernel_matches(values + [-v for v in values])


def test_seeded_million_values():
    rng = np.random.default_rng(20250809)
    n = 250_000
    signs = rng.choice([-1.0, 1.0], n)
    # random 53-bit mantissas over every finite exponent
    bits = rng.integers(0, 0x7FF0_0000_0000_0000, n, dtype=np.int64)
    values = np.concatenate(
        [
            rng.standard_normal(n),
            signs * 10.0 ** rng.uniform(-9, 18, n),
            signs * bits.view(np.float64),
            # integers and short decimals, where %g drops trailing zeros
            signs * rng.integers(0, 10**6, n) / 10.0 ** rng.integers(0, 8, n),
        ]
    )
    assert_kernel_matches(values)


def test_most_values_take_the_exact_path():
    # 10**(16 - X) is exact for -6 <= X <= 16; only zero, values outside that
    # range and a few next to powers of ten are spelt one at a time
    rng = np.random.default_rng(3)
    values = 10.0 ** rng.uniform(-5.9, 16.9, 100_000)
    key, _ = embeddings._decimal(values)
    assert np.count_nonzero(key == embeddings._OTHER) < 100
    key, _ = embeddings._decimal(np.array([0.0, -0.0, 5e-324, 9e-7, 1e17, MAX]))
    assert (key == embeddings._OTHER).all()


def test_extreme_values_raise_no_warning(tmp_path):
    values = np.array([[MAX, -MAX, 5e-324, -5e-324, 0.0, -0.0, 2.2250738585072014e-308]])
    emb = EmbeddingSet(("u",), ("s",), values)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert_same_file(emb, tmp_path)


def test_rows_across_the_chunk_boundary(tmp_path):
    d = 192
    step = embeddings._CHUNK // d
    rng = np.random.default_rng(11)
    n = 2 * step + 1
    emb = EmbeddingSet(
        tuple(f"u{i}" for i in range(n)), ("s",) * n, rng.standard_normal((n, d))
    )
    assert_same_file(emb, tmp_path)


ids = st.one_of(
    st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=8),
    st.sampled_from([",", '"', "\r", "\n", "a,b", 'q"uote', "lone\r", "x\r\ny", " sp "]),
)
finite = st.floats(allow_nan=False, allow_infinity=False)
special = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, MAX, -MAX, 1e-6, 1e16, 1e17])


@st.composite
def embedding_sets(draw):
    n = draw(st.integers(1, 40))
    d = draw(st.integers(1, 6))
    utts = draw(st.lists(ids, min_size=n, max_size=n, unique=True))
    spks = draw(st.lists(ids, min_size=n, max_size=n))
    pool = draw(st.lists(st.one_of(finite, special), min_size=1, max_size=30))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=n * d, max_size=n * d))
    vectors = np.array(pool)[picks].reshape(n, d)
    return EmbeddingSet(tuple(utts), tuple(spks), vectors)


@PROPERTY
@given(emb=embedding_sets(), chunk=st.sampled_from([1, 5, 64, embeddings._CHUNK]))
@example(emb=EmbeddingSet(('a,"b"',), ("s\r",), [[-0.1]]), chunk=embeddings._CHUNK)
def test_writer_matches_row_oracle(tmp_path, emb, chunk):
    # a small chunk makes row counts cross the writer's chunk boundary
    with mock.patch.object(embeddings, "_CHUNK", chunk):
        assert_same_file(emb, tmp_path)
