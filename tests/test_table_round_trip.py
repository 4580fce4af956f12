"""Round-trip properties of the spectrum and sweep CSVs, through the public
writers and readers: valid sweep rows and the spectra of random spaces read
back unchanged, floats bit for bit (``-0.0`` stays negative, subnormals and
the largest double survive), and blank lines put in change nothing."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from varispace import (
    DataError,
    FormatError,
    SweepResult,
    SweepRow,
    VariabilitySpace,
    log_spectrum,
    read_spectrum_csv,
    read_sweep_csv,
    write_spectrum_csv,
    write_sweep_csv,
)
from varispace.scoring import SWEEP_FAMILIES

PROPERTY = settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

EDGE_FLOATS = (5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308, -0.0, 0.0)
finite = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False))
count = st.integers(min_value=0)

sweep_rows = st.builds(
    SweepRow,
    family=st.sampled_from(SWEEP_FAMILIES),
    start=st.integers(min_value=1),
    size=count,
    direction=st.sampled_from("+-"),
    eer_percent=finite,
    n_target=count,
    n_nontarget=count,
)


def put_in_blank_lines(path):
    """Rewrite a written table with a blank line after its middle line and
    one at its end."""
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    middle = (len(lines) + 1) // 2
    path.write_text("".join(lines[:middle] + ["\n"] + lines[middle:] + ["\r\n"]),
                    encoding="utf-8", newline="")


@PROPERTY
@given(rows=st.lists(sweep_rows, max_size=6))
def test_sweep_rows_read_back_bit_for_bit(tmp_path, rows):
    path = tmp_path / "sweep.csv"
    write_sweep_csv(SweepResult(rows=tuple(rows)), path)
    loaded = read_sweep_csv(path).rows
    assert loaded == tuple(rows)
    assert [r.eer_percent.hex() for r in loaded] == [r.eer_percent.hex() for r in rows]
    put_in_blank_lines(path)
    assert read_sweep_csv(path).rows == loaded


@st.composite
def spaces(draw):
    """A space with drawn eigenvalues (zeros, subnormals and up to 1e300, so
    the log floor and the extremes are reached) and a seeded random basis."""
    d = draw(st.integers(1, 8))
    eigenvalues = draw(
        st.lists(
            st.one_of(st.sampled_from([0.0, 5e-324]), st.floats(0.0, 1e300)),
            min_size=d,
            max_size=d,
        )
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    basis, _ = np.linalg.qr(rng.standard_normal((d, d)))
    return VariabilitySpace(
        mean=rng.standard_normal(d), basis=basis, eigenvalues=sorted(eigenvalues, reverse=True)
    )


@PROPERTY
@given(space=spaces())
def test_spectrum_reads_back_exactly(tmp_path, space):
    path = tmp_path / "spectrum.csv"
    write_spectrum_csv(space, path)
    logs, deltas = read_spectrum_csv(path)
    assert np.array_equal(logs, log_spectrum(space))
    assert np.array_equal(deltas, np.diff(log_spectrum(space)))
    put_in_blank_lines(path)
    blank_logs, blank_deltas = read_spectrum_csv(path)
    assert blank_logs.tobytes() == logs.tobytes()
    assert blank_deltas.tobytes() == deltas.tobytes()


@pytest.mark.parametrize(
    "family, direction, match",
    [
        ("a\rb", "+", "unknown sweep family 'a\rb'"),
        ("custom", "-", "unknown sweep family 'custom'"),
        ("primary", "a,b", "subspace direction must be '\\+' or '-', got 'a,b'"),
        ("primary", "", "subspace direction must be '\\+' or '-', got ''"),
    ],
)
def test_sweep_row_rejects_what_the_format_cannot_carry(family, direction, match):
    with pytest.raises(DataError, match=match):
        SweepRow(family, 1, 2, direction, 12.5, 3, 4)


@pytest.mark.parametrize(
    "start, size, n_target, match",
    [
        (0, 2, 3, "subspace start must be >= 1, got 0"),
        (1, -1, 3, "subspace size must be >= 0, got -1"),
        (1, 2, -1, "n_target must be >= 0, got -1"),
    ],
)
def test_sweep_row_rejects_a_block_or_count_the_format_cannot_carry(start, size, n_target, match):
    with pytest.raises(DataError, match=match):
        SweepRow("primary", start, size, "+", 12.5, n_target, 4)


def test_sweep_result_holds_only_sweep_rows():
    row = SweepRow("primary", 1, 2, "+", 12.5, 3, 4)
    assert SweepResult(rows=[row]).rows == (row,)
    with pytest.raises(DataError, match="^sweep row 2: expected a SweepRow, got 1$"):
        SweepResult(rows=[row, 1, 2])


@pytest.mark.parametrize(
    "eer, match",
    [
        ("12.5", "eer_percent must be a real number, got '12.5'"),
        (True, "eer_percent must be a real number, got True"),
        (np.True_, "eer_percent must be a real number, got "),
        (None, "eer_percent must be a real number, got None"),
        (float("nan"), "eer_percent must be finite, got nan"),
        (float("inf"), "eer_percent must be finite, got inf"),
        (-np.inf, "eer_percent must be finite, got -inf"),
        (10**400, "eer_percent must be finite, got inf"),
    ],
)
def test_sweep_row_rejects_an_eer_the_format_cannot_carry(eer, match):
    with pytest.raises(DataError, match=match):
        SweepRow("primary", 1, 2, "+", eer, 3, 4)


def test_sweep_row_stores_a_real_eer_as_a_float_that_reads_back(tmp_path):
    rows = tuple(
        SweepRow("primary", 1, k, "+", eer, 3, 4)
        for k, eer in enumerate([12, np.float32(2.5), np.int64(7), 12.5])
    )
    assert [type(r.eer_percent) for r in rows] == [float] * 4
    assert [r.eer_percent for r in rows] == [12.0, 2.5, 7.0, 12.5]
    path = tmp_path / "sweep.csv"
    write_sweep_csv(SweepResult(rows=rows), path)
    assert read_sweep_csv(path).rows == rows


def test_sweep_file_with_non_finite_eer_names_line(tmp_path):
    path = tmp_path / "sweep.csv"
    path.write_text(
        "family,start,size,direction,eer_percent,n_target,n_nontarget\n"
        "primary,1,0,+,nan,10,20\n"
    )
    with pytest.raises(FormatError, match="sweep CSV line 2: eer_percent must be finite"):
        read_sweep_csv(path)


def test_sweep_file_with_unknown_family_names_line(tmp_path):
    path = tmp_path / "sweep.csv"
    path.write_text(
        "family,start,size,direction,eer_percent,n_target,n_nontarget\n"
        "primary,1,0,+,12.5,10,20\n"
        "custom,1,2,+,15.0,10,20\n"
    )
    with pytest.raises(FormatError, match="sweep CSV line 3: unknown sweep family 'custom'"):
        read_sweep_csv(path)


def test_sweep_file_error_names_the_line_a_record_starts_on(tmp_path):
    # the quoted start field spans lines 2-3, so the bad size sits on line 4
    path = tmp_path / "sweep.csv"
    path.write_text(
        "family,start,size,direction,eer_percent,n_target,n_nontarget\n"
        'primary,"1\n",0,+,12.5,10,20\n'
        "primary,1,x,+,15.0,10,20\n"
    )
    with pytest.raises(FormatError) as caught:
        read_sweep_csv(path)
    assert str(caught.value) == "sweep CSV line 4: size must be an integer, got 'x'"
