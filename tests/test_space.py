import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    assert_raises_exactly,
    deltas_to_eigenvalues,
    plant_deltas,
    scan_turning,
    turning_flags,
)
from varispace import (
    DataError,
    DeltaSpectrum,
    EmbeddingSet,
    FormatError,
    VariabilitySpace,
    delta_spectrum,
    detect_turning,
    fit,
    load_space,
    log_spectrum,
    project,
    read_spectrum_csv,
    reconstruct,
    save_space,
    write_spectrum_csv,
)
from varispace.space import floor_epsilon


def _set_from_rows(rows, spk="s"):
    rows = np.asarray(rows, dtype=float)
    return EmbeddingSet(
        tuple(f"u{i}" for i in range(len(rows))),
        tuple(spk for _ in rows),
        rows,
    )


def _space_with_eigenvalues(lam):
    lam = np.asarray(lam, dtype=float)
    d = lam.size
    return VariabilitySpace(mean=np.zeros(d), basis=np.eye(d), eigenvalues=lam)


def _random_space(rng, d, n=None):
    n = n or 3 * d
    data = rng.standard_normal((n, d)) * rng.uniform(0.2, 3.0, size=d)
    return fit(_set_from_rows(data))


class TestFit:
    def test_one_dimensional_variance(self):
        space = fit(_set_from_rows([[1, 0], [-1, 0], [2, 0], [-2, 0]]))
        assert space.eigenvalues == pytest.approx([10.0 / 3.0, 0.0], abs=1e-12)
        assert space.basis[:, 0] == pytest.approx([1.0, 0.0], abs=1e-12)
        assert space.mean == pytest.approx([0.0, 0.0])

    def test_identical_vectors_zero_spectrum(self):
        space = fit(_set_from_rows([[2.0, 1.0, 3.0]] * 5))
        assert np.array_equal(space.eigenvalues, np.zeros(3))

    def test_planted_dominant_block(self):
        # between-speaker variance on 8 of 32 dims dominates the spectrum
        from varispace import PopulationConfig, generate

        config = PopulationConfig(
            n_speakers=100,
            utts_per_speaker=20,
            dim=32,
            between_variances=np.concatenate([np.full(8, 0.9), np.zeros(24)]),
            within_variances=np.full(32, 0.02),
            seed=515,
        )
        space = fit(generate(config))
        lam = space.eigenvalues
        assert np.all(lam[:8] >= 5.0 * lam[8])

    def test_warns_when_underdetermined(self):
        rng = np.random.default_rng(1)
        with pytest.warns(UserWarning):
            fit(_set_from_rows(rng.standard_normal((4, 6))))


class TestProjectReconstruct:
    def test_identity_basis(self):
        space = _space_with_eigenvalues([2.0, 1.0])
        x = np.array([0.3, -0.7])
        assert np.array_equal(project(space, x), x)
        assert np.array_equal(reconstruct(space, [3.0, 4.0]), [3.0, 4.0])

    def test_rotated_basis_matches_matvec(self):
        inv_sqrt2 = 1.0 / math.sqrt(2.0)
        basis = np.array([[inv_sqrt2, inv_sqrt2], [inv_sqrt2, -inv_sqrt2]])
        space = VariabilitySpace(
            mean=np.zeros(2), basis=basis, eigenvalues=np.array([1.0, 0.5])
        )
        coeff = project(space, [1.0, 0.0])
        assert coeff == pytest.approx([inv_sqrt2, inv_sqrt2], abs=1e-15)

    def test_zero_coefficients(self):
        space = _space_with_eigenvalues([1.0, 1.0, 1.0])
        assert np.array_equal(reconstruct(space, np.zeros(3)), np.zeros(3))

    def test_round_trip_and_parseval(self):
        rng = np.random.default_rng(42)
        for d in (2, 5, 9, 17):
            space = _random_space(rng, d)
            for _ in range(20):
                x = rng.uniform(-1.0, 1.0, d) * 1e3
                coeff = project(space, x)
                assert np.max(np.abs(reconstruct(space, coeff) - x)) <= 1e-9
                assert abs(np.linalg.norm(coeff) - np.linalg.norm(x)) <= 1e-9 * np.linalg.norm(x)

    def test_dimension_mismatch(self):
        space = _space_with_eigenvalues([1.0, 1.0])
        with pytest.raises(DataError):
            project(space, [1.0, 2.0, 3.0])
        with pytest.raises(DataError):
            reconstruct(space, [1.0])


class TestSpectra:
    def test_exact_logs(self):
        space = _space_with_eigenvalues([math.e**2, math.e, 1.0])
        assert log_spectrum(space) == pytest.approx([2.0, 1.0, 0.0], abs=1e-15)

    def test_floor_applied(self):
        space = _space_with_eigenvalues([1.0, 0.0])
        logs = log_spectrum(space)
        assert logs[0] == 0.0
        assert logs[1] == pytest.approx(math.log(1e-12))
        assert np.all(np.isfinite(logs))

    def test_all_zero_spectrum_finite(self):
        space = fit(_set_from_rows([[1.0, 1.0]] * 3))
        assert np.all(np.isfinite(log_spectrum(space)))

    @pytest.mark.parametrize("top", [5e-324, 1e-315])
    def test_underflowing_floor_falls_back(self, top):
        # 1e-12 * top underflows to 0.0, and log(0.0) is -inf
        space = _space_with_eigenvalues([top, 0.0])
        assert floor_epsilon(space.eigenvalues) == 1e-300
        assert np.array_equal(log_spectrum(space), np.full(2, math.log(1e-300)))

    def test_delta_direct_subtraction(self):
        space = _space_with_eigenvalues([math.e**4, math.e**2, math.e])
        deltas = delta_spectrum(space)
        assert deltas.values == pytest.approx([-2.0, -1.0], abs=1e-14)
        assert len(deltas) == 2

    def test_equal_eigenvalues_zero_deltas(self):
        space = _space_with_eigenvalues([2.0, 2.0, 2.0, 2.0])
        assert np.array_equal(delta_spectrum(space).values, np.zeros(3))

    def test_deltas_non_positive(self):
        rng = np.random.default_rng(44)
        for d in (3, 8, 20):
            space = _random_space(rng, d)
            assert np.all(delta_spectrum(space).values <= 1e-12)

    def test_scale_equivariance(self):
        rng = np.random.default_rng(45)
        data = rng.standard_normal((40, 6)) * rng.uniform(0.5, 2.0, 6)
        space1 = fit(_set_from_rows(data))
        space2 = fit(_set_from_rows(2.0 * data))
        shift = log_spectrum(space2) - log_spectrum(space1)
        assert np.max(np.abs(shift - 2.0 * math.log(2.0))) <= 1e-8
        gap = delta_spectrum(space2).values - delta_spectrum(space1).values
        assert np.max(np.abs(gap)) <= 1e-8

    def test_needs_two_dimensions(self):
        space = _space_with_eigenvalues([1.0])
        with pytest.raises(DataError):
            delta_spectrum(space)


class TestDetectTurning:
    def test_worked_example(self):
        deltas = DeltaSpectrum(
            values=np.array([-0.10, -0.11, -0.09, -0.10, -0.2, -0.4, -0.8]),
            floor_epsilon=1e-12,
        )
        result = detect_turning(deltas, window=3, oscillation_tol=0.05)
        assert result.index == 5
        assert not result.weak
        # the exhaustive scan oracle agrees
        assert scan_turning(list(deltas.values), 3, 0.05) == (5, False)

    def test_monotone_throughout(self):
        deltas = DeltaSpectrum(
            values=np.array([-0.1, -0.2, -0.4, -0.8, -1.6, -3.2]), floor_epsilon=1e-12
        )
        result = detect_turning(deltas, window=3, oscillation_tol=0.05)
        assert (result.index, result.weak) == (1, False)

    def test_weak_fallback(self):
        # oscillation right up to a two-point suffix: nothing breaks out of
        # the corridor, so the longest monotone suffix is reported as weak
        values = np.array([-0.1, -0.3, -0.1, -0.3, -0.1, -0.3, -0.15, -0.2])
        result = detect_turning(
            DeltaSpectrum(values=values, floor_epsilon=1e-12), window=3, oscillation_tol=0.5
        )
        assert result.weak
        assert result.index == scan_turning(list(values), 3, 0.5)[0]

    def test_planted_spectra_match_oracle(self):
        rng = np.random.default_rng(46)
        for case in range(25):
            window = int(rng.integers(3, 11))
            length = int(rng.integers(window + 3, 60))
            knee = int(rng.integers(window + 1, length))
            tol = float(rng.uniform(0.02, 0.1))
            values = plant_deltas(rng, length, knee, window, tol)
            result = detect_turning(
                DeltaSpectrum(values=values, floor_epsilon=1e-12),
                window=window,
                oscillation_tol=tol,
            )
            assert (result.index, result.weak) == (knee, False), f"case {case}"
            assert scan_turning(list(values), window, tol) == (knee, False)

    def test_result_in_range_and_deterministic(self):
        rng = np.random.default_rng(47)
        for _ in range(50):
            values = -np.abs(rng.standard_normal(int(rng.integers(13, 40))))
            deltas = DeltaSpectrum(values=values, floor_epsilon=1e-12)
            first = detect_turning(deltas)
            second = detect_turning(deltas)
            assert first.index == second.index
            assert first.weak == second.weak
            assert 1 <= first.index <= len(values)

    def test_too_short(self):
        deltas = DeltaSpectrum(values=np.array([-0.1]), floor_epsilon=1e-12)
        with pytest.raises(DataError):
            detect_turning(deltas, window=10)

    def test_tail_flags_match_scan(self):
        # few distinct magnitudes, so neighbouring deltas often tie
        rng = np.random.default_rng(49)
        for _ in range(200):
            values = -rng.integers(0, 4, size=int(rng.integers(12, 30))) / 4.0
            result = detect_turning(DeltaSpectrum(values=values, floor_epsilon=1e-12))
            expected = [
                all(abs(values[j]) <= abs(values[j + 1]) for j in range(t, len(values) - 1))
                for t in range(len(values))
            ]
            assert result.tail_monotone.tolist() == expected

    def test_trace_covers_all_candidates(self):
        values = plant_deltas(np.random.default_rng(48), 30, 15, 5, 0.05)
        result = detect_turning(
            DeltaSpectrum(values=values, floor_epsilon=1e-12), window=5, oscillation_tol=0.05
        )
        for flags in (result.tail_monotone, result.window_stable, result.breaks_out):
            assert flags.shape == (30,) and flags.dtype == bool and not flags.flags.writeable
        assert result.tail_monotone[14] and result.window_stable[14] and result.breaks_out[14]


# any value, a few exact quarters (so neighbours tie) and exact decimals
delta_values = st.one_of(
    st.floats(-2.0, 2.0),
    st.integers(-8, 8).map(lambda k: k / 4),
    st.integers(-20, 20).map(lambda k: k / 10),
)


@st.composite
def turning_cases(draw):
    window = draw(st.integers(1, 15))
    tol = draw(st.one_of(st.sampled_from([0.05, 0.1, 0.25, 0.5]), st.floats(0.01, 0.6)))
    if draw(st.booleans()):
        values = draw(st.lists(delta_values, min_size=window + 2, max_size=300))
    else:
        length = draw(st.integers(window + 2, 300))
        knee = draw(st.integers(window + 1, length - 1))
        seed = draw(st.integers(0, 2**32))
        values = plant_deltas(np.random.default_rng(seed), length, knee, window, tol).tolist()
    return values, window, tol


class TestTurningFlagsOracle:
    @settings(max_examples=60, deadline=None)
    @given(case=turning_cases())
    def test_flags_equal_one_candidate_at_a_time(self, case):
        values, window, tol = case
        result = detect_turning(
            DeltaSpectrum(values=np.array(values), floor_epsilon=1e-12),
            window=window,
            oscillation_tol=tol,
        )
        tail, stable, breaks, spreads, distances = turning_flags(values, window, tol)
        # away from the tolerance, rounding cannot flip a check
        clear = [abs(s - tol) > 1e-12 and abs(d - tol) > 1e-12
                 for s, d in zip(spreads, distances)]
        assert result.tail_monotone.tolist() == tail
        for got, expected in ((result.window_stable, stable), (result.breaks_out, breaks)):
            assert [g for g, c in zip(got.tolist(), clear) if c] == [
                e for e, c in zip(expected, clear) if c
            ]
        if all(clear):
            assert (result.index, result.weak) == scan_turning(values, window, tol)


class TestSpaceSerialization:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(49)
        space = _random_space(rng, 7)
        path = tmp_path / "space.vsp"
        save_space(space, path)
        loaded = load_space(path)
        assert loaded.mean.tobytes() == space.mean.tobytes()
        assert loaded.eigenvalues.tobytes() == space.eigenvalues.tobytes()
        assert loaded.basis.tobytes() == space.basis.tobytes()
        second = tmp_path / "space2.vsp"
        save_space(loaded, second)
        assert second.read_bytes() == path.read_bytes()

    def test_hand_built_file_loads_and_saves_back(self, tmp_path):
        # README "File formats", one field at a time: magic, u32 version, u32 D,
        # then little-endian f64 mean[D], eigenvalues[D] and the basis row-major
        mean = [0.25, -3.5, 1e-300]
        eigenvalues = [4.0, 1.5, 0.0]
        basis = [[0.6, -0.8, 0.0], [0.0, 0.0, -1.0], [0.8, 0.6, 0.0]]
        blob = b"VSP1" + struct.pack("<I", 1) + struct.pack("<I", 3)
        for value in mean + eigenvalues + [v for row in basis for v in row]:
            blob += struct.pack("<d", value)
        path = tmp_path / "fixture.vsp"
        path.write_bytes(blob)
        space = load_space(path)
        assert space.mean.tobytes() == np.array(mean).tobytes()
        assert space.eigenvalues.tobytes() == np.array(eigenvalues).tobytes()
        assert space.basis.tobytes() == np.array(basis).tobytes()
        assert space.basis[2, 0] == 0.8  # column 0 is the first eigenvector
        again = tmp_path / "again.vsp"
        save_space(space, again)
        assert again.read_bytes() == blob

    def test_dimension_256_loads(self, tmp_path):
        lam = np.sort(np.random.default_rng(50).uniform(0.1, 5.0, 256))[::-1].copy()
        space = VariabilitySpace(mean=np.zeros(256), basis=np.eye(256), eigenvalues=lam)
        path = tmp_path / "big.vsp"
        save_space(space, path)
        assert load_space(path).dim == 256

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "space.vsp"
        space = _space_with_eigenvalues([2.0, 1.0])
        save_space(space, path)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"NOPE"
        path.write_bytes(bytes(blob))
        assert_raises_exactly(
            lambda: load_space(path), FormatError, "bad space file magic b'NOPE', expected b'VSP1'"
        )

    def test_truncation(self, tmp_path):
        path = tmp_path / "space.vsp"
        save_space(_space_with_eigenvalues([2.0, 1.0]), path)
        path.write_bytes(path.read_bytes()[:-8])
        assert_raises_exactly(
            lambda: load_space(path), FormatError,
            "space file length 68 inconsistent with declared dimension 2 (expected 76)",
        )

    def test_inconsistent_declared_dimension(self, tmp_path):
        path = tmp_path / "space.vsp"
        save_space(_space_with_eigenvalues([2.0, 1.0]), path)
        blob = bytearray(path.read_bytes())
        blob[8] = 3  # declared D, little-endian u32 at offset 8
        path.write_bytes(bytes(blob))
        assert_raises_exactly(
            lambda: load_space(path), FormatError,
            "space file length 76 inconsistent with declared dimension 3 (expected 132)",
        )

    def test_bad_version(self, tmp_path):
        path = tmp_path / "space.vsp"
        save_space(_space_with_eigenvalues([2.0, 1.0]), path)
        blob = bytearray(path.read_bytes())
        blob[4] = 2
        path.write_bytes(bytes(blob))
        assert_raises_exactly(
            lambda: load_space(path), FormatError, "unsupported space file version 2"
        )


class TestSpectrumCsv:
    def test_shape_and_reparse(self, tmp_path):
        rng = np.random.default_rng(51)
        space = _random_space(rng, 16)
        path = tmp_path / "spectrum.csv"
        write_spectrum_csv(space, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "index,log_eigenvalue,delta"
        assert len(lines) == 17
        assert lines[-1].endswith(",")
        logs, deltas = read_spectrum_csv(path)
        assert np.array_equal(logs, log_spectrum(space))
        assert np.array_equal(deltas, delta_spectrum(space).values)

    def test_deltas_equal_log_differences(self, tmp_path):
        space = _random_space(np.random.default_rng(52), 9)
        path = tmp_path / "spectrum.csv"
        write_spectrum_csv(space, path)
        logs, deltas = read_spectrum_csv(path)
        assert deltas == pytest.approx(np.diff(logs), abs=1e-12)

    @pytest.mark.parametrize("row", ["x,0.5,-0.1", "1,0.5,y"])
    def test_non_numeric_field_names_line(self, tmp_path, row):
        path = tmp_path / "spectrum.csv"
        path.write_text(f"index,log_eigenvalue,delta\n{row}\n2,0.4,\n")
        with pytest.raises(FormatError, match="spectrum CSV line 2: .*'[xy]'"):
            read_spectrum_csv(path)


class TestVariabilitySpaceValidation:
    def test_rejects_non_orthonormal_basis(self):
        with pytest.raises(DataError):
            VariabilitySpace(
                mean=np.zeros(2),
                basis=np.array([[1.0, 0.5], [0.0, 1.0]]),
                eigenvalues=np.array([2.0, 1.0]),
            )

    @pytest.mark.parametrize(
        "basis",
        [[[1e300]], [[1e300, 1e300], [-1e300, 1e300]]],
        ids=["gram-overflows", "gram-is-nan"],
    )
    def test_rejects_huge_basis_without_warning(self, basis):
        basis = np.array(basis)
        with pytest.raises(DataError, match="not orthonormal"):
            VariabilitySpace(mean=np.zeros(len(basis)), basis=basis,
                             eigenvalues=np.arange(len(basis), 0.0, -1.0))

    def test_rejects_unsorted_eigenvalues(self):
        with pytest.raises(DataError):
            _space_with_eigenvalues([1.0, 2.0])

    def test_rejects_negative_eigenvalues(self):
        with pytest.raises(DataError):
            _space_with_eigenvalues([1.0, -0.5])

    def test_planted_eigenvalue_helper_round_trips(self):
        values = np.array([-0.5, -0.25, -1.0])
        lam = deltas_to_eigenvalues(values)
        space = _space_with_eigenvalues(lam)
        assert delta_spectrum(space).values == pytest.approx(values, abs=1e-12)


def _spectrum_file(tmp_path, body):
    path = tmp_path / "spectrum.csv"
    path.write_text("index,log_eigenvalue,delta\n" + body)
    return path


def _space_file(tmp_path, blob):
    path = tmp_path / "space.vsp"
    path.write_bytes(blob)
    return path


DELTAS = DeltaSpectrum([-0.5, -0.25, -0.125, -0.0625], 1e-12)

# each raise branch no other test reaches: the call, its error, its message
RAISES = {
    "turning-window-below-one": (lambda tmp: detect_turning(DELTAS, window=0), DataError,
                                 "window must be >= 1, got 0"),
    "turning-zero-tolerance": (lambda tmp: detect_turning(DELTAS, oscillation_tol=0.0),
                               DataError, "oscillation tolerance must be positive"),
    "turning-negative-tolerance": (lambda tmp: detect_turning(DELTAS, oscillation_tol=-0.1),
                                   DataError, "oscillation tolerance must be positive"),
    "spectrum-index-order": (
        lambda tmp: read_spectrum_csv(_spectrum_file(tmp, "1,0.5,-0.1\n3,0.4,\n")),
        FormatError, "spectrum CSV line 3: index out of order",
    ),
    "spectrum-index-order-after-blank-line": (
        lambda tmp: read_spectrum_csv(_spectrum_file(tmp, "1,0.5,-0.1\n\n3,0.4,\n")),
        FormatError, "spectrum CSV line 4: index out of order",
    ),
    "spectrum-width": (
        lambda tmp: read_spectrum_csv(_spectrum_file(tmp, "1,0.5,-0.1\n2,0.4\n")),
        FormatError, "spectrum CSV line 3: expected 3 fields, got 2",
    ),
    "space-header-truncated": (
        lambda tmp: load_space(_space_file(tmp, b"VSP1" + struct.pack("<I", 1))),
        FormatError, "space file truncated: 8 bytes",
    ),
    "space-declares-dimension-0": (
        lambda tmp: load_space(_space_file(tmp, b"VSP1" + struct.pack("<II", 1, 0))),
        DataError, "space file declares dimension 0",
    ),
    "spectrum-empty-delta-not-last": (
        lambda tmp: read_spectrum_csv(_spectrum_file(tmp, "1,0.5,\n2,0.4,\n")),
        FormatError, "spectrum CSV line 2: delta must be empty on the last row only",
    ),
    "spectrum-no-rows": (
        lambda tmp: read_spectrum_csv(_spectrum_file(tmp, "")),
        FormatError, "spectrum CSV has no rows",
    ),
}


@pytest.mark.parametrize("call, error, message", RAISES.values(), ids=RAISES.keys())
def test_raise_branch_message(call, error, message, tmp_path):
    assert_raises_exactly(lambda: call(tmp_path), error, message)
