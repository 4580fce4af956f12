import numpy as np
import pytest

from helpers import (
    assert_raises_exactly,
    cofactor_det,
    direct_covariance,
    eig2x2_charpoly,
    jacobi_eig_oracle,
)
from varispace import (
    DataError,
    EmbeddingSet,
    NumericalError,
    SubspaceSpec,
    Trial,
    TrialList,
    VariabilitySpace,
    build_enrollment,
    cosine,
    covariance,
    eig_sym,
    modify,
    modify_batch,
    modify_batch_with_energy,
    project,
    reconstruct,
    run_sweep,
    score_trials,
)
from varispace.linalg import fix_eigvec_signs


class TestCovariance:
    def test_two_points_on_axis(self):
        cov = covariance([np.array([1.0, 0.0]), np.array([-1.0, 0.0])])
        assert np.array_equal(cov, [[2.0, 0.0], [0.0, 0.0]])

    def test_identical_vectors_zero_variance(self):
        v = np.array([3.0, -1.0, 2.5])
        assert np.array_equal(covariance([v, v, v]), np.zeros((3, 3)))

    def test_matches_direct_definition(self):
        rng = np.random.default_rng(11)
        rows = [rng.integers(-5, 6, size=3).astype(float) for _ in range(4)]
        expected = direct_covariance(rows)
        assert np.max(np.abs(covariance(rows) - expected)) <= 1e-12

    def test_accepts_matrix_input(self):
        rng = np.random.default_rng(12)
        data = rng.standard_normal((10, 4))
        assert np.array_equal(covariance(data), covariance(list(data)))

    def test_exactly_symmetric_and_psd(self):
        rng = np.random.default_rng(13)
        for n, d in [(5, 3), (50, 12), (30, 30)]:
            cov = covariance(rng.standard_normal((n, d)) * rng.uniform(0.1, 4.0, d))
            assert np.array_equal(cov, cov.T)
            lam = np.linalg.eigvalsh(cov)
            assert lam[0] >= -1e-10 * max(lam[-1], 0.0)

    def test_insufficient_data(self):
        with pytest.raises(DataError):
            covariance([np.array([1.0, 2.0])])

    def test_mixed_dimensions(self):
        with pytest.raises(DataError):
            covariance([np.array([1.0, 2.0]), np.array([1.0, 2.0, 3.0])])

    def test_ragged_rows(self):
        with pytest.raises(DataError, match="not a numeric matrix"):
            covariance([[1.0, 2.0], [3.0], [4.0, 5.0]])

    def test_non_finite(self):
        with pytest.raises(DataError):
            covariance([np.array([1.0, np.nan]), np.array([0.0, 1.0])])

    def test_overflow_is_numerical_error(self):
        data = np.array([[1e200, 1.0], [-1e200, 2.0], [3e199, 0.5]])
        with pytest.raises(NumericalError, match="overflows"):
            covariance(data)


def numpy_reason(values):
    """What numpy says when ``values`` cannot become an array: ragged rows."""
    with pytest.raises((TypeError, ValueError)) as err:
        np.asarray(values)
    return str(err.value)


def first_cosine_operand(values):
    return cosine(values, [1.0, 0.0])


def embedding_vectors(values):
    return EmbeddingSet(("u",), ("s",), values)


class TestArrayChecks:
    """Each of ``as_array``'s five messages per rank, in full, through public
    entry points; ``{numpy}`` stands for numpy's own reason for ragged rows."""

    @pytest.mark.parametrize("check, values, message", [
        (first_cosine_operand, ["x", 1.0], "cosine operand is not a numeric vector: dtype <U32"),
        (first_cosine_operand, [[1.0], [0.0, 1.0]],
         "cosine operand is not a numeric vector: {numpy}"),
        (first_cosine_operand, [[1.0, 0.0]], "cosine operand must be one-dimensional, got shape (1, 2)"),
        (first_cosine_operand, 1.0, "cosine operand must be one-dimensional, got shape ()"),
        (first_cosine_operand, [], "cosine operand must have at least one entry"),
        (first_cosine_operand, [1.0, np.nan], "cosine operand contains a non-finite entry"),
        (covariance, [[1.0, 2.0], [3.0]], "observations is not a numeric matrix: {numpy}"),
        (covariance, [[1.0, "x"], [3.0, 4.0]], "observations is not a numeric matrix: dtype <U32"),
        (covariance, [1.0, 2.0], "observations must be two-dimensional, got shape (2,)"),
        (covariance, np.zeros((0, 2)), "observations must have at least one row and one column"),
        (covariance, np.zeros((2, 0)), "observations must have at least one row and one column"),
        (covariance, [[1.0, np.inf], [0.0, 0.0]], "observations contains a non-finite entry"),
        (embedding_vectors, [["1", "a"]], "embedding vectors is not a numeric matrix: dtype <U1"),
        (embedding_vectors, np.zeros((1, 1, 1)),
         "embedding vectors must be two-dimensional, got shape (1, 1, 1)"),
        (embedding_vectors, [[]], "embedding vectors must have at least one row and one column"),
        (embedding_vectors, [[-np.inf]], "embedding vectors contains a non-finite entry"),
    ])
    def test_message(self, check, values, message):
        if "{numpy}" in message:
            message = message.replace("{numpy}", numpy_reason(values))
        with pytest.raises(DataError) as err:
            check(values)
        assert str(err.value) == message


class TestEigSym:
    def test_already_diagonal(self):
        basis, lam = eig_sym(np.diag([1.0, 4.0, 2.0]))
        assert np.array_equal(lam, [4.0, 2.0, 1.0])
        # columns are coordinate axes e2, e3, e1 with +1 entries
        expected = np.zeros((3, 3))
        expected[1, 0] = expected[2, 1] = expected[0, 2] = 1.0
        assert np.array_equal(basis, expected)

    def test_2x2_against_characteristic_polynomial(self):
        s = np.array([[2.0, 1.0], [1.0, 2.0]])
        basis, lam = eig_sym(s)
        hi, lo = eig2x2_charpoly(s)
        assert lam == pytest.approx([hi, lo], abs=1e-12)
        assert lam == pytest.approx([3.0, 1.0], abs=1e-12)
        inv_sqrt2 = 1.0 / np.sqrt(2.0)
        assert basis[:, 0] == pytest.approx([inv_sqrt2, inv_sqrt2], abs=1e-12)
        assert basis[:, 1] == pytest.approx([inv_sqrt2, -inv_sqrt2], abs=1e-12)

    def test_identity_untouched(self):
        basis, lam = eig_sym(np.eye(5))
        assert np.array_equal(basis, np.eye(5))
        assert np.array_equal(lam, np.ones(5))

    def test_random_orthonormality_and_residual(self):
        rng = np.random.default_rng(21)
        for d in (2, 5, 13, 33, 64):
            m = rng.standard_normal((d, d))
            s = 0.5 * (m + m.T)
            basis, lam = eig_sym(s)
            assert np.max(np.abs(basis.T @ basis - np.eye(d))) <= 1e-8
            residual = np.max(np.abs(s @ basis - basis * lam))
            assert residual <= 1e-7 * (1.0 + np.max(np.abs(s)))
            assert np.all(np.diff(lam) <= 0.0)

    def test_trace_and_determinant(self):
        rng = np.random.default_rng(22)
        for d in (2, 3, 4, 5, 6):
            m = rng.uniform(-1.0, 1.0, (d, d))
            s = 0.5 * (m + m.T) + np.eye(d)  # lift away from singularity
            _, lam = eig_sym(s)
            trace = float(np.trace(s))
            assert abs(float(np.sum(lam)) - trace) <= 1e-8 * max(1.0, abs(trace))
            det = cofactor_det(s)
            assert abs(float(np.prod(lam)) - det) <= 1e-6 * max(1e-6, abs(det))

    def test_sign_convention(self):
        rng = np.random.default_rng(23)
        m = rng.standard_normal((7, 7))
        basis, _ = eig_sym(0.5 * (m + m.T))
        for j in range(7):
            col = basis[:, j]
            assert col[int(np.argmax(np.abs(col)))] > 0.0

    def test_sign_tie_goes_to_lowest_index(self):
        a = 0.5
        basis = np.array([[-a, a, 0.1, 0.0], [a, -a, -0.9, 0.0], [0.1, 0.2, 0.3, 0.0]])
        expected = np.array([[a, a, -0.1, 0.0], [-a, -a, 0.9, 0.0], [-0.1, 0.2, -0.3, 0.0]])
        fix_eigvec_signs(basis)
        assert basis.tobytes() == expected.tobytes()

    def test_sign_pinning_matches_column_loop(self):
        # small integers make ties between entries of a column common
        rng = np.random.default_rng(26)
        for _ in range(200):
            basis = rng.integers(-2, 3, size=(int(rng.integers(1, 6)), 5)).astype(float)
            expected = basis.copy()
            for j in range(expected.shape[1]):
                col = expected[:, j]
                if col[int(np.argmax(np.abs(col)))] < 0.0:
                    expected[:, j] = -col
            fix_eigvec_signs(basis)
            assert basis.tobytes() == expected.tobytes()

    def test_tied_spectrum_compares_as_projector(self):
        # two equal eigenvalues: individual vectors are arbitrary inside the
        # eigenspace, the spanned projector is not
        q, _ = np.linalg.qr(np.random.default_rng(24).standard_normal((4, 4)))
        s = q @ np.diag([3.0, 3.0, 1.0, 0.5]) @ q.T
        s = 0.5 * (s + s.T)
        basis, lam = eig_sym(s)
        assert lam == pytest.approx([3.0, 3.0, 1.0, 0.5], abs=1e-9)
        p_fit = basis[:, :2] @ basis[:, :2].T
        p_true = q[:, :2] @ q[:, :2].T
        assert np.max(np.abs(p_fit - p_true)) <= 1e-9

    def test_determinism_bitwise(self):
        rng = np.random.default_rng(25)
        m = rng.standard_normal((16, 16))
        s = 0.5 * (m + m.T)
        v1, l1 = eig_sym(s)
        v2, l2 = eig_sym(s.copy())
        assert v1.tobytes() == v2.tobytes()
        assert l1.tobytes() == l2.tobytes()

    def test_asymmetric_rejected(self):
        with pytest.raises(DataError):
            eig_sym(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_lapack_failure_is_numerical_error(self, monkeypatch):
        def fail(_):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        with pytest.raises(NumericalError, match="did not converge"):
            eig_sym(np.eye(3))

    def test_single_dimension(self):
        basis, lam = eig_sym(np.array([[4.0]]))
        assert np.array_equal(basis, [[1.0]])
        assert np.array_equal(lam, [4.0])


class TestJacobiOracle:
    def test_non_convergence_reported(self):
        m = np.random.default_rng(26).standard_normal((6, 6))
        s = 0.5 * (m + m.T)
        with pytest.raises(NumericalError):
            jacobi_eig_oracle(s, max_sweeps=1)


# each raise branch no other test reaches: the call, its error, its message
RAISES = {
    "eig-not-square": (lambda: eig_sym(np.ones((2, 3))), DataError,
                       "matrix must be square, got shape (2, 3)"),
}


@pytest.mark.parametrize("call, error, message", RAISES.values(), ids=RAISES.keys())
def test_raise_branch_message(call, error, message):
    assert_raises_exactly(call, error, message)


# finite inputs whose arithmetic overflows float64; the basis is a rotation,
# so removing its first column leaves a finite coefficient but overflowing rows
ROTATION = VariabilitySpace(
    mean=np.zeros(2), basis=[[0.6, -0.8], [0.8, 0.6]], eigenvalues=[2.0, 1.0]
)
AXES = VariabilitySpace(mean=np.zeros(2), basis=np.eye(2), eigenvalues=[2.0, 1.0])
FIRST = SubspaceSpec(1, 1, "+")
HUGE = EmbeddingSet(("u1", "u2"), ("a", "b"), [[1e200, -1e200], [1.0, 2.0]])
PAIR = TrialList((Trial("a", "u1", True), Trial("b", "u1", False)))
MODELS = {"a": np.array([1.0, 0.0]), "b": np.array([0.0, 1.0])}
COSINE = "cosine: a norm or inner product overflows float64"

# every float64 overflow in the package: one NumericalError from check_finite
OVERFLOWS = {
    "covariance": (lambda: covariance([[1e300], [-1e300], [1e300]]),
                   "covariance of 3 observations overflows float64"),
    "build_enrollment": (lambda: build_enrollment(HUGE, "a"),
                         "speaker 'a': enrollment model norm overflows float64"),
    "cosine": (lambda: cosine([1e200, -1e200], [1.0, 0.0]), COSINE),
    "score_trials": (lambda: score_trials(MODELS, HUGE, PAIR), COSINE),
    "run_sweep": (lambda: run_sweep(AXES, HUGE, PAIR, "residual", [0]), COSINE),
    "project": (lambda: project(ROTATION, [1.7e308, 1.7e308]),
                "projection overflows float64"),
    "reconstruct": (lambda: reconstruct(ROTATION, [1.7e308, 1.7e308]),
                    "reconstruction overflows float64"),
    "modify-rows": (lambda: modify(ROTATION, [1.7e308, -1.7e308], FIRST),
                    "modified embeddings overflow float64"),
    "modify-energy": (lambda: modify(AXES, [1e200, -1e200], FIRST),
                      "removed energy overflows float64"),
    "modify_batch-rows": (
        lambda: modify_batch(ROTATION, EmbeddingSet(("u",), ("a",), [[1.7e308, -1.7e308]]), FIRST),
        "modified embeddings overflow float64",
    ),
    "modify_batch_with_energy-energy": (lambda: modify_batch_with_energy(AXES, HUGE, FIRST),
                                        "removed energy overflows float64"),
}


@pytest.mark.parametrize("call, message", OVERFLOWS.values(), ids=OVERFLOWS.keys())
def test_every_overflow_is_one_numerical_error(call, message):
    assert_raises_exactly(call, NumericalError, message)
