"""Dense double-precision numeric substrate: input validation, sample
covariance estimation, and a symmetric eigensolver (LAPACK via numpy).

Vectors are 1-D float64 arrays, matrices 2-D float64 arrays. All functions
are pure; returned arrays never alias their inputs.
"""

from __future__ import annotations

import numpy as np

from .errors import DataError, NumericalError

# Relative asymmetry accepted by eig_sym before a matrix is rejected.
SYMMETRY_RTOL = 1e-9


def as_vector(values, name: str = "vector") -> np.ndarray:
    """Coerce to a finite 1-D float64 array of length >= 1."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise DataError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if arr.size < 1:
        raise DataError(f"{name} must have at least one entry")
    if not np.all(np.isfinite(arr)):
        raise DataError(f"{name} contains a non-finite entry")
    return arr


def as_matrix(values, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite 2-D float64 array with rows, cols >= 1."""
    try:
        arr = np.asarray(values, dtype=np.float64)
    except ValueError as exc:
        # ragged rows, or entries that are not numbers
        raise DataError(f"{name} is not a numeric matrix: {exc}") from None
    if arr.ndim != 2:
        raise DataError(f"{name} must be two-dimensional, got shape {arr.shape}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise DataError(f"{name} must have at least one row and one column")
    if not np.all(np.isfinite(arr)):
        raise DataError(f"{name} contains a non-finite entry")
    return arr


def covariance(vectors) -> np.ndarray:
    """Unbiased sample covariance of the rows of an (N, D) matrix (or of a
    sequence of N equal-length rows). N >= 2 is required.

    Returns
    -------
    (D, D) float64 array, exactly symmetric and positive semidefinite up to
    round-off.

    Raises
    ------
    NumericalError
        If the covariance of finite observations overflows float64.
    """
    data = as_matrix(vectors, "observations")
    n = data.shape[0]
    if n < 2:
        raise DataError(f"covariance requires at least 2 observations, got {n}")
    # Finite entries far from zero can still overflow the products; that is a
    # numerical failure of the fit, not bad data, so report it as such.
    with np.errstate(over="ignore", invalid="ignore"):
        centered = data - data.mean(axis=0)
        cov = centered.T @ centered / (n - 1)
        # BLAS accumulation order may differ across the diagonal; make symmetry exact.
        cov = 0.5 * (cov + cov.T)
    if not np.all(np.isfinite(cov)):
        raise NumericalError(
            f"covariance of {n} observations overflows float64 "
            f"(max |entry| {float(np.max(np.abs(data))):.3e})"
        )
    return cov


def fix_eigvec_signs(basis: np.ndarray) -> None:
    """Flip each column so its largest-magnitude entry (lowest index on
    ties) is positive. In-place."""
    for j in range(basis.shape[1]):
        col = basis[:, j]
        k = int(np.argmax(np.abs(col)))
        if col[k] < 0.0:
            # plain assignment, not np.negative(col, out=col): some SIMD numpy
            # builds mis-handle aliased out= on strided column views
            basis[:, j] = -col


def eig_sym(matrix) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a symmetric matrix by LAPACK (``np.linalg.eigh``).

    Returns
    -------
    (basis, eigenvalues):
        ``basis`` is (D, D) with orthonormal eigenvector columns,
        ``eigenvalues`` is (D,) sorted descending. Exactly tied eigenvalues
        keep LAPACK's order (a stable sort of its ascending output). Each
        eigenvector is signed so its largest-magnitude entry is positive.
        Output bytes are reproducible for a fixed BLAS build and thread
        count, not across them.

    Raises
    ------
    DataError
        If the input is not square, or not symmetric within
        ``SYMMETRY_RTOL`` relative asymmetry.
    NumericalError
        If LAPACK reports that the decomposition did not converge.
    """
    s = as_matrix(matrix, "matrix")
    d = s.shape[0]
    if s.shape[1] != d:
        raise DataError(f"matrix must be square, got shape {s.shape}")
    scale = float(np.max(np.abs(s)))
    asym = float(np.max(np.abs(s - s.T)))
    if asym > SYMMETRY_RTOL * scale:
        raise DataError(
            f"matrix is not symmetric: asymmetry {asym:.3e} exceeds "
            f"{SYMMETRY_RTOL:.0e} relative to max |entry| {scale:.3e}"
        )
    try:
        lam, v = np.linalg.eigh(0.5 * (s + s.T))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"symmetric eigensolver failed: {exc}") from None
    order = np.argsort(-lam, kind="stable")
    lam = lam[order]
    v = np.ascontiguousarray(v[:, order])
    fix_eigvec_signs(v)
    return v, lam
