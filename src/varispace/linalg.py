"""Dense double-precision numeric substrate: input validation, sample
covariance estimation, and a symmetric eigensolver (LAPACK via numpy).

Vectors are 1-D float64 arrays, matrices 2-D float64 arrays. All functions
are pure; returned arrays never alias their inputs, save where :func:`frozen` keeps one.
"""

from __future__ import annotations

import math
import numbers
import operator

import numpy as np

from .errors import DataError, NumericalError

# Relative asymmetry accepted by eig_sym before a matrix is rejected.
SYMMETRY_RTOL = 1e-9


def as_int(value, name: str) -> int:
    """An integer argument as an int. Anything else, a float or a numeric
    string included, raises DataError rather than being truncated."""
    try:
        return operator.index(value)
    except TypeError:
        raise DataError(f"{name} must be an integer, got {value!r}") from None


def as_real(value, name: str) -> float:
    """A real-number argument as a finite float. A bool, anything else that is
    not a ``numbers.Real`` and a value that is not finite raise DataError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise DataError(f"{name} must be a real number, got {value!r}")
    try:
        real = float(value)
    except OverflowError:
        real = math.inf
    if not math.isfinite(real):
        raise DataError(f"{name} must be finite, got {real!r}")
    return real


# per rank: what the array is called, its rank and its least size
_RANKS = {
    1: ("vector", "one-dimensional", "at least one entry"),
    2: ("matrix", "two-dimensional", "at least one row and one column"),
}


def as_array(values, name: str, ndim: int) -> np.ndarray:
    """Coerce to a finite float64 vector (``ndim`` 1) or matrix (``ndim`` 2)
    with no empty axis."""
    kind, rank, least = _RANKS[ndim]
    try:
        arr = np.asarray(values, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        # ragged rows, or entries that are not real numbers
        raise DataError(f"{name} is not a numeric {kind}: {exc}") from None
    if arr.ndim != ndim:
        raise DataError(f"{name} must be {rank}, got shape {arr.shape}")
    if arr.size < 1:
        raise DataError(f"{name} must have {least}")
    if not np.all(np.isfinite(arr)):
        raise DataError(f"{name} contains a non-finite entry")
    return arr


def frozen(given, name: str, ndim: int) -> np.ndarray:
    """``given`` checked by :func:`as_array` at rank ``ndim``, read-only: kept
    if the check made it from a list, a tuple or an array of another dtype, or
    if ``given`` is a read-only float64 owner; else copied."""
    arr = as_array(given, name, ndim)
    owned = isinstance(given, (np.ndarray, list, tuple)) and arr.base is None
    if not owned or arr is given and arr.flags.writeable:
        arr = arr.copy()
    arr.setflags(write=False)
    return arr


def check_finite(message: str, *arrays) -> None:
    """Raise NumericalError(message) unless every entry of ``arrays`` is
    finite. Callers compute from finite inputs under ``np.errstate``, so a
    non-finite entry means the arithmetic overflowed float64."""
    if not all(np.isfinite(a).all() for a in arrays):
        raise NumericalError(message)


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
    data = as_array(vectors, "observations", 2)
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
    peaks = basis[np.argmax(np.abs(basis), axis=0), np.arange(basis.shape[1])]
    basis[:, peaks < 0.0] *= -1.0


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
    s = as_array(matrix, "matrix", 2)
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
