"""Dense double-precision numeric substrate: input validation and parsing,
sample covariance estimation, and a symmetric eigensolver (LAPACK via numpy).

Vectors are 1-D float64 arrays, matrices 2-D float64 arrays. All functions
are pure; returned arrays never alias their inputs, save where :func:`frozen`
keeps one and where :func:`as_array` returns a float64 array as itself.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from .errors import DataError, NumericalError

# Relative asymmetry accepted by eig_sym before a matrix is rejected.
SYMMETRY_RTOL = 1e-9


def as_int(value, name: str, least: int | None = None) -> int:
    """An integer argument as an int, at least ``least`` if given. Anything else,
    a bool, a float or a numeric string included, raises DataError."""
    try:
        if isinstance(value, (bool, np.bool_)):
            raise TypeError
        n = operator.index(value)
    except TypeError:
        raise DataError(f"{name} must be an integer, got {value!r}") from None
    if least is not None and n < least:
        raise DataError(f"{name} must be >= {least}, got {n}")
    return n


def as_real(value, name: str) -> float:
    """A real-number argument as a finite float: a Python or numpy int or
    float, the kinds :func:`as_array` admits. Anything else (a bool, a
    ``Fraction``, a numpy timedelta) and a non-finite value raise DataError."""
    # numpy's timedelta64 subclasses its integer type
    if isinstance(value, (bool, np.timedelta64)) or not isinstance(
        value, (int, float, np.integer, np.floating)
    ):
        raise DataError(f"{name} must be a real number, got {value!r}")
    try:
        real = float(value)
    except OverflowError:
        real = math.inf
    if not math.isfinite(real):
        raise DataError(f"{name} must be finite, got {real!r}")
    return real


def parse_number(convert, text: str, name: str):
    """``convert(text)``, ``convert`` being ``int`` or ``float``, for ASCII text
    without ``_``: the rule for every number written as text, so ``+3`` and
    `` 7 `` are integers but ``1_0``, ``٥`` and ``0x10`` are not. Anything
    else raises DataError."""
    if text.isascii() and "_" not in text:
        try:
            return convert(text)
        except ValueError:
            pass
    kind = "an integer" if convert is int else "a real number"
    raise DataError(f"{name} must be {kind}, got {text!r}")


def parse_int(text: str, name: str, least: int | None = None) -> int:
    """:func:`as_int` of an integer field read by :func:`parse_number`."""
    return as_int(parse_number(int, text, name), name, least)


def parse_real(text: str, name: str) -> float:
    """:func:`as_real` of a real-number field read by :func:`parse_number`."""
    return as_real(parse_number(float, text, name), name)


# per rank: what the array is called, its rank and its least size
_RANKS = {
    1: ("vector", "one-dimensional", "at least one entry"),
    2: ("matrix", "two-dimensional", "at least one row and one column"),
}


def as_array(values, name: str, ndim: int) -> np.ndarray:
    """A finite float64 vector (``ndim`` 1) or matrix (``ndim`` 2) with no
    empty axis, from values of an integer or float dtype: any other dtype
    raises DataError. A float64 array comes back as itself."""
    kind, rank, least = _RANKS[ndim]
    try:
        arr = np.asarray(values)
    except (TypeError, ValueError) as exc:
        # ragged rows
        raise DataError(f"{name} is not a numeric {kind}: {exc}") from None
    if arr.dtype.kind not in "iuf":
        raise DataError(f"{name} is not a numeric {kind}: dtype {arr.dtype}")
    # a longdouble beyond float64 becomes inf, rejected below
    with np.errstate(over="ignore"):
        arr = arr.astype(np.float64, copy=False)
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
    check_finite(f"covariance of {n} observations overflows float64", cov)
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
