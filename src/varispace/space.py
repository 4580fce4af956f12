"""Fit, persist, and interrogate the embedding variability space.

The space is the eigenbasis of the sample covariance of a set of speaker
embeddings: an orthonormal basis sorted by descending eigenvalue, plus the
training mean. Projection and reconstruction move raw embeddings in and out
of coefficient space; the log-eigenvalue spectrum and its deltas drive
turning-point (knee) detection for choosing modification subspaces.
"""

from __future__ import annotations

import struct
import warnings
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .embeddings import EmbeddingSet, read_table, write_table
from .errors import DataError, FormatError
from .linalg import as_array, as_int, as_real, check_finite, covariance, eig_sym, frozen

SPACE_MAGIC = b"VSP1"
SPACE_VERSION = 1

ORTHONORMALITY_TOL = 1e-8


@dataclass(frozen=True)
class VariabilitySpace:
    """Immutable fitted variability space.

    ``basis`` is (D, D) with eigenvector columns; ``eigenvalues`` is (D,)
    sorted descending and non-negative; ``mean`` is the training sample mean.
    """

    mean: np.ndarray
    basis: np.ndarray
    eigenvalues: np.ndarray

    def __post_init__(self):
        for name, ndim in (("mean", 1), ("basis", 2), ("eigenvalues", 1)):
            object.__setattr__(self, name, frozen(getattr(self, name), name, ndim))
        mean, basis, eigenvalues = self.mean, self.basis, self.eigenvalues
        d = mean.size
        if basis.shape != (d, d):
            raise DataError(
                f"basis shape {basis.shape} inconsistent with dimension {d}"
            )
        if eigenvalues.size != d:
            raise DataError(
                f"eigenvalues length {eigenvalues.size} inconsistent with dimension {d}"
            )
        # a huge finite basis overflows the Gram matrix: inf or nan, rejected
        with np.errstate(over="ignore", invalid="ignore"):
            gram_err = float(np.max(np.abs(basis.T @ basis - np.eye(d))))
        if not gram_err <= ORTHONORMALITY_TOL:
            raise DataError(
                f"basis columns are not orthonormal: max deviation {gram_err:.3e}"
            )
        if np.any(np.diff(eigenvalues) > 0.0):
            raise DataError("eigenvalues must be sorted in descending order")
        if eigenvalues[-1] < 0.0:
            raise DataError("eigenvalues must be non-negative")

    @property
    def dim(self) -> int:
        return self.mean.size


@dataclass(frozen=True)
class DeltaSpectrum:
    """Consecutive differences of the floored log-eigenvalue spectrum
    (length D-1), plus the eigenvalue floor that was applied before logs."""

    values: np.ndarray
    floor_epsilon: float

    def __post_init__(self):
        object.__setattr__(self, "values", frozen(self.values, "delta values", 1))
        object.__setattr__(self, "floor_epsilon", as_real(self.floor_epsilon, "floor epsilon"))

    def __len__(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class TurningPoint:
    """Detected turning dimension. ``weak`` marks the fallback answer (start
    of the longest monotone-magnitude suffix) used when no index satisfies
    all checks. Always a candidate for human confirmation, never a verdict.
    The read-only bool arrays hold each check's outcome, candidate t at t-1."""

    index: int
    weak: bool
    tail_monotone: np.ndarray = field(repr=False, compare=False)
    window_stable: np.ndarray = field(repr=False, compare=False)
    breaks_out: np.ndarray = field(repr=False, compare=False)


def fit(embeddings: EmbeddingSet) -> VariabilitySpace:
    """Fit the variability space from an embedding set.

    Eigendecomposes the unbiased sample covariance; warns when the set has
    fewer observations than dimensions (rank-deficient fit).
    """
    data = embeddings.vectors
    n, d = data.shape
    if 2 <= n < d:
        warnings.warn(
            f"fitting {d} dimensions from only {n} embeddings; "
            "eigenvalues beyond the sample rank will be zero",
            stacklevel=2,
        )
    basis, lam = eig_sym(covariance(data))
    lam, mean = np.maximum(lam, 0.0), data.mean(axis=0)
    for arr in (mean, basis, lam):
        arr.setflags(write=False)  # locked and unshared: the space keeps them
    return VariabilitySpace(mean=mean, basis=basis, eigenvalues=lam)


# near the largest float64, finite inputs can overflow the products below
@np.errstate(over="ignore", invalid="ignore")
def project(space: VariabilitySpace, x) -> np.ndarray:
    """Coefficients of the raw embedding ``x`` (no mean subtraction) in the
    space's basis."""
    vec = as_array(x, "embedding", 1)
    if vec.size != space.dim:
        raise DataError(f"embedding dimension {vec.size} != space dimension {space.dim}")
    coeff = space.basis.T @ vec
    check_finite("projection overflows float64", coeff)
    return coeff


@np.errstate(over="ignore", invalid="ignore")
def reconstruct(space: VariabilitySpace, coefficients) -> np.ndarray:
    """Embedding synthesized from a coefficient vector: basis @ coefficients."""
    coeff = as_array(coefficients, "coefficients", 1)
    if coeff.size != space.dim:
        raise DataError(
            f"coefficient dimension {coeff.size} != space dimension {space.dim}"
        )
    vec = space.basis @ coeff
    check_finite("reconstruction overflows float64", vec)
    return vec


def floor_epsilon(eigenvalues: np.ndarray) -> float:
    """Eigenvalue floor applied before taking logarithms: 1e-12 times the
    largest eigenvalue, or 1e-300 where that product is zero (an all-zero
    spectrum, or a largest eigenvalue so small that the product underflows)."""
    floor = 1e-12 * float(eigenvalues[0])
    return floor if floor > 0.0 else 1e-300


def log_spectrum(space: VariabilitySpace) -> np.ndarray:
    """Natural log of the (floored) eigenvalues, length D."""
    eps = floor_epsilon(space.eigenvalues)
    return np.log(np.maximum(space.eigenvalues, eps))


def delta_spectrum(space: VariabilitySpace) -> DeltaSpectrum:
    """Differences of consecutive log-eigenvalues, length D-1.

    Entry i (1-based) is log(lambda_{i+1}) - log(lambda_i); non-positive up
    to ties since eigenvalues are sorted descending.
    """
    if space.dim < 2:
        raise DataError("delta spectrum requires dimension >= 2")
    logs = log_spectrum(space)
    return DeltaSpectrum(
        values=np.diff(logs), floor_epsilon=floor_epsilon(space.eigenvalues)
    )


def detect_turning(
    deltas: DeltaSpectrum,
    window: int = 10,
    oscillation_tol: float = 0.05,
) -> TurningPoint:
    """Locate the candidate turning dimension in a delta spectrum.

    An index t qualifies when (a) the delta tail from t on is non-decreasing
    in magnitude, (b) the w = min(``window``, t-1) preceding values stay
    within ``oscillation_tol`` of their local mean, and (c) the value at t
    breaks out of that oscillation corridor. t=1 qualifies whenever the whole
    sequence is monotone. The smallest qualifying index is returned; if none
    qualifies, the start of the longest monotone suffix is returned with the
    ``weak`` flag set. The result is a candidate only and callers must allow
    a manual override.
    """
    window = as_int(window, "window")
    if window < 1:
        raise DataError("window must be >= 1")
    oscillation_tol = as_real(oscillation_tol, "oscillation tolerance")
    if not oscillation_tol > 0.0:
        raise DataError("oscillation tolerance must be positive")
    values = deltas.values
    m = values.size
    if m < window + 2:
        raise DataError(
            f"spectrum too short for turning-point detection: {m} deltas, "
            f"need at least window + 2 = {window + 2}"
        )
    profile = np.abs(values)
    # tail_monotone[i]: the magnitudes from i on never decrease
    steps = np.append(profile[:-1] <= profile[1:], True)
    tail_monotone = np.logical_and.accumulate(steps[::-1])[::-1]
    # candidate t >= 2 reads the w = min(window, t-1) deltas before it: row t-2
    # of windows over values[:-1] padded in front. Zeros leave the sums alone,
    # values[0] (in every short window) the max and min, where |v - mean| peaks.
    pad = np.zeros(window - 1)
    sums = sliding_window_view(np.append(pad, values[:-1]), window).sum(axis=1)
    spans = sliding_window_view(np.append(pad + values[0], values[:-1]), window)
    means = sums / np.minimum(np.arange(1, m), window)
    spread = np.maximum(spans.max(axis=1) - means, means - spans.min(axis=1))
    window_stable = np.append(True, spread <= oscillation_tol)
    breaks_out = np.append(True, np.abs(values[1:] - means) > oscillation_tol)
    accepted = tail_monotone & window_stable & breaks_out
    weak = not accepted.any()
    index = int(np.argmax(tail_monotone if weak else accepted)) + 1
    for flags in (tail_monotone, window_stable, breaks_out):
        flags.setflags(write=False)
    return TurningPoint(index, weak, tail_monotone, window_stable, breaks_out)


def save_space(space: VariabilitySpace, destination) -> None:
    """Write a space file: magic, version, dimension, mean, eigenvalues, and
    the basis row-major, all little-endian."""
    values = np.concatenate([space.mean, space.eigenvalues, space.basis.ravel()])
    with open(destination, "wb") as fh:
        fh.write(struct.pack("<4sII", SPACE_MAGIC, SPACE_VERSION, space.dim))
        fh.write(values.astype("<f8").tobytes())


def load_space(source) -> VariabilitySpace:
    """Read a space file written by :func:`save_space`."""
    with open(source, "rb") as fh:
        blob = fh.read()
    header_size = struct.calcsize("<4sII")
    if len(blob) < header_size:
        raise FormatError(f"space file truncated: {len(blob)} bytes")
    magic, version, d = struct.unpack_from("<4sII", blob, 0)
    if magic != SPACE_MAGIC:
        raise FormatError(f"bad space file magic {magic!r}, expected {SPACE_MAGIC!r}")
    if version != SPACE_VERSION:
        raise FormatError(f"unsupported space file version {version}")
    if d < 1:
        raise DataError("space file declares dimension 0")
    expected = header_size + 8 * (2 * d + d * d)
    if len(blob) != expected:
        raise FormatError(
            f"space file length {len(blob)} inconsistent with declared "
            f"dimension {d} (expected {expected})"
        )
    values = np.frombuffer(blob, dtype="<f8", offset=header_size)
    return VariabilitySpace(
        mean=values[:d], basis=values[2 * d :].reshape(d, d), eigenvalues=values[d : 2 * d]
    )


SPECTRUM_HEADER = ["index", "log_eigenvalue", "delta"]


def write_spectrum_csv(space: VariabilitySpace, destination) -> None:
    """Emit the plotting CSV: one row per dimension with the log-eigenvalue
    and the delta to the next dimension (empty on the last row)."""
    logs = log_spectrum(space)
    deltas = [*np.diff(logs), ""]
    write_table(destination, SPECTRUM_HEADER, zip(range(1, logs.size + 1), logs, deltas))


def read_spectrum_csv(source) -> tuple[np.ndarray, np.ndarray]:
    """Parse a spectrum CSV back into (log_eigenvalues, deltas)."""
    converters = (int, float, lambda text: float(text) if text else None)
    rows = read_table(source, "spectrum", SPECTRUM_HEADER, converters)
    for index, (written, _, delta) in enumerate(rows, start=1):
        if written != index:
            raise FormatError(f"spectrum CSV line {index + 1}: index out of order")
        if (index == len(rows)) != (delta is None):
            raise FormatError(
                f"spectrum CSV line {index + 1}: delta must be empty on the last row only"
            )
    return np.array([row[1] for row in rows]), np.array([row[2] for row in rows[:-1]])
