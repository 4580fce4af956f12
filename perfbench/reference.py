"""Plain-numpy references for the benchmark's output checks.

Nothing here calls varispace's numerical code: covariance is ``np.cov``, the
eigenbasis is LAPACK ``eigh``, modification is one dense matrix product,
scores are normalised speaker means dotted with test rows, and the EER is
an interpolated crossing over midpoint thresholds.
"""

from __future__ import annotations

import numpy as np

# Acceptance tolerances of the eigensolver contract.
EIG_VALUE_RTOL = 1e-8
ORTH_TOL = 1e-8
RESIDUAL_RTOL = 1e-7
DELTA_TOL = 1e-9
SCORE_TOL = 1e-12
EER_TOL = 1e-9
# Per-row project/zero/reconstruct against one dense product: a few ulps of
# the row norm.
MODIFY_RTOL = 1e-12


def eigh_desc(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """LAPACK eigendecomposition with eigenvalues sorted descending."""
    lam, basis = np.linalg.eigh(matrix)
    return basis[:, ::-1], lam[::-1]


def log_deltas(eigenvalues: np.ndarray) -> np.ndarray:
    """Consecutive differences of log-eigenvalues floored at 1e-12 x the top."""
    floor = 1e-12 * eigenvalues[0] if eigenvalues[0] > 0.0 else 1e-300
    return np.diff(np.log(np.maximum(eigenvalues, floor)))


def eig_errors(matrix, basis, eigenvalues, ref_eigenvalues) -> list[str]:
    """Misses against the eigensolver contract, as messages."""
    scale = float(np.max(np.abs(matrix)))
    d = eigenvalues.size
    misses = []
    value_err = float(np.max(np.abs(eigenvalues - ref_eigenvalues)))
    if value_err > EIG_VALUE_RTOL * scale:
        misses.append(f"eigenvalues off by {value_err:.3e}")
    orth = float(np.max(np.abs(basis.T @ basis - np.eye(d))))
    if orth > ORTH_TOL:
        misses.append(f"orthonormality error {orth:.3e}")
    residual = float(np.max(np.abs(matrix @ basis - basis * eigenvalues)))
    if residual > RESIDUAL_RTOL * (1.0 + scale):
        misses.append(f"residual {residual:.3e}")
    return misses


def remove_block(vectors: np.ndarray, basis: np.ndarray, indices) -> np.ndarray:
    """Rows with the coefficients at 0-based ``indices`` zeroed, densely."""
    block = basis[:, list(indices)]
    if block.shape[1] == 0:
        return vectors
    return vectors - (vectors @ block) @ block.T


def cosine_scores(enroll, test, row_speaker, trial_speaker, trial_row, n_speakers):
    """Score of each trial: unit speaker mean of ``enroll`` dot unit test row."""
    sums = np.zeros((n_speakers, enroll.shape[1]))
    np.add.at(sums, row_speaker, enroll)
    means = sums / np.linalg.norm(sums, axis=1, keepdims=True)
    rows = test[trial_row]
    dots = np.einsum("ij,ij->i", means[trial_speaker], rows)
    return dots / np.linalg.norm(rows, axis=1)


def eer_percent(scores: np.ndarray, labels: np.ndarray) -> float:
    """Pooled EER in percent: false-acceptance and miss rates at every
    midpoint between distinct scores (plus a sentinel on each side), linearly
    interpolated at the first point where misses reach false acceptances."""
    target = np.sort(scores[labels])
    nontarget = np.sort(scores[~labels])
    distinct = np.unique(scores)
    cuts = np.concatenate(
        ([distinct[0] - 1.0], 0.5 * (distinct[:-1] + distinct[1:]), [distinct[-1] + 1.0])
    )
    far = (nontarget.size - np.searchsorted(nontarget, cuts)) / nontarget.size
    frr = np.searchsorted(target, cuts) / target.size
    gap = far - frr
    k = int(np.argmax(gap <= 0.0))
    if gap[k] == 0.0:
        return 100.0 * float(far[k])
    frac = gap[k - 1] / (gap[k - 1] - gap[k])
    return 100.0 * float(far[k - 1] + frac * (far[k] - far[k - 1]))
