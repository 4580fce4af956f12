"""``eig_sym`` (LAPACK) against the cyclic-Jacobi oracle above the dimension
``brute_eig`` covers.

Jacobi resolves the small eigenvalues of a PSD matrix to high relative
accuracy; LAPACK's tridiagonal route guarantees accuracy only relative to the
largest one. The log-spectrum deltas and the knee detector read the tail, so
the gate compares those as well as the eigenvalues.
"""

import numpy as np
import pytest

from helpers import deltas_to_eigenvalues, jacobi_eig_oracle, plant_deltas
from varispace import (
    PopulationConfig,
    VariabilitySpace,
    covariance,
    delta_spectrum,
    detect_turning,
    eig_sym,
    generate,
)

DIMS = (16, 32, 64)
EPS = np.finfo(np.float64).eps


def _both(s):
    return eig_sym(s), jacobi_eig_oracle(s)


def _deltas(lam):
    space = VariabilitySpace(
        mean=np.zeros(lam.size), basis=np.eye(lam.size), eigenvalues=np.maximum(lam, 0.0)
    )
    return delta_spectrum(space)


def _assert_spectra_agree(lam, lam_oracle):
    """Eigenvalues within 1e-8 of the largest, the same knee, and deltas
    within 1e-9 wherever the smaller eigenvalue of the pair is at least
    2.2e-5 of the largest. Below that the gate is the wide-spectrum bound
    100 * eps * lambda_max / lambda_(i+1): LAPACK's error on an eigenvalue
    is of order eps * lambda_max, which moves its log by about
    eps * lambda_max / lambda. Eigenvalues under the floor count as the floor.
    """
    scale = max(1.0, float(np.max(np.abs(lam_oracle))))
    assert np.max(np.abs(lam - lam_oracle)) <= 1e-8 * scale
    deltas, deltas_oracle = _deltas(lam), _deltas(lam_oracle)
    smaller = np.maximum(lam_oracle[1:], deltas_oracle.floor_epsilon)
    bound = np.maximum(1e-9, 100.0 * EPS * lam_oracle[0] / smaller)
    assert np.all(np.abs(deltas.values - deltas_oracle.values) <= bound)
    knee = detect_turning(deltas).index
    assert knee == detect_turning(deltas_oracle).index
    return knee


def _population(dim, n_speakers, utts, seed, tail_variance=0.05):
    lead = dim // 4
    config = PopulationConfig(
        n_speakers=n_speakers,
        utts_per_speaker=utts,
        dim=dim,
        between_variances=np.concatenate([np.full(lead, 1.0), np.zeros(dim - lead)]),
        within_variances=np.concatenate(
            [np.full(lead, 0.05), np.full(dim - lead, tail_variance)]
        ),
        seed=seed,
    )
    return covariance(generate(config).vectors)


def _rotated(rng, lam):
    q, _ = np.linalg.qr(rng.standard_normal((lam.size, lam.size)))
    s = q @ np.diag(lam) @ q.T
    return 0.5 * (s + s.T)


@pytest.mark.parametrize("d", DIMS)
def test_random_symmetric(d):
    rng = np.random.default_rng(4000 + d)
    m = rng.standard_normal((d, d))
    s = 0.5 * (m + m.T)
    (basis, lam), (basis_oracle, lam_oracle) = _both(s)
    scale = max(1.0, float(np.max(np.abs(lam_oracle))))
    assert np.max(np.abs(lam - lam_oracle)) <= 1e-8 * scale
    # random spectra are well separated, so the pinned-sign vectors agree too
    assert np.max(np.abs(basis - basis_oracle)) <= 1e-8


@pytest.mark.parametrize(
    "d,n_speakers,utts",
    [(16, 20, 10), (32, 40, 5), (64, 30, 10), (64, 6, 5)],
    ids=["d16", "d32", "d64", "d64-rank-deficient"],
)
def test_generator_population(d, n_speakers, utts):
    s = _population(d, n_speakers, utts, seed=d + n_speakers)
    (_, lam), (_, lam_oracle) = _both(s)
    # every eigenvalue pair here is either well above 2.2e-5 of the largest
    # or under the floor in both, so the deltas are held to 1e-9 throughout
    assert np.all((lam_oracle >= 1e-3 * lam_oracle[0]) | (lam_oracle < 1e-12 * lam_oracle[0]))
    _assert_spectra_agree(lam, lam_oracle)


@pytest.mark.parametrize("d", DIMS)
def test_planted_spectrum(d):
    # the knee sits three deltas from the end so the whole planted spectrum
    # stays above the eigenvalue floor, which would otherwise flatten the tail
    rng = np.random.default_rng(5000 + d)
    knee = d - 3
    lam_true = deltas_to_eigenvalues(plant_deltas(rng, d - 1, knee, 10, 0.05))
    assert lam_true[-1] > 1e-10
    (_, lam), (_, lam_oracle) = _both(_rotated(rng, lam_true))
    assert _assert_spectra_agree(lam, lam_oracle) == knee


def test_wide_spectrum():
    # 24 of 32 dimensions at relative variance 1e-8
    s = _population(32, 100, 30, seed=77, tail_variance=1e-8)
    (_, lam), (_, lam_oracle) = _both(s)
    assert lam_oracle[-1] < 1e-7 * lam_oracle[0]
    _assert_spectra_agree(lam, lam_oracle)
