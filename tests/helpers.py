"""Independent oracles and fixture builders shared across the test suite.

Everything here is deliberately implemented with direct definitions and
plain loops, separate from the library code paths it is used to check.
"""

from __future__ import annotations

import numpy as np

from varispace import (
    SubspaceSpec,
    SweepRow,
    build_enrollment,
    compute_eer,
    modify_batch,
    score_trials,
)


def direct_covariance(rows: list[np.ndarray]) -> np.ndarray:
    """Sum-of-outer-products covariance, entry by entry."""
    n = len(rows)
    d = rows[0].size
    mean = [sum(float(r[j]) for r in rows) / n for j in range(d)]
    cov = np.zeros((d, d))
    for r in rows:
        for i in range(d):
            for j in range(d):
                cov[i, j] += (float(r[i]) - mean[i]) * (float(r[j]) - mean[j])
    return cov / (n - 1)


def eig2x2_charpoly(s: np.ndarray) -> tuple[float, float]:
    """Eigenvalues of a symmetric 2x2 from the characteristic polynomial,
    descending."""
    a, b, c = float(s[0, 0]), float(s[0, 1]), float(s[1, 1])
    half_trace = 0.5 * (a + c)
    root = np.sqrt(0.25 * (a - c) ** 2 + b * b)
    return half_trace + root, half_trace - root


def cofactor_det(m: np.ndarray) -> float:
    """Determinant by cofactor expansion along the first row."""
    n = m.shape[0]
    if n == 1:
        return float(m[0, 0])
    total = 0.0
    for j in range(n):
        minor = np.delete(np.delete(m, 0, axis=0), j, axis=1)
        total += (-1.0) ** j * float(m[0, j]) * cofactor_det(minor)
    return total


def exhaustive_eer_percent(scores, labels) -> float:
    """EER by evaluating miss/false-alarm rates at every midpoint between
    consecutive distinct scores plus outer sentinels, interpolating the
    crossing. Pure-python re-derivation used to pin expected values."""
    target = [float(s) for s, t in zip(scores, labels) if t]
    nontarget = [float(s) for s, t in zip(scores, labels) if not t]
    distinct = sorted(set(target) | set(nontarget))
    thresholds = [distinct[0] - 1.0]
    thresholds += [0.5 * (a + b) for a, b in zip(distinct, distinct[1:])]
    thresholds += [distinct[-1] + 1.0]
    ops = []
    for theta in thresholds:
        far = sum(1 for s in nontarget if s >= theta) / len(nontarget)
        frr = sum(1 for s in target if s < theta) / len(target)
        ops.append((far, frr))
    prev = ops[0]
    for cur in ops[1:]:
        d0 = prev[0] - prev[1]
        d1 = cur[0] - cur[1]
        if d0 == 0.0:
            return 100.0 * prev[0]
        if d0 > 0.0 and d1 < 0.0:
            frac = d0 / (d0 - d1)
            return 100.0 * (prev[0] + frac * (cur[0] - prev[0]))
        prev = cur
    raise AssertionError("no crossing found")


def scan_turning(values, window: int, tol: float) -> tuple[int, bool]:
    """Exhaustive scan over every candidate index for the turning-point
    rule: monotone magnitude tail, preceding values inside the oscillation
    corridor, and a break out of that corridor at the candidate (vacuous at
    index 1). Returns (index, weak)."""
    m = len(values)

    def tail_monotone(t):
        return all(abs(values[j]) <= abs(values[j + 1]) for j in range(t - 1, m - 1))

    for t in range(1, m + 1):
        if not tail_monotone(t):
            continue
        if t == 1:
            return 1, False
        w_eff = min(window, t - 1)
        local = [values[j] for j in range(t - 1 - w_eff, t - 1)]
        mean = sum(local) / len(local)
        if max(abs(v - mean) for v in local) > tol:
            continue
        if abs(values[t - 1] - mean) > tol:
            return t, False
    for t in range(1, m + 1):
        if tail_monotone(t):
            return t, True
    raise AssertionError("unreachable: a single-element tail is always monotone")


def plant_deltas(rng: np.random.Generator, length: int, knee: int, window: int, tol: float) -> np.ndarray:
    """Delta sequence with an oscillating plateau before ``knee`` and a
    strictly growing magnitude tail from it, built so ``knee`` is the unique
    qualifying index. Requires window + 1 <= knee <= length - 1."""
    assert window + 1 <= knee <= length - 1
    mu = -float(rng.uniform(0.08, 0.3))
    jitter = 0.4 * tol
    values = np.empty(length)
    sign = 1.0
    for i in range(knee - 1):
        values[i] = mu + sign * jitter * float(rng.uniform(0.5, 1.0))
        sign = -sign
    step = tol * float(rng.uniform(3.0, 6.0))
    magnitude = abs(mu) + step
    for i in range(knee - 1, length):
        values[i] = -magnitude
        magnitude += step * float(rng.uniform(1.0, 2.0))
    return values


def deltas_to_eigenvalues(values: np.ndarray) -> np.ndarray:
    """Positive descending eigenvalues whose log-spectrum deltas equal
    ``values`` (all entries must be <= 0)."""
    logs = np.concatenate([[0.0], np.cumsum(values)])
    return np.exp(logs)


def per_k_sweep_oracle(
    space, embeddings, trials, family, k_values, turning_dim=None, clean_enrollment=False
) -> tuple[SweepRow, ...]:
    """Sweep rows the long way: for every size K, modify the whole set,
    rebuild the enrollment models, rescore every trial and take the EER.
    It composes the library's per-stage functions, so it shares none of
    ``run_sweep``'s coefficient-space arithmetic."""
    rows = []
    for k in k_values:
        if family == "primary":
            spec = SubspaceSpec(1, k, "+", family=family)
        elif family == "secondary":
            spec = SubspaceSpec(turning_dim, k, "-", family=family)
        else:
            spec = SubspaceSpec(space.dim, k, "-", family=family)
        modified = modify_batch(space, embeddings, spec)
        enroll_source = embeddings if clean_enrollment else modified
        wanted = {t.enroll_speaker for t in trials} & set(enroll_source.speakers())
        models = {s: build_enrollment(enroll_source, s) for s in sorted(wanted)}
        result = compute_eer(score_trials(models, modified, trials))
        rows.append(
            SweepRow(
                family=family,
                start=spec.start,
                size=k,
                direction=spec.direction,
                eer_percent=result.eer_percent,
                n_target=result.n_target,
                n_nontarget=result.n_nontarget,
            )
        )
    return tuple(rows)
