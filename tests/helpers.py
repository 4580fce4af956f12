"""Independent oracles and fixture builders shared across the test suite.

Everything here is deliberately implemented with direct definitions and
plain loops, separate from the library code paths it is used to check.
"""

from __future__ import annotations

import csv
import io
import math
import re
import struct

import numpy as np
import pytest

from varispace import (
    CounterRng,
    DataError,
    EmbeddingSet,
    FormatError,
    NumericalError,
    ScoredTrials,
    SubspaceSpec,
    SweepRow,
    Trial,
    TrialList,
    build_enrollment,
    compute_eer,
    modify_batch,
    score_trials,
)
from varispace.embeddings import open_text
from varispace.linalg import SYMMETRY_RTOL, as_array, fix_eigvec_signs


def assert_raises_exactly(call, error: type, message: str) -> None:
    """``call()`` raises ``error`` itself, not a subclass, with ``message``."""
    with pytest.raises(error) as caught:
        call()
    assert (type(caught.value), str(caught.value)) == (error, message)


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


def _off_diag_mass(a: np.ndarray) -> float:
    # summed directly, not as total minus diagonal: that difference cancels
    # catastrophically once the matrix is nearly diagonal
    off = a.copy()
    np.fill_diagonal(off, 0.0)
    return math.sqrt(float(np.sum(off * off)))


def _diag_mass(a: np.ndarray) -> float:
    return math.sqrt(float(np.sum(np.diag(a) ** 2)))


def jacobi_eig_oracle(
    matrix,
    max_sweeps: int = 100,
    rel_tol: float = 1e-12,
) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a symmetric matrix by cyclic Jacobi rotations:
    the independent check on ``eig_sym`` above the dimension ``brute_eig``
    can handle. Jacobi is accurate to high relative precision on the small
    eigenvalues of PSD matrices, which the log-spectrum tail depends on.

    Sweeps run until the Frobenius mass of the off-diagonal part drops below
    ``rel_tol`` times the on-diagonal mass (checked before each sweep, so an
    already-diagonal matrix performs no rotations), capped at ``max_sweeps``.

    Returns
    -------
    (basis, eigenvalues):
        ``basis`` is (D, D) with orthonormal eigenvector columns,
        ``eigenvalues`` is (D,) sorted descending. The order of exactly tied
        eigenvalues follows a stable sort of the converged diagonal. Each
        eigenvector is signed so its largest-magnitude entry is positive.

    Raises
    ------
    DataError
        If the input is not symmetric within ``SYMMETRY_RTOL`` relative
        asymmetry.
    NumericalError
        If the off-diagonal mass has not met the target after ``max_sweeps``
        sweeps.
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

    a = 0.5 * (s + s.T)
    v = np.eye(d)
    converged = False
    for _ in range(max_sweeps):
        on_mass = _diag_mass(a)
        if _off_diag_mass(a) <= rel_tol * on_mass:
            converged = True
            break
        # Rotations below this leave at most a tenth of the target mass behind,
        # so skipping them cannot stall convergence.
        skip = rel_tol * on_mass / (10.0 * d)
        for p in range(d - 1):
            for q in range(p + 1, d):
                apq = a[p, q]
                if abs(apq) <= skip:
                    continue
                diff = a[q, q] - a[p, p]
                if abs(apq) < 1e-36 * abs(diff):
                    t = apq / diff
                else:
                    theta = diff / (2.0 * apq)
                    t = 1.0 / (abs(theta) + math.sqrt(theta * theta + 1.0))
                    if theta < 0.0:
                        t = -t
                c = 1.0 / math.sqrt(t * t + 1.0)
                sn = t * c
                ap = a[p, :].copy()
                aq = a[q, :].copy()
                t1 = c * ap - sn * aq
                t2 = sn * ap + c * aq
                t1p = c * t1[p] - sn * t1[q]
                t2q = sn * t2[p] + c * t2[q]
                t1[p] = t1p
                t1[q] = 0.0
                t2[p] = 0.0
                t2[q] = t2q
                a[p, :] = t1
                a[:, p] = t1
                a[q, :] = t2
                a[:, q] = t2
                vp = v[:, p].copy()
                vq = v[:, q].copy()
                v[:, p] = c * vp - sn * vq
                v[:, q] = sn * vp + c * vq
    else:
        converged = _off_diag_mass(a) <= rel_tol * _diag_mass(a)
    if not converged:
        raise NumericalError(
            f"jacobi sweep limit ({max_sweeps}) reached; off-diagonal mass "
            f"{_off_diag_mass(a):.3e} vs target {rel_tol * _diag_mass(a):.3e}"
        )

    lam = np.diag(a).copy()
    order = np.argsort(-lam, kind="stable")
    lam = lam[order]
    v = np.ascontiguousarray(v[:, order])
    fix_eigvec_signs(v)
    return v, lam


def _gershgorin_floor(s: np.ndarray) -> float:
    radii = np.sum(np.abs(s), axis=1) - np.abs(np.diag(s))
    return float(np.min(np.diag(s) - radii))


def _orthogonalize(vec: np.ndarray, against: list[np.ndarray]) -> np.ndarray:
    out = vec.copy()
    for basis_vec in against:
        out -= (out @ basis_vec) * basis_vec
    return out


def brute_eig(
    matrix,
    residual_tol: float = 1e-12,
    max_iter: int = 500_000,
) -> tuple[np.ndarray, np.ndarray]:
    """Oracle eigendecomposition for small symmetric matrices (dimension up
    to 8): shifted power iteration with deflation.

    The matrix is shifted by the Gershgorin lower bound so the most negative
    eigenvalue maps to zero or above, making plain power iteration converge
    to the extremes in order. Sort and sign conventions match the production
    solver: descending eigenvalues, largest-magnitude entry positive.
    """
    s = np.array(matrix, dtype=np.float64)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise DataError(f"oracle needs a square matrix, got shape {s.shape}")
    d = s.shape[0]
    if d > 8:
        raise DataError(f"oracle is limited to dimension <= 8, got {d}")
    if float(np.max(np.abs(s - s.T))) > 1e-9 * max(1.0, float(np.max(np.abs(s)))):
        raise DataError("oracle needs a symmetric matrix")
    s = 0.5 * (s + s.T)
    shift = max(0.0, -_gershgorin_floor(s))
    a = s + shift * np.eye(d)
    scale = max(1.0, float(np.sqrt(np.sum(a * a))))

    starts = [np.ones(d) / np.sqrt(d)] + [np.eye(d)[i] for i in range(d)]
    vecs: list[np.ndarray] = []
    vals: list[float] = []
    for _ in range(d):
        v = None
        for candidate in starts:
            attempt = _orthogonalize(candidate, vecs)
            norm = float(np.linalg.norm(attempt))
            if norm > 1e-3:
                v = attempt / norm
                break
        if v is None:
            raise NumericalError("oracle could not find an independent start vector")
        # iterate well past the target (until stalled at the numerical floor):
        # each stage's residual leaks into later stages through deflation, so
        # stopping exactly at the target would starve them of headroom
        best_v, best_rho, best_r = v, float(v @ (a @ v)), np.inf
        since_best = 0
        for _ in range(max_iter):
            w = a @ v
            rho = float(v @ w)
            r = float(np.linalg.norm(w - rho * v))
            if r < 0.995 * best_r:
                best_v, best_rho, best_r = v, rho, r
                since_best = 0
            else:
                since_best += 1
            if best_r <= 0.01 * residual_tol * scale or since_best > 500:
                break
            w = _orthogonalize(w, vecs)
            norm = float(np.linalg.norm(w))
            if norm <= 1e-300:
                # annihilated: v already sits in an eigenspace of eigenvalue ~0
                break
            v = w / norm
        if best_r > residual_tol * scale:
            raise NumericalError(
                f"oracle power iteration stalled at residual {best_r:.3e}, "
                f"target {residual_tol * scale:.3e}"
            )
        vecs.append(best_v)
        vals.append(best_rho)
        a = a - best_rho * np.outer(best_v, best_v)

    lam = np.array(vals) - shift
    order = sorted(range(d), key=lambda j: -lam[j])
    lam = np.array([lam[j] for j in order])
    basis = np.column_stack([vecs[j] for j in order])
    for j in range(d):
        col = basis[:, j]
        k = max(range(d), key=lambda i: (abs(col[i]), -i))
        if col[k] < 0.0:
            basis[:, j] = -col
    return basis, lam


def brute_eer(scored: ScoredTrials) -> float:
    """Oracle EER in percent: evaluate the miss/false-alarm rates at every
    midpoint between consecutive distinct scores plus sentinels below and
    above all scores, then interpolate the crossing linearly."""
    target = [float(s) for s, t in zip(scored.scores, scored.labels) if t]
    nontarget = [float(s) for s, t in zip(scored.scores, scored.labels) if not t]
    if not target or not nontarget:
        raise DataError("EER needs at least one target and one nontarget trial")
    distinct = sorted(set(target) | set(nontarget))
    thresholds = [distinct[0] - 1.0]
    for lo, hi in zip(distinct, distinct[1:]):
        thresholds.append(0.5 * (lo + hi))
    thresholds.append(distinct[-1] + 1.0)

    points = []
    for theta in thresholds:
        far = sum(1 for s in nontarget if s >= theta) / len(nontarget)
        frr = sum(1 for s in target if s < theta) / len(target)
        points.append((far, frr))

    previous = points[0]
    for current in points[1:]:
        d0 = previous[0] - previous[1]
        d1 = current[0] - current[1]
        if d0 == 0.0:
            return 100.0 * previous[0]
        if d0 > 0.0 and d1 < 0.0:
            frac = d0 / (d0 - d1)
            return 100.0 * (previous[0] + frac * (current[0] - previous[0]))
        previous = current
    raise NumericalError("oracle found no miss/false-alarm crossing")


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


def turning_flags(values, window: int, tol: float):
    """Each candidate's three turning-point checks, one candidate at a time:
    (tail_monotone, window_stable, breaks_out, spread, distance) lists with
    candidate t at position t-1. Candidate t >= 2 reads its w = min(window,
    t-1) preceding values; ``spread`` is their largest distance from their
    mean and ``distance`` that of the value at t. Candidate 1 passes the last
    two checks vacuously (spread 0, distance inf)."""
    m = len(values)
    tail, stable, breaks, spreads, distances = [], [], [], [], []
    for t in range(1, m + 1):
        tail.append(all(abs(values[j]) <= abs(values[j + 1]) for j in range(t - 1, m - 1)))
        if t == 1:
            spread, distance = 0.0, math.inf
        else:
            local = [values[j] for j in range(max(0, t - 1 - window), t - 1)]
            mean = sum(local) / len(local)
            spread = max(abs(v - mean) for v in local)
            distance = abs(values[t - 1] - mean)
        stable.append(spread <= tol)
        breaks.append(distance > tol)
        spreads.append(spread)
        distances.append(distance)
    return tail, stable, breaks, spreads, distances


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


def make_trials_oracle(embeddings, n_nontarget: int, seed: int) -> TrialList:
    """``make_trials`` one attempt at a time: two uniforms per attempt, a
    same-speaker pick rejected by comparing speaker ids."""
    if n_nontarget < 1:
        raise DataError("need at least one nontarget trial")
    speakers = embeddings.speakers()
    if len(speakers) < 2:
        raise DataError("cross-speaker trials need at least two speakers")
    entries = [
        Trial(spk, utt, True) for utt, spk in zip(embeddings.utt_ids, embeddings.spk_ids)
    ]
    rng = CounterRng(seed)
    n = len(embeddings)
    drawn = 0
    attempts = 0
    max_attempts = 1000 * n_nontarget
    while drawn < n_nontarget:
        attempts += 1
        if attempts > max_attempts:
            raise NumericalError("could not draw enough cross-speaker pairs")
        pick = rng.uniforms(2)
        spk = speakers[min(int(pick[0] * len(speakers)), len(speakers) - 1)]
        row = min(int(pick[1] * n), n - 1)
        if embeddings.spk_ids[row] == spk:
            continue
        entries.append(Trial(spk, embeddings.utt_ids[row], False))
        drawn += 1
    return TrialList(tuple(entries))


def emb1_blob(d, records, n=None, version=1):
    """An EMB1 file built one field at a time, as README "File formats"
    describes it: magic, u32 version, u32 D, u64 N, then per record a u16
    utt-id byte length, the utf-8 bytes, the same for the spk id, and D
    little-endian f32 values."""
    blob = b"EMB1" + struct.pack("<I", version) + struct.pack("<I", d)
    blob += struct.pack("<Q", len(records) if n is None else n)
    for utt, spk, values in records:
        for name in (utt, spk):
            raw = name.encode("utf-8") if isinstance(name, str) else name
            blob += struct.pack("<H", len(raw)) + raw
        blob += b"".join(struct.pack("<f", v) for v in values)
    return blob


def embedding_set_oracle(utt_ids, spk_ids, vectors):
    """``EmbeddingSet``'s checks and lookup maps one row at a time, in the
    order a bad row is reported: ids that are not strings, an empty
    utterance id, an empty speaker id, a duplicate utterance id. Returns
    ``(utt_ids, spk_ids, vectors, row_of, speaker_rows)`` with read-only
    vectors and speaker rows."""
    utt_ids = tuple(utt_ids)
    spk_ids = tuple(spk_ids)
    vectors = as_array(vectors, "embedding vectors", 2)
    if len(utt_ids) != len(vectors) or len(spk_ids) != len(vectors):
        raise DataError("id lists and vector rows disagree in length")
    row_of, speaker_rows = {}, {}
    for i, (utt, spk) in enumerate(zip(utt_ids, spk_ids)):
        if not (isinstance(utt, str) and isinstance(spk, str)):
            raise DataError(f"row {i}: ids must be strings, got {utt!r} and {spk!r}")
        if not utt:
            raise DataError("empty utterance id")
        if not spk:
            raise DataError("empty speaker id")
        if utt in row_of:
            raise DataError(f"duplicate utterance id '{utt}'")
        row_of[utt] = i
        speaker_rows.setdefault(spk, []).append(i)
    vectors = vectors.copy()
    vectors.setflags(write=False)
    for spk, rows in speaker_rows.items():
        speaker_rows[spk] = rows = np.array(rows)
        rows.setflags(write=False)
    return utt_ids, spk_ids, vectors, row_of, speaker_rows


def load_binary_oracle(source):
    """An EMB1 file read one field at a time through a bounds-checked
    ``take``, then checked by :func:`embedding_set_oracle`."""
    with open(source, "rb") as fh:
        blob = fh.read()
    header_size = struct.calcsize("<4sIIQ")
    if len(blob) < header_size:
        raise FormatError(f"embeddings file truncated: {len(blob)} bytes")
    _, version, d, n = struct.unpack_from("<4sIIQ", blob, 0)
    if version != 1:
        raise FormatError(f"unsupported embeddings file version {version}")
    if d < 1:
        raise DataError("embeddings file declares dimension 0")
    view = memoryview(blob)
    offset = header_size

    def take(size: int) -> memoryview:
        nonlocal offset
        if offset + size > len(blob):
            raise FormatError("embeddings file truncated inside a record")
        offset += size
        return view[offset - size : offset]

    utts, spks, vectors = [], [], []
    try:
        for _ in range(n):
            utts.append(str(take(int.from_bytes(take(2), "little")), "utf-8"))
            spks.append(str(take(int.from_bytes(take(2), "little")), "utf-8"))
            vectors.append(take(4 * d))
    except UnicodeDecodeError as exc:
        raise FormatError(f"embeddings file record corrupt: {exc}") from None
    if offset != len(blob):
        raise FormatError(
            f"embeddings file has {len(blob) - offset} trailing bytes after {n} records"
        )
    if not vectors:
        raise DataError("embeddings file contains no records")
    vectors = np.frombuffer(b"".join(vectors), dtype="<f4").reshape(n, d)
    return embedding_set_oracle(tuple(utts), tuple(spks), vectors.astype(np.float64))


# a real number as float() spells it, in ASCII and without "_": optional
# ASCII whitespace around a sign and a decimal, an infinity or a NaN
_REAL = re.compile(
    r"[ \t\n\r\v\f]*[+-]?(?:(?:\d+\.?\d*|\.\d+)(?:e[+-]?\d+)?|inf|infinity|nan)[ \t\n\r\v\f]*",
    re.ASCII | re.IGNORECASE,
)


def load_csv_oracle(source) -> EmbeddingSet:
    """An embeddings CSV read row by row through ``csv``, each value matched
    against ``_REAL`` and then converted with ``float``: the reader before its
    ``np.loadtxt`` pass, with errors naming the file line a record starts on
    and the column of a row's first bad value."""
    with open_text(source) as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise FormatError("embeddings CSV is empty") from None
        if len(header) < 3 or header[:2] != ["utt_id", "spk_id"]:
            raise FormatError("embeddings CSV header must start with utt_id,spk_id,d1,...")
        d = len(header) - 2
        if header[2:] != [f"d{i}" for i in range(1, d + 1)]:
            raise FormatError("embeddings CSV header has bad dimension columns")
        utts, spks, rows = [], [], []
        # a record is named by the file line it starts on
        start = reader.line_num + 1
        for row in reader:
            lineno, start = start, reader.line_num + 1
            if not row:
                continue
            if len(row) != d + 2:
                raise FormatError(
                    f"embeddings CSV line {lineno}: expected {d + 2} fields, got {len(row)}"
                )
            utts.append(row[0])
            spks.append(row[1])
            for column, text in enumerate(row[2:], start=1):
                if not _REAL.fullmatch(text):
                    raise FormatError(
                        f"embeddings CSV line {lineno}: d{column} must be a real number, "
                        f"got {text!r}"
                    )
            rows.append([float(text) for text in row[2:]])
    if not rows:
        raise DataError("embeddings CSV contains no records")
    return EmbeddingSet(tuple(utts), tuple(spks), np.array(rows, dtype=np.float64))


def save_csv_oracle(embeddings, destination) -> None:
    """The embeddings CSV written row by row: the header and the ids through
    ``csv``, each value through ``%.17g``. This is the writer before its
    vectorised value kernel, without the id checks."""
    d = embeddings.dim
    line = ",".join(["%s"] + ["%.17g"] * d) + "\n"
    ids = io.StringIO()
    id_writer = csv.writer(ids, lineterminator="\r\n")
    with open(destination, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerow(
            ["utt_id", "spk_id"] + [f"d{i}" for i in range(1, d + 1)]
        )
        for utt, spk, vec in zip(embeddings.utt_ids, embeddings.spk_ids, embeddings.vectors):
            id_writer.writerow((utt, spk))
            fh.write(line % (ids.getvalue()[:-2], *vec.tolist()))
            ids.seek(0)
            ids.truncate()
