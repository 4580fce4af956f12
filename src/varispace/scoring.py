"""Machine-perception evaluation at embedding level: enrollment averaging,
cosine trial scoring, pooled equal-error-rate computation, and subspace-size
sweeps that tabulate EER against the removed block size."""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .embeddings import EmbeddingSet, TrialList, open_text
from .errors import DataError, FormatError
from .space import VariabilitySpace
from .subspace import BACKWARD, FORWARD, SubspaceSpec, resolve_indices

SWEEP_FAMILIES = ("primary", "secondary", "residual")

_ZERO_NORM = 1e-30


def build_enrollment(embeddings: EmbeddingSet, speaker: str) -> np.ndarray:
    """Length-normalized mean of a speaker's embeddings."""
    rows = embeddings.speaker_rows(speaker)
    if not rows.size:
        raise DataError(f"unknown speaker '{speaker}'")
    mean = embeddings.vectors[rows].mean(axis=0)
    norm = float(np.linalg.norm(mean))
    if norm <= _ZERO_NORM:
        raise DataError(f"speaker '{speaker}' has a zero-mean enrollment model")
    return mean / norm


def _cosines(dots: np.ndarray, norms_a: np.ndarray, norms_b: np.ndarray) -> np.ndarray:
    """Cosines from inner products and norms, clamped to [-1, 1]."""
    if np.any(norms_a <= _ZERO_NORM) or np.any(norms_b <= _ZERO_NORM):
        raise DataError("cosine of a zero vector is undefined")
    return np.clip(dots / (norms_a * norms_b), -1.0, 1.0)


def _cosine_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The one scoring kernel: cosine of each row pair of two (T, D)
    matrices, clamped to [-1, 1]. Each row's result is the same whatever T."""
    return _cosines(
        np.einsum("ij,ij->i", a, b), np.linalg.norm(a, axis=1), np.linalg.norm(b, axis=1)
    )


def cosine(a, b) -> float:
    """Cosine similarity, clamped to [-1, 1]. Both vectors must be nonzero.
    A one-row call of the kernel that :func:`score_trials` uses."""
    va = np.asarray(a, dtype=np.float64)
    vb = np.asarray(b, dtype=np.float64)
    if va.shape != vb.shape:
        raise DataError(f"cosine dimension mismatch: {va.shape} vs {vb.shape}")
    return float(_cosine_rows(va.reshape(1, -1), vb.reshape(1, -1))[0])


@dataclass(frozen=True)
class ScoredTrials:
    """Per-trial cosine scores with their target/nontarget labels."""

    scores: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        scores = np.asarray(self.scores, dtype=np.float64)
        labels = np.asarray(self.labels, dtype=bool)
        if scores.ndim != 1 or labels.shape != scores.shape:
            raise DataError("scores and labels must be 1-D and equal length")
        if scores.size < 1:
            raise DataError("scored trials are empty")
        if not np.all(np.isfinite(scores)):
            raise DataError("scores contain a non-finite value")
        if np.any(scores < -1.0 - 1e-9) or np.any(scores > 1.0 + 1e-9):
            raise DataError("scores fall outside [-1, 1]")
        scores = scores.copy()
        labels = labels.copy()
        scores.setflags(write=False)
        labels.setflags(write=False)
        object.__setattr__(self, "scores", scores)
        object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return self.scores.size


# Trials are gathered and scored in chunks of this many, so the (T, D)
# gathers never all live at once.
_TRIAL_CHUNK = 4096


def _chunks(n: int):
    return (slice(i, i + _TRIAL_CHUNK) for i in range(0, n, _TRIAL_CHUNK))


def _resolve_trials(
    trials: TrialList, model_index: Mapping[str, int], test_set: EmbeddingSet
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each trial's model index, test row and label. Unresolvable ids abort,
    naming the trial's source line."""
    models = np.empty(len(trials), dtype=np.intp)
    rows = np.empty(len(trials), dtype=np.intp)
    labels = np.empty(len(trials), dtype=bool)
    for i, trial in enumerate(trials):
        where = trial.line if trial.line is not None else i + 1
        model = model_index.get(trial.enroll_speaker)
        if model is None:
            raise DataError(
                f"trial {where}: no enrollment for speaker '{trial.enroll_speaker}'"
            )
        try:
            rows[i] = test_set.row(trial.test_utterance)
        except DataError:
            raise DataError(
                f"trial {where}: unknown test utterance '{trial.test_utterance}'"
            ) from None
        models[i] = model
        labels[i] = trial.target
    return models, rows, labels


def score_trials(
    enrollments: Mapping[str, np.ndarray],
    test_set: EmbeddingSet,
    trials: TrialList,
) -> ScoredTrials:
    """Cosine score every trial against its enrollment model, order
    preserved. Unresolvable ids abort, naming the trial's source line."""
    speakers = list(enrollments)
    which, rows, labels = _resolve_trials(
        trials, {s: i for i, s in enumerate(speakers)}, test_set
    )
    models = np.array([enrollments[s] for s in speakers], dtype=np.float64)
    if models.shape != (len(speakers), test_set.dim):
        raise DataError(
            f"cosine dimension mismatch: models {models.shape[1:]} vs tests ({test_set.dim},)"
        )
    scores = np.concatenate(
        [_cosine_rows(models[which[c]], test_set.vectors[rows[c]]) for c in _chunks(len(trials))]
    )
    return ScoredTrials(scores=scores, labels=labels)


@dataclass(frozen=True)
class EerResult:
    eer_percent: float
    threshold_at_eer: float
    n_target: int
    n_nontarget: int


def compute_eer(scored: ScoredTrials) -> EerResult:
    """Pooled equal error rate under the accept-iff-score>=threshold rule.

    Operating points are taken at every distinct score (ascending) plus a
    final reject-everything point. The false-acceptance and false-rejection
    rates are linearly interpolated between the two adjacent points that
    bracket the sign change of their difference; the crossing value is the
    EER, reported in percent.
    """
    target = np.sort(scored.scores[scored.labels])
    nontarget = np.sort(scored.scores[~scored.labels])
    if target.size == 0 or nontarget.size == 0:
        raise DataError("EER needs at least one target and one nontarget trial")
    thresholds = np.unique(scored.scores)
    far = (nontarget.size - np.searchsorted(nontarget, thresholds, side="left")) / nontarget.size
    frr = np.searchsorted(target, thresholds, side="left") / target.size
    far = np.append(far, 0.0)
    frr = np.append(frr, 1.0)
    thresholds = np.append(thresholds, thresholds[-1])
    diff = far - frr
    k = int(np.argmax(diff <= 0.0))
    if diff[k] == 0.0:
        eer = far[k]
        threshold = float(thresholds[k])
    else:
        d0, d1 = diff[k - 1], diff[k]
        frac = d0 / (d0 - d1)
        eer = far[k - 1] + frac * (far[k] - far[k - 1])
        threshold = float(thresholds[k - 1] + frac * (thresholds[k] - thresholds[k - 1]))
    return EerResult(
        eer_percent=float(100.0 * eer),
        threshold_at_eer=threshold,
        n_target=int(target.size),
        n_nontarget=int(nontarget.size),
    )


@dataclass(frozen=True)
class SweepRow:
    family: str
    start: int
    size: int
    direction: str
    eer_percent: float
    n_target: int
    n_nontarget: int


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[SweepRow, ...]


def run_sweep(
    space: VariabilitySpace,
    embeddings: EmbeddingSet,
    trials: TrialList,
    family: str,
    k_values,
    turning_dim: int | None = None,
    clean_enrollment: bool = False,
) -> SweepResult:
    """EER as a function of removed-block size for one subspace family.

    Row K equals modifying the whole set, building enrollment models from
    the modified embeddings (or the originals with ``clean_enrollment``),
    scoring every trial and taking the EER. K=0 is the unmodified baseline;
    a size that removes all D dimensions is rejected.

    The basis is orthonormal, so inner products of modified embeddings are
    inner products of their coefficients outside the removed block. The set
    is projected once; each trial's coefficient products (m*c, m*m, c*c) are
    summed over the segments between block boundaries, and each K's scores
    come from the sums of the segments it keeps.
    """
    if family not in SWEEP_FAMILIES:
        raise DataError(f"unknown sweep family '{family}'")
    if embeddings.dim != space.dim:
        raise DataError(
            f"embedding dimension {embeddings.dim} != space dimension {space.dim}"
        )
    if family == "secondary":
        if turning_dim is None:
            raise DataError("secondary-family sweeps require the turning dimension")
        if not 1 <= turning_dim <= space.dim:
            raise DataError(
                f"turning dimension {turning_dim} outside [1, {space.dim}]"
            )
    sizes = [int(k) for k in k_values]
    if not sizes:
        raise DataError("sweep needs at least one size")
    start, direction = {
        "primary": (1, FORWARD),
        "secondary": (turning_dim, BACKWARD),
        "residual": (space.dim, BACKWARD),
    }[family]
    specs, blocks = [], []
    for k in sizes:
        if k < 0:
            raise DataError(f"sweep size {k} is negative")
        spec = SubspaceSpec(start=start, size=k, direction=direction, family=family)
        try:
            indices = resolve_indices(spec, space.dim)
        except DataError as exc:
            raise DataError(f"size {k} unresolvable: {exc}") from None
        if k == space.dim:
            raise DataError(
                f"sweep size {k} removes all {space.dim} dimensions, leaving nothing to score"
            )
        specs.append(spec)
        # 0-based half-open coefficient range the block removes
        blocks.append((indices[0] - 1, indices[-1]) if indices else (0, 0))

    speakers = sorted({t.enroll_speaker for t in trials} & set(embeddings.speakers()))
    which, rows, labels = _resolve_trials(
        trials, {s: i for i, s in enumerate(speakers)}, embeddings
    )
    coeff = embeddings.vectors @ space.basis
    means = np.array([coeff[embeddings.speaker_rows(s)].mean(axis=0) for s in speakers])
    starts = np.unique([0, *(edge for block in blocks for edge in block)])
    starts = starts[starts < space.dim]

    def segment_sums(products):
        return np.add.reduceat(products, starts, axis=1)

    model_sq = segment_sums(means * means)
    test_sq = segment_sums(coeff * coeff)
    dots = np.concatenate(
        [segment_sums(means[which[c]] * coeff[rows[c]]) for c in _chunks(len(trials))]
    )

    result_rows = []
    for k, spec, (lo, hi) in zip(sizes, specs, blocks):
        kept = (starts < lo) | (starts >= hi)
        model_norm = np.sqrt((model_sq if clean_enrollment else model_sq[:, kept]).sum(axis=1))
        for speaker, norm in zip(speakers, model_norm):
            if norm <= _ZERO_NORM:
                raise DataError(f"speaker '{speaker}' has a zero-mean enrollment model")
        scores = _cosines(
            dots[:, kept].sum(axis=1),
            model_norm[which],
            np.sqrt(test_sq[:, kept].sum(axis=1))[rows],
        )
        result = compute_eer(ScoredTrials(scores=scores, labels=labels))
        result_rows.append(
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
    return SweepResult(rows=tuple(result_rows))


SWEEP_HEADER = ["family", "start", "size", "direction", "eer_percent", "n_target", "n_nontarget"]


def write_sweep_csv(result: SweepResult, destination) -> None:
    with open(destination, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(SWEEP_HEADER)
        for row in result.rows:
            writer.writerow(
                [
                    row.family,
                    row.start,
                    row.size,
                    row.direction,
                    format(row.eer_percent, ".17g"),
                    row.n_target,
                    row.n_nontarget,
                ]
            )


def read_sweep_csv(source) -> SweepResult:
    with open_text(source, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != SWEEP_HEADER:
        raise FormatError("sweep CSV has a bad header")
    parsed = []
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != len(SWEEP_HEADER):
            raise FormatError(f"sweep CSV line {lineno}: expected {len(SWEEP_HEADER)} fields")
        try:
            parsed.append(
                SweepRow(
                    family=row[0],
                    start=int(row[1]),
                    size=int(row[2]),
                    direction=row[3],
                    eer_percent=float(row[4]),
                    n_target=int(row[5]),
                    n_nontarget=int(row[6]),
                )
            )
        except ValueError as exc:
            raise FormatError(f"sweep CSV line {lineno}: {exc}") from None
    return SweepResult(rows=tuple(parsed))
