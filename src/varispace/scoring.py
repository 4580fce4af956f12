"""Machine-perception evaluation at embedding level: enrollment averaging,
cosine trial scoring, pooled equal-error-rate computation, and subspace-size
sweeps that tabulate EER against the removed block size."""

from __future__ import annotations

from dataclasses import astuple, dataclass, fields
from functools import partial
from typing import Mapping

import numpy as np

from .embeddings import EmbeddingSet, TrialList, read_table, write_table
from .errors import DataError
from .linalg import as_array, as_int, as_real, check_finite, frozen, parse_int, parse_real
from .space import VariabilitySpace
from .subspace import BACKWARD, FORWARD, SWEEP_FAMILIES, SubspaceSpec, resolve_indices

_ZERO_NORM = 1e-30


# Finite inputs can overflow float64 in the norms and inner products below;
# the functions under np.errstate reject the non-finite results.
@np.errstate(over="ignore", invalid="ignore")
def build_enrollment(embeddings: EmbeddingSet, speaker: str) -> np.ndarray:
    """Length-normalized mean of a speaker's embeddings."""
    rows = embeddings.speaker_rows(speaker)
    if not rows.size:
        raise DataError(f"unknown speaker '{speaker}'")
    mean = embeddings.vectors[rows].mean(axis=0)
    norm = np.linalg.norm(mean)
    check_finite(f"speaker '{speaker}': enrollment model norm overflows float64", norm)
    if norm <= _ZERO_NORM:
        raise DataError(f"speaker '{speaker}' has a zero-mean enrollment model")
    return mean / norm


def _cosines(dots: np.ndarray, norms_a: np.ndarray, norms_b: np.ndarray) -> np.ndarray:
    """Cosines from inner products and norms, clamped to [-1, 1]."""
    if np.any(norms_a <= _ZERO_NORM) or np.any(norms_b <= _ZERO_NORM):
        raise DataError("cosine of a zero vector is undefined")
    cosines = dots / (norms_a * norms_b)
    check_finite("cosine: a norm or inner product overflows float64", norms_a, norms_b, cosines)
    return np.clip(cosines, -1.0, 1.0)


@np.errstate(over="ignore", invalid="ignore")
def _cosine_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The one scoring kernel: cosine of each row pair of two (T, D)
    matrices, clamped to [-1, 1]. Each row's result is the same whatever T."""
    return _cosines(
        np.einsum("ij,ij->i", a, b), np.linalg.norm(a, axis=1), np.linalg.norm(b, axis=1)
    )


def cosine(a, b) -> float:
    """Cosine similarity, clamped to [-1, 1]. Both vectors must be nonzero.
    A one-row call of the kernel that :func:`score_trials` uses."""
    va = as_array(a, "cosine operand", 1)
    vb = as_array(b, "cosine operand", 1)
    if va.shape != vb.shape:
        raise DataError(f"cosine dimension mismatch: {va.shape} vs {vb.shape}")
    return float(_cosine_rows(va.reshape(1, -1), vb.reshape(1, -1))[0])


@dataclass(frozen=True, eq=False)
class ScoredTrials:
    """Per-trial cosine scores with their target/nontarget labels."""

    scores: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        scores = frozen(self.scores, "scores", 1)
        if np.any(scores < -1.0 - 1e-9) or np.any(scores > 1.0 + 1e-9):
            raise DataError("scores fall outside [-1, 1]")
        try:
            labels = np.array(self.labels)
        except (TypeError, ValueError):
            labels = np.array(None)  # ragged: not an array of any dtype
        if labels.dtype != bool or labels.shape != scores.shape:
            raise DataError(f"labels must be a bool array of shape {scores.shape}")
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
) -> tuple[np.ndarray, np.ndarray]:
    """Each trial's model index and test row. Unresolvable ids abort, naming
    the earliest such trial's source line (its speaker before its utterance)."""
    n = len(trials)
    models = np.fromiter((model_index.get(t.enroll_speaker, -1) for t in trials), np.intp, n)
    rows = test_set.rows_of(t.test_utterance for t in trials)
    bad = (models < 0) | (rows < 0)
    if bad.any():
        i = int(bad.argmax())
        t = trials.entries[i]
        where = t.line if t.line is not None else i + 1
        if models[i] < 0:
            raise DataError(f"trial {where}: no enrollment for speaker '{t.enroll_speaker}'")
        raise DataError(f"trial {where}: unknown test utterance '{t.test_utterance}'")
    return models, rows


def score_trials(
    enrollments: Mapping[str, np.ndarray],
    test_set: EmbeddingSet,
    trials: TrialList,
) -> ScoredTrials:
    """Cosine score every trial against its enrollment model, order
    preserved. Unresolvable ids abort, naming the trial's source line."""
    speakers = list(enrollments)
    which, rows = _resolve_trials(trials, {s: i for i, s in enumerate(speakers)}, test_set)
    models = as_array([enrollments[s] for s in speakers], "enrollment models", 2)
    if models.shape != (len(speakers), test_set.dim):
        raise DataError(
            f"cosine dimension mismatch: models {models.shape[1:]} vs tests ({test_set.dim},)"
        )
    scores = np.concatenate(
        [_cosine_rows(models[which[c]], test_set.vectors[rows[c]]) for c in _chunks(len(trials))]
    )
    return ScoredTrials(scores=scores, labels=trials.labels)


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

    def __post_init__(self):
        if self.family not in SWEEP_FAMILIES:
            raise DataError(f"unknown sweep family '{self.family}'")
        block = SubspaceSpec(self.start, self.size, self.direction, self.family)
        object.__setattr__(self, "start", block.start)
        object.__setattr__(self, "size", block.size)
        for name in ("n_target", "n_nontarget"):
            object.__setattr__(self, name, as_int(getattr(self, name), name, 0))
        object.__setattr__(self, "eer_percent", as_real(self.eer_percent, "eer_percent"))


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[SweepRow, ...]

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(self.rows))
        for i, row in enumerate(self.rows, start=1):
            if not isinstance(row, SweepRow):
                raise DataError(f"sweep row {i}: expected a SweepRow, got {row!r}")


def _coefficients(space: VariabilitySpace, embeddings: EmbeddingSet, trials: TrialList):
    """Sorted enrolled speakers, coefficients, their mean coefficients, trial models, rows."""
    speakers = sorted({t.enroll_speaker for t in trials} & set(embeddings.speakers()))
    which, rows = _resolve_trials(trials, {s: i for i, s in enumerate(speakers)}, embeddings)
    coeff = embeddings.vectors @ space.basis
    means = np.array([coeff[embeddings.speaker_rows(s)].mean(axis=0) for s in speakers])
    return speakers, coeff, means, which, rows


def _kept_scores(view, blocks, clean_enrollment: bool):
    """Each block's trial scores. The basis is orthonormal, so modified embeddings' inner
    products are those of their coefficients outside the block: the products m*c, m*m and
    c*c are summed once per segment between block edges, and each block sums its kept ones."""
    speakers, coeff, means, which, rows = view
    starts = np.unique([0, *(e for block in blocks for e in block if e < coeff.shape[1])])
    segment_sums = partial(np.add.reduceat, indices=starts, axis=1)
    model_sq = segment_sums(means * means)
    test_sq = segment_sums(coeff * coeff)
    dots = np.concatenate(
        [segment_sums(means[which[c]] * coeff[rows[c]]) for c in _chunks(len(which))]
    )
    for lo, hi in blocks:
        kept = (starts < lo) | (starts >= hi)
        model_norm = np.sqrt((model_sq if clean_enrollment else model_sq[:, kept]).sum(axis=1))
        if (zero := model_norm <= _ZERO_NORM).any():
            speaker = speakers[zero.argmax()]
            raise DataError(f"speaker '{speaker}' has a zero-mean enrollment model")
        test_norm = np.sqrt(test_sq[:, kept].sum(axis=1))
        yield _cosines(dots[:, kept].sum(axis=1), model_norm[which], test_norm[rows])


@np.errstate(over="ignore", invalid="ignore")
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
    """
    if family not in SWEEP_FAMILIES:
        raise DataError(f"unknown sweep family '{family}'")
    space.check_dim(embeddings.dim)
    if family == "secondary":
        if turning_dim is None:
            raise DataError("secondary-family sweeps require the turning dimension")
        turning_dim = as_int(turning_dim, "turning dimension", 1)
        if turning_dim > space.dim:
            raise DataError(f"turning dimension {turning_dim} exceeds dimension {space.dim}")
    start, direction = {
        "primary": (1, FORWARD),
        "secondary": (turning_dim, BACKWARD),
        "residual": (space.dim, BACKWARD),
    }[family]
    # sizes are read one at a time, so a bad one stops an unbounded range
    sizes, blocks = [], []
    for k in k_values:
        try:
            spec = SubspaceSpec(start, k, direction, family)
            indices = resolve_indices(spec, space.dim)
        except DataError as exc:
            raise DataError(f"size {k} unresolvable: {exc}") from None
        if spec.size == space.dim:
            raise DataError(
                f"sweep size {spec.size} removes all {space.dim} dimensions, "
                "leaving nothing to score"
            )
        sizes.append(spec.size)
        # 0-based half-open coefficient range the block removes
        blocks.append((indices[0] - 1, indices[-1]) if indices else (0, 0))
    if not sizes:
        raise DataError("sweep needs at least one size")

    result_rows = []
    view = _coefficients(space, embeddings, trials)
    for k, scores in zip(sizes, _kept_scores(view, blocks, clean_enrollment)):
        result = compute_eer(ScoredTrials(scores=scores, labels=trials.labels))
        result_rows.append(
            SweepRow(
                family=family,
                start=start,
                size=k,
                direction=direction,
                eer_percent=result.eer_percent,
                n_target=result.n_target,
                n_nontarget=result.n_nontarget,
            )
        )
    return SweepResult(rows=tuple(result_rows))


SWEEP_HEADER = [field.name for field in fields(SweepRow)]


def write_sweep_csv(result: SweepResult, destination) -> None:
    write_table(destination, SWEEP_HEADER, map(astuple, result.rows))


def read_sweep_csv(source) -> SweepResult:
    converters = (None, parse_int, parse_int, None, parse_real, parse_int, parse_int)
    records = read_table(source, "sweep", SWEEP_HEADER, converters, SweepRow)
    return SweepResult(rows=tuple(row for _, row in records))
