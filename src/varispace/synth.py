"""Synthetic speaker populations with known covariance structure, plus
independent brute-force oracles for the eigensolver and the EER estimator.

The oracles deliberately re-derive everything from first principles (power
iteration with deflation, exhaustive threshold sweeps) and share no code
with the production implementations they check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .embeddings import EmbeddingSet, Trial, TrialList, open_text
from .errors import DataError, NumericalError
from .scoring import ScoredTrials

_MASK64 = (1 << 64) - 1
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


class CounterRng:
    """Deterministic counter-based 64-bit generator (splitmix-style output
    mixing) with Box-Muller gaussians. A fixed seed reproduces the exact
    same byte stream on every run, independent of draw batching."""

    def __init__(self, seed: int):
        if not 0 <= int(seed) <= _MASK64:
            raise DataError(f"seed must be an unsigned 64-bit integer, got {seed}")
        self._seed = np.uint64(int(seed))
        self._drawn = 0

    def raw(self, n: int) -> np.ndarray:
        """Next ``n`` raw 64-bit words."""
        if n < 0:
            raise DataError("draw count must be >= 0")
        start = self._drawn
        self._drawn += n
        z = np.arange(start + 1, start + n + 1, dtype=np.uint64)
        # in place, so a population-sized draw holds one word array at a time
        with np.errstate(over="ignore"):
            z *= _GAMMA
            z += self._seed
            z ^= z >> np.uint64(30)
            z *= _MIX1
            z ^= z >> np.uint64(27)
            z *= _MIX2
            z ^= z >> np.uint64(31)
        return z

    def uniforms(self, n: int) -> np.ndarray:
        """Next ``n`` doubles in (0, 1]."""
        return ((self.raw(n) >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0**-53

    def gaussians(self, n: int) -> np.ndarray:
        """Next ``n`` standard normals via Box-Muller (cosine branch); each
        draw consumes two uniforms, so the stream is batching-invariant."""
        u = self.uniforms(2 * n)
        radius = np.sqrt(-2.0 * np.log(u[0::2]))
        return radius * np.cos(2.0 * np.pi * u[1::2])


@dataclass(frozen=True)
class PopulationConfig:
    """Synthetic population: per-dimension speaker-mean variance and
    per-dimension utterance noise variance, both diagonal."""

    n_speakers: int
    utts_per_speaker: int
    dim: int
    between_variances: np.ndarray
    within_variances: np.ndarray
    seed: int

    def __post_init__(self):
        if self.n_speakers < 1:
            raise DataError(f"n_speakers must be >= 1, got {self.n_speakers}")
        if self.utts_per_speaker < 1:
            raise DataError(f"utts_per_speaker must be >= 1, got {self.utts_per_speaker}")
        if self.dim < 1:
            raise DataError(f"dim must be >= 1, got {self.dim}")
        if not 0 <= int(self.seed) <= _MASK64:
            raise DataError("seed must be an unsigned 64-bit integer")
        for name in ("between_variances", "within_variances"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            if arr.shape != (self.dim,):
                raise DataError(f"{name} must have length dim={self.dim}")
            if not np.all(np.isfinite(arr)) or np.any(arr < 0.0):
                raise DataError(f"{name} must be finite and non-negative")
            arr = arr.copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def _expand_run_length(text: str, key: str) -> list[float]:
    values: list[float] = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            raise DataError(f"config key '{key}': empty run-length token")
        if "x" in token:
            value_part, _, count_part = token.partition("x")
            try:
                count = int(count_part)
            except ValueError:
                raise DataError(
                    f"config key '{key}': bad repeat count in '{token}'"
                ) from None
            if count < 1:
                raise DataError(f"config key '{key}': repeat count must be >= 1")
        else:
            value_part, count = token, 1
        try:
            value = float(value_part)
        except ValueError:
            raise DataError(f"config key '{key}': bad value in '{token}'") from None
        values.extend([value] * count)
    return values


def parse_population_config(text: str) -> PopulationConfig:
    """Parse the flat key-value config syntax.

    Required keys: n_speakers, utts_per_speaker, dim, between, within, seed.
    The variance keys use comma-separated run-length tokens
    (``0.9x8,0.0x24``) that must expand to exactly ``dim`` values. Blank
    lines and ``#`` comments are ignored.
    """
    entries: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DataError(f"config line {lineno}: expected key=value")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in entries:
            raise DataError(f"config line {lineno}: duplicate key '{key}'")
        entries[key] = value.strip()
    required = ("n_speakers", "utts_per_speaker", "dim", "between", "within", "seed")
    for key in required:
        if key not in entries:
            raise DataError(f"config is missing required key '{key}'")
    for key in entries:
        if key not in required:
            raise DataError(f"config has unknown key '{key}'")
    try:
        n_speakers = int(entries["n_speakers"])
        utts = int(entries["utts_per_speaker"])
        dim = int(entries["dim"])
        seed = int(entries["seed"])
    except ValueError as exc:
        raise DataError(f"config: {exc}") from None
    between = _expand_run_length(entries["between"], "between")
    within = _expand_run_length(entries["within"], "within")
    if dim >= 1:
        for name, values in (("between", between), ("within", within)):
            if len(values) != dim:
                raise DataError(
                    f"config key '{name}' expands to {len(values)} values, expected dim={dim}"
                )
    return PopulationConfig(
        n_speakers=n_speakers,
        utts_per_speaker=utts,
        dim=dim,
        between_variances=np.array(between),
        within_variances=np.array(within),
        seed=seed,
    )


def load_population_config(source) -> PopulationConfig:
    with open_text(source) as fh:
        return parse_population_config(fh.read())


def generate(config: PopulationConfig) -> EmbeddingSet:
    """Draw the population: speaker means first (speaker-major), then all
    utterance noise, from one counter stream, so the output bytes are a pure
    function of the seed. Ids are ``spk<k>`` / ``spk<k>_utt<u>``, 1-based."""
    rng = CounterRng(config.seed)
    s, u, d = config.n_speakers, config.utts_per_speaker, config.dim
    between_sd = np.sqrt(config.between_variances)
    within_sd = np.sqrt(config.within_variances)
    means = rng.gaussians(s * d).reshape(s, d) * between_sd
    noise = rng.gaussians(s * u * d).reshape(s, u, d) * within_sd
    vectors = (means[:, None, :] + noise).reshape(s * u, d)
    utt_ids = []
    spk_ids = []
    for k in range(1, s + 1):
        for j in range(1, u + 1):
            utt_ids.append(f"spk{k}_utt{j}")
            spk_ids.append(f"spk{k}")
    return EmbeddingSet(tuple(utt_ids), tuple(spk_ids), vectors)


def make_trials(embeddings: EmbeddingSet, n_nontarget: int, seed: int) -> TrialList:
    """All same-speaker (speaker, utterance) pairs as targets plus
    ``n_nontarget`` seeded cross-speaker pairs. Desk-scale stand-in for a
    published trial protocol."""
    if n_nontarget < 1:
        raise DataError("need at least one nontarget trial")
    speakers = embeddings.speakers()
    if len(speakers) < 2:
        raise DataError("cross-speaker trials need at least two speakers")
    entries = [
        Trial(spk, utt, True) for utt, spk, _ in embeddings.records()
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
