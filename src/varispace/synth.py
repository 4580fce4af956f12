"""Synthetic speaker populations with known covariance structure, drawn
from a seeded counter-based stream, and trial lists over them."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .embeddings import EmbeddingSet, Trial, TrialList, open_text
from .errors import DataError, NumericalError
from .linalg import as_int

_MASK64 = (1 << 64) - 1
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


class CounterRng:
    """Deterministic counter-based 64-bit generator (splitmix-style output
    mixing) with Box-Muller gaussians. A fixed seed reproduces the exact
    same byte stream on every run, independent of draw batching."""

    def __init__(self, seed: int):
        seed = as_int(seed, "seed")
        if not 0 <= seed <= _MASK64:
            raise DataError(f"seed must be an unsigned 64-bit integer, got {seed}")
        self._seed = np.uint64(seed)
        self._drawn = 0

    def raw(self, n: int) -> np.ndarray:
        """Next ``n`` raw 64-bit words."""
        n = as_int(n, "draw count")
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
        for name in ("n_speakers", "utts_per_speaker", "dim", "seed"):
            object.__setattr__(self, name, as_int(getattr(self, name), name))
        if self.n_speakers < 1:
            raise DataError(f"n_speakers must be >= 1, got {self.n_speakers}")
        if self.utts_per_speaker < 1:
            raise DataError(f"utts_per_speaker must be >= 1, got {self.utts_per_speaker}")
        if self.dim < 1:
            raise DataError(f"dim must be >= 1, got {self.dim}")
        if not 0 <= self.seed <= _MASK64:
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


def _run_lengths(text: str, key: str) -> list[tuple[float, int]]:
    """(value, repeat count) for each comma-separated run-length token."""
    runs = []
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
        runs.append((value, count))
    return runs


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
    variances = {}
    for key in ("between", "within"):
        values, counts = zip(*_run_lengths(entries[key], key))
        n_values = sum(counts)
        # checked before expanding, since repeat counts are unbounded
        if n_values != dim:
            raise DataError(
                f"config key '{key}' expands to {n_values} values, expected dim={dim}"
            )
        variances[key] = np.repeat(values, counts)
    return PopulationConfig(
        n_speakers=n_speakers,
        utts_per_speaker=utts,
        dim=dim,
        between_variances=variances["between"],
        within_variances=variances["within"],
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
    vectors = rng.gaussians(s * u * d).reshape(s * u, d) * within_sd
    # each speaker's mean is added to its utterances' noise in place, so the
    # set keeps this one matrix
    by_speaker = vectors.reshape(s, u, d)
    by_speaker += means[:, None, :]
    utt_ids = []
    spk_ids = []
    for k in range(1, s + 1):
        for j in range(1, u + 1):
            utt_ids.append(f"spk{k}_utt{j}")
            spk_ids.append(f"spk{k}")
    return EmbeddingSet._adopt(tuple(utt_ids), tuple(spk_ids), vectors)


def make_trials(embeddings: EmbeddingSet, n_nontarget: int, seed: int) -> TrialList:
    """All same-speaker (speaker, utterance) pairs as targets plus
    ``n_nontarget`` seeded cross-speaker pairs, drawn in batches that give the
    same pairs as one-at-a-time rejection sampling. Desk-scale stand-in for a
    published trial protocol."""
    n_nontarget = as_int(n_nontarget, "nontarget count")
    if n_nontarget < 1:
        raise DataError("need at least one nontarget trial")
    speakers = embeddings.speakers()
    if len(speakers) < 2:
        raise DataError("cross-speaker trials need at least two speakers")
    entries = [
        Trial(spk, utt, True) for utt, spk in zip(embeddings.utt_ids, embeddings.spk_ids)
    ]
    n, n_spk = len(embeddings), len(speakers)
    code_of = dict(zip(speakers, range(n_spk)))
    row_codes = np.array([code_of[spk] for spk in embeddings.spk_ids])
    rng = CounterRng(seed)
    attempts_left, missing = 1000 * n_nontarget, n_nontarget
    while missing:
        batch = min(missing, attempts_left)
        if not batch:
            raise NumericalError("could not draw enough cross-speaker pairs")
        attempts_left -= batch
        pick = rng.uniforms(2 * batch)
        spk = np.minimum((pick[0::2] * n_spk).astype(np.intp), n_spk - 1)
        row = np.minimum((pick[1::2] * n).astype(np.intp), n - 1)
        keep = row_codes[row] != spk
        spk, row = spk[keep].tolist(), row[keep].tolist()
        entries += (Trial(speakers[s], embeddings.utt_ids[r], False) for s, r in zip(spk, row))
        missing -= len(spk)
    return TrialList(tuple(entries))
