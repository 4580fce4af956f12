"""Synthetic speaker populations with known covariance structure, drawn
from a seeded counter-based stream, and trial lists over them."""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from .embeddings import EmbeddingSet, Trial, TrialList, open_text
from .errors import DataError, NumericalError
from .linalg import as_int, frozen, parse_int, parse_real

_MASK64 = (1 << 64) - 1
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
# the words one generator draws in all: as many as one uint64 array can hold
_MAX_WORDS = 2**60 - 1


class CounterRng:
    """Counter-based 64-bit generator (splitmix-style mixing), Box-Muller gaussians.
    A seed fixes the raw words and uniforms exactly; gaussians use numpy's log and
    cos, so their bytes hold per numpy build and CPU. Batching never changes a draw."""

    def __init__(self, seed: int):
        seed = as_int(seed, "seed")
        if not 0 <= seed <= _MASK64:
            raise DataError(f"seed must be an unsigned 64-bit integer, got {seed}")
        self._seed = np.uint64(seed)
        self._drawn = 0

    def raw(self, n: int) -> np.ndarray:
        """Next ``n`` raw 64-bit words; a failed draw leaves the stream as it was."""
        n = as_int(n, "draw count", 0)
        start = self._drawn
        if n > _MAX_WORDS - start:
            raise DataError(f"draw count {n} exceeds the {_MAX_WORDS - start} words left")
        z = np.arange(start + 1, start + n + 1, dtype=np.uint64)
        self._drawn += n
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
        n = as_int(n, "draw count", 0)
        if n > (left := (_MAX_WORDS - self._drawn) // 2):
            raise DataError(f"draw count {n} exceeds the {left} gaussians left")
        u = self.uniforms(2 * n)
        radius = np.sqrt(-2.0 * np.log(u[0::2]))
        return radius * np.cos(2.0 * np.pi * u[1::2])


@dataclass(frozen=True, eq=False)
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
        for name, least in zip(("n_speakers", "utts_per_speaker", "dim", "seed"), (1, 1, 1, None)):
            object.__setattr__(self, name, as_int(getattr(self, name), name, least))
        CounterRng(self.seed)  # the generator it seeds checks the seed's range
        for name in ("between_variances", "within_variances"):
            arr = frozen(getattr(self, name), name, 1)
            if arr.size != self.dim:
                raise DataError(f"{name} must have length dim={self.dim}")
            if np.any(arr < 0.0):
                raise DataError(f"{name} must be non-negative")
            object.__setattr__(self, name, arr)


def _run_lengths(text: str, key: str) -> list[tuple[float, int]]:
    """(value, repeat count) for each comma-separated ``<value>[x<count>]`` token."""
    runs = []
    for token in text.split(","):
        value, times, count = token.partition("x")
        value = parse_real(value, f"{key} value")
        runs.append((value, parse_int(count, f"{key} repeat count", 1) if times else 1))
    return runs


def parse_population_config(text: str) -> PopulationConfig:
    """Parse the flat key-value config syntax.

    Required keys: n_speakers, utts_per_speaker, dim, between, within, seed.
    The variance keys use comma-separated run-length tokens (``0.9x8,0.0x24``)
    that must expand to exactly ``dim`` values. Blank lines and ``#``
    comments are ignored; only ``\\n``, ``\\r\\n`` and ``\\r`` end a line.
    """
    required = ("n_speakers", "utts_per_speaker", "dim", "between", "within", "seed")
    entries: dict[str, str] = {}
    for lineno, raw in enumerate(io.StringIO(text, newline=""), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = map(str.strip, line.partition("="))
        if not sep:
            raise DataError(f"config line {lineno}: expected key=value")
        if key not in required:
            raise DataError(f"config line {lineno}: unknown key '{key}'")
        if key in entries:
            raise DataError(f"config line {lineno}: duplicate key '{key}'")
        entries[key] = value
    for key in required:
        if key not in entries:
            raise DataError(f"config is missing required key '{key}'")
    integers = ("n_speakers", "utts_per_speaker", "dim", "seed")
    fields = {key: parse_int(entries[key], key) for key in integers}
    for key in ("between", "within"):
        values, counts = zip(*_run_lengths(entries[key], key))
        n_values, dim = sum(counts), fields["dim"]
        # checked before expanding, since repeat counts are unbounded
        if n_values != dim:
            raise DataError(f"config key '{key}' expands to {n_values} values, expected dim={dim}")
        try:
            fields[f"{key}_variances"] = np.repeat(values, counts)
        except (ValueError, OverflowError):  # numpy's array size limits
            raise DataError(
                f"config key '{key}' expands to {dim} values, too many for an array"
            ) from None
    return PopulationConfig(**fields)


def load_population_config(source) -> PopulationConfig:
    with open_text(source) as fh:
        return parse_population_config(fh.read())


def generate(config: PopulationConfig) -> EmbeddingSet:
    """Draw the population: speaker means first (speaker-major), then all utterance
    noise, from one counter stream; the seed fixes its bytes for one numpy build and
    CPU (see ``CounterRng``). Ids are ``spk<k>`` / ``spk<k>_utt<u>``, 1-based."""
    rng = CounterRng(config.seed)
    s, u, d = config.n_speakers, config.utts_per_speaker, config.dim
    between_sd = np.sqrt(config.between_variances)
    within_sd = np.sqrt(config.within_variances)
    means = rng.gaussians(s * d).reshape(s, d) * between_sd
    vectors = rng.gaussians(s * u * d).reshape(s * u, d) * within_sd
    # each speaker's mean is added in place; once locked, the set keeps the matrix
    by_speaker = vectors.reshape(s, u, d)
    by_speaker += means[:, None, :]
    vectors.setflags(write=False)
    utt_ids = []
    spk_ids = []
    for k in range(1, s + 1):
        for j in range(1, u + 1):
            utt_ids.append(f"spk{k}_utt{j}")
            spk_ids.append(f"spk{k}")
    return EmbeddingSet(tuple(utt_ids), tuple(spk_ids), vectors)


def make_trials(embeddings: EmbeddingSet, n_nontarget: int, seed: int) -> TrialList:
    """All same-speaker (speaker, utterance) pairs as targets plus
    ``n_nontarget`` seeded cross-speaker pairs, drawn in batches that give the
    same pairs as one-at-a-time rejection sampling. Desk-scale stand-in for a
    published trial protocol."""
    n_nontarget = as_int(n_nontarget, "nontarget count", 1)
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
