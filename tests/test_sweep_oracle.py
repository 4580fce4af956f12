"""The coefficient-space ``run_sweep`` against the per-K oracle, which
modifies the whole set, rebuilds enrollment and rescores for every size."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import per_k_sweep_oracle
from varispace import (
    EmbeddingSet,
    ScoredTrials,
    Trial,
    TrialList,
    compute_eer,
    fit,
    run_sweep,
)


@st.composite
def populations(draw):
    """A small seeded population with more embeddings than dimensions, so
    every basis direction carries sample variance, and every
    (speaker, utterance) pair as a trial."""
    n_speakers = draw(st.integers(2, 6))
    utts = draw(st.integers(1 if n_speakers >= 4 else 2, 5))
    n = n_speakers * utts
    dim = draw(st.integers(3, min(12, n - 1)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    means = rng.standard_normal((n_speakers, dim)) * rng.uniform(0.1, 3.0, dim)
    rows = np.repeat(means, utts, axis=0)
    rows += rng.standard_normal((n, dim)) * rng.uniform(0.05, 1.0)
    spk_ids = tuple(f"s{i // utts}" for i in range(n))
    utt_ids = tuple(f"{spk}u{i % utts}" for i, spk in enumerate(spk_ids))
    emb = EmbeddingSet(utt_ids, spk_ids, rows)
    trials = TrialList(tuple(
        Trial(s, u, s == owner) for s in emb.speakers() for u, owner in zip(utt_ids, spk_ids)
    ))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        space = fit(emb)
    return space, emb, trials


@pytest.mark.parametrize("clean_enrollment", [False, True])
@pytest.mark.parametrize("family", ["primary", "secondary", "residual"])
@settings(max_examples=25, deadline=None)
@given(population=populations(), data=st.data())
def test_rows_equal_per_k_oracle(family, clean_enrollment, population, data):
    # sizes keep at least two dimensions: with one left, every score is a
    # tie at +-1 (see test_one_kept_dimension_scores_by_sign), and the
    # oracle's rounding in D dimensions breaks those ties arbitrarily
    space, emb, trials = population
    turning = data.draw(st.integers(1, space.dim)) if family == "secondary" else None
    largest = min(turning or space.dim, space.dim - 2)
    sizes = data.draw(st.lists(st.integers(0, largest), min_size=1, max_size=6))
    args = (space, emb, trials, family, sizes, turning, clean_enrollment)
    assert run_sweep(*args).rows == per_k_sweep_oracle(*args)


@pytest.mark.parametrize("family, kept", [("primary", -1), ("residual", 0)])
@settings(max_examples=25, deadline=None)
@given(population=populations())
def test_one_kept_dimension_scores_by_sign(family, kept, population):
    # with one coefficient left, a modified model and test embedding are
    # parallel or opposite: each score is the sign of the two coefficients
    space, emb, trials = population
    coeff = emb.vectors @ space.basis[:, kept]
    model = {s: coeff[emb.speaker_rows(s)].mean() for s in emb.speakers()}
    scores = [np.sign(model[t.enroll_speaker] * coeff[emb.row(t.test_utterance)]) for t in trials]
    labels = [t.target for t in trials]
    expected = compute_eer(ScoredTrials(np.array(scores), np.array(labels)))
    (row,) = run_sweep(space, emb, trials, family, [space.dim - 1]).rows
    assert row.eer_percent == expected.eer_percent
