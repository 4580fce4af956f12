"""Metamorphic tests of the evaluation front end: changes to the input that
the paper's measurement cannot see must leave every result unchanged.

Each example runs the whole pipeline (fit, knee, enrollment, scoring, EER
and the sweeps of all three families, with and without clean enrollment)
on a population and on a transformed copy of it:

- permuting the trial order, and relabelling speaker and utterance ids
  bijectively, change no arithmetic, so every result is exactly equal;
- permuting the embedding rows changes the summation order of the
  covariance and of the speaker means, so scores move by a few ulps;
- rotating the embeddings, X -> XQ for an orthogonal Q, rotates the basis
  with them and keeps the eigenvalues, so the coefficients, and with them
  every score, move only by round-off;
- scaling the embeddings, X -> cX for c > 0, scales the eigenvalues by c^2
  and leaves every cosine, so again only round-off moves.

Tolerance for the row permutation, from a measurement over 300 seeded
populations drawn like ``cases`` below: scores moved by at most 5.6e-16,
eigenvalues by 1.4e-15 of the largest and EER thresholds by 3.3e-16; no
knee, no EER and none of 30514 sweep rows moved. The EER depends only on
the order of the scores, and an ulp is far below the gaps between distinct
scores of a population with within-speaker noise, so EERs and sweep rows
must be exactly equal; scores, eigenvalues and the threshold get 1e-12.
Rows that keep one dimension are left out: every score there is +-1 up to
an ulp, so an ulp reorders the ties, and 640 of those 1390 rows moved, by
up to 12.7 points.

The rotation and the scale get the same tolerances, from 600 populations
each, drawn the same way (Q from the QR factors of a gaussian matrix; c
log-uniform in [1e-3, 1e3]). Rotation: scores moved by at most 8.9e-16,
eigenvalues by 2.5e-15 of the largest and thresholds by 5.6e-16; no knee,
no EER and none of 61964 rows that keep two or more dimensions moved,
while 1294 of 2800 one-kept-dimension rows moved, by up to 9.7 points.
Scale: scores moved by at most 7.8e-16, eigenvalues divided by c^2 by
1.8e-15 of the largest and thresholds by 5.6e-16; no knee, no EER and none
of 62930 such rows moved, while 1300 of 2846 one-kept-dimension rows
moved, by up to 18.4 points.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varispace import (
    EmbeddingSet,
    Trial,
    TrialList,
    build_enrollment,
    compute_eer,
    delta_spectrum,
    detect_turning,
    fit,
    generate,
    make_trials,
    parse_population_config,
    run_sweep,
    score_trials,
)

METAMORPHIC = settings(max_examples=20, deadline=None)


@st.composite
def cases(draw):
    """A population with within-speaker noise in every dimension and at least
    2D rows, so that the basis is unique, plus its trial list."""
    dim = draw(st.integers(13, 24))  # the knee detector needs D >= 13
    n_speakers = draw(st.integers(3, 12))
    utts = max(draw(st.integers(2, 6)), -(-2 * dim // n_speakers))
    n_between = draw(st.integers(1, dim))
    between = f"0.9x{n_between}" + (f",0.0x{dim - n_between}" if dim > n_between else "")
    embeddings = generate(parse_population_config(
        f"n_speakers={n_speakers}\nutts_per_speaker={utts}\ndim={dim}\n"
        f"between={between}\nwithin=0.1x{dim}\nseed={draw(st.integers(0, 2**32))}\n"
    ))
    trials = make_trials(embeddings, draw(st.integers(1, 300)), seed=draw(st.integers(0, 99)))
    return embeddings, trials


def pipeline(embeddings, trials):
    space = fit(embeddings)
    knee = detect_turning(delta_spectrum(space)).index
    wanted = {t.enroll_speaker for t in trials} & set(embeddings.speakers())
    models = {s: build_enrollment(embeddings, s) for s in sorted(wanted)}
    scored = score_trials(models, embeddings, trials)
    d = space.dim
    rows = []
    for family, turning, last in (
        ("primary", None, d - 1), ("secondary", knee, min(knee, d - 1)), ("residual", None, d - 1)
    ):
        for clean in (False, True):
            rows += run_sweep(
                space, embeddings, trials, family, range(last + 1),
                turning_dim=turning, clean_enrollment=clean,
            ).rows
    return space.eigenvalues, knee, scored.scores, compute_eer(scored), rows


def _assert_identical(a, b):
    assert a[0].tobytes() == b[0].tobytes()
    assert a[1] == b[1]
    assert a[3] == b[3]
    assert a[4] == b[4]


@METAMORPHIC
@given(case=cases(), data=st.data())
def test_trial_order_permutation(case, data):
    embeddings, trials = case
    order = data.draw(st.permutations(range(len(trials))))
    shuffled = TrialList(tuple(trials.entries[i] for i in order))
    base, moved = pipeline(embeddings, trials), pipeline(embeddings, shuffled)
    _assert_identical(base, moved)
    assert moved[2].tobytes() == base[2][list(order)].tobytes()


@METAMORPHIC
@given(case=cases(), data=st.data())
def test_id_relabelling(case, data):
    embeddings, trials = case
    speakers, n = embeddings.speakers(), len(embeddings)
    # new names whose sorted order differs from the old one
    spk_names = data.draw(st.permutations(range(len(speakers))))
    utt_names = data.draw(st.permutations(range(n)))
    spk_map = {s: f"speaker-{k}" for s, k in zip(speakers, spk_names)}
    utt_map = {u: f"utt-{k}" for u, k in zip(embeddings.utt_ids, utt_names)}
    relabelled = EmbeddingSet(
        tuple(utt_map[u] for u in embeddings.utt_ids),
        tuple(spk_map[s] for s in embeddings.spk_ids),
        embeddings.vectors,
    )
    renamed = TrialList(tuple(
        Trial(spk_map[t.enroll_speaker], utt_map[t.test_utterance], t.target, t.line)
        for t in trials
    ))
    base, moved = pipeline(embeddings, trials), pipeline(relabelled, renamed)
    _assert_identical(base, moved)
    assert moved[2].tobytes() == base[2].tobytes()


@METAMORPHIC
@given(case=cases(), data=st.data())
def test_embedding_row_permutation(case, data):
    embeddings, trials = case
    order = list(data.draw(st.permutations(range(len(embeddings)))))
    permuted = EmbeddingSet(
        tuple(embeddings.utt_ids[i] for i in order),
        tuple(embeddings.spk_ids[i] for i in order),
        embeddings.vectors[order],
    )
    _assert_round_off(pipeline(embeddings, trials), pipeline(permuted, trials), embeddings.dim)


@METAMORPHIC
@given(case=cases(), seed=st.integers(0, 2**32))
def test_rotation(case, seed):
    embeddings, trials = case
    q, r = np.linalg.qr(np.random.default_rng(seed).standard_normal((embeddings.dim,) * 2))
    rotated = EmbeddingSet(
        embeddings.utt_ids, embeddings.spk_ids, embeddings.vectors @ (q * np.sign(np.diag(r)))
    )
    _assert_round_off(pipeline(embeddings, trials), pipeline(rotated, trials), embeddings.dim)


@METAMORPHIC
@given(case=cases(), exponent=st.floats(-3.0, 3.0))
def test_global_scale(case, exponent):
    embeddings, trials = case
    c = 10.0**exponent
    scaled = EmbeddingSet(embeddings.utt_ids, embeddings.spk_ids, c * embeddings.vectors)
    base, moved = pipeline(embeddings, trials), pipeline(scaled, trials)
    _assert_round_off(base, (moved[0] / c**2, *moved[1:]), embeddings.dim)


def _assert_round_off(base, moved, dim):
    """Results equal up to round-off: eigenvalues, scores and the threshold
    within 1e-12, everything else exactly, except sweep rows that keep one
    dimension."""
    assert np.max(np.abs(moved[0] - base[0])) <= 1e-12 * base[0][0]
    assert moved[1] == base[1]
    assert np.max(np.abs(moved[2] - base[2])) <= 1e-12
    assert moved[3].eer_percent == base[3].eer_percent
    assert (moved[3].n_target, moved[3].n_nontarget) == (base[3].n_target, base[3].n_nontarget)
    assert moved[3].threshold_at_eer == pytest.approx(base[3].threshold_at_eer, abs=1e-12)
    assert [r.size for r in moved[4]] == [r.size for r in base[4]]
    assert all(a == b for a, b in zip(base[4], moved[4]) if a.size < dim - 1)
