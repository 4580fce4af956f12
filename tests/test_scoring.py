import itertools

import numpy as np
import pytest

from helpers import assert_raises_exactly, brute_eer
from varispace import (
    DataError,
    EmbeddingSet,
    FormatError,
    NumericalError,
    ScoredTrials,
    SubspaceSpec,
    Trial,
    TrialList,
    VariabilitySpace,
    build_enrollment,
    compute_eer,
    cosine,
    fit,
    modify_batch,
    read_sweep_csv,
    run_sweep,
    score_trials,
    write_sweep_csv,
)


def _set(utts, spks, rows):
    return EmbeddingSet(tuple(utts), tuple(spks), np.asarray(rows, float))


class TestBuildEnrollment:
    def test_single_utterance_normalized(self):
        emb = _set(["u1"], ["a"], [[3.0, 4.0]])
        assert build_enrollment(emb, "a") == pytest.approx([0.6, 0.8])

    def test_two_utterance_mean(self):
        emb = _set(["u1", "u2"], ["a", "a"], [[1.0, 0.0], [0.0, 1.0]])
        inv_sqrt2 = 1.0 / np.sqrt(2.0)
        assert build_enrollment(emb, "a") == pytest.approx([inv_sqrt2, inv_sqrt2])

    def test_zero_mean_degenerate(self):
        emb = _set(["u1", "u2"], ["a", "a"], [[1.0, 0.0], [-1.0, 0.0]])
        with pytest.raises(DataError):
            build_enrollment(emb, "a")

    def test_unknown_speaker(self):
        emb = _set(["u1"], ["a"], [[1.0, 0.0]])
        with pytest.raises(DataError):
            build_enrollment(emb, "b")


class TestCosine:
    def test_self_similarity(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            v = rng.standard_normal(6)
            assert cosine(v, v) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal(self):
        assert cosine([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_known_value(self):
        assert cosine([1.0, 0.0], [1.0, 1.0]) == pytest.approx(0.7071067811865475, abs=1e-16)

    def test_symmetric_and_bounded(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            a, b = rng.standard_normal((2, 5)) * rng.uniform(0.01, 100)
            assert cosine(a, b) == cosine(b, a)
            assert -1.0 <= cosine(a, b) <= 1.0

    def test_zero_vector_rejected(self):
        with pytest.raises(DataError):
            cosine([0.0, 0.0], [1.0, 0.0])

    def test_dimension_mismatch(self):
        with pytest.raises(DataError):
            cosine([1.0], [1.0, 2.0])


class TestScoreTrials:
    def test_enrollment_equals_test_vector(self):
        emb = _set(["u1"], ["a"], [[0.6, 0.8]])
        trials = TrialList((Trial("a", "u1", True),))
        scored = score_trials({"a": np.array([0.6, 0.8])}, emb, trials)
        assert scored.scores[0] == pytest.approx(1.0)
        assert scored.labels[0]

    def test_orthogonal_pair(self):
        emb = _set(["u1"], ["a"], [[0.0, 1.0]])
        trials = TrialList((Trial("a", "u1", False),))
        scored = score_trials({"a": np.array([1.0, 0.0])}, emb, trials)
        assert scored.scores[0] == 0.0

    def test_matches_per_pair_oracle(self):
        rng = np.random.default_rng(2)
        emb = _set(
            [f"u{i}" for i in range(4)],
            ["a", "a", "b", "b"],
            rng.standard_normal((4, 3)),
        )
        models = {"a": rng.standard_normal(3), "b": rng.standard_normal(3)}
        trials = TrialList(
            (
                Trial("a", "u0", True),
                Trial("a", "u2", False),
                Trial("b", "u3", True),
                Trial("b", "u1", False),
            )
        )
        scored = score_trials(models, emb, trials)
        rows = emb.rows_of(t.test_utterance for t in trials)
        for i, (t, r) in enumerate(zip(trials, rows)):
            assert scored.scores[i] == cosine(models[t.enroll_speaker], emb.vectors[r])

    def test_scores_across_chunks_match_per_pair_cosine(self):
        # more trials than one scoring chunk holds
        rng = np.random.default_rng(16)
        emb = _set([f"u{i}" for i in range(50)], [f"s{i % 5}" for i in range(50)],
                   rng.standard_normal((50, 12)))
        models = {f"s{j}": rng.standard_normal(12) for j in range(5)}
        trials = TrialList(tuple(
            Trial(f"s{int(rng.integers(5))}", f"u{int(rng.integers(50))}", bool(i % 2))
            for i in range(9000)
        ))
        scored = score_trials(models, emb, trials)
        rows = emb.rows_of(t.test_utterance for t in trials)
        expected = [cosine(models[t.enroll_speaker], emb.vectors[r]) for t, r in zip(trials, rows)]
        assert scored.scores.tolist() == expected
        assert scored.labels.tolist() == [t.target for t in trials]

    def test_unknown_speaker_names_line(self):
        emb = _set(["u1"], ["a"], [[1.0, 0.0]])
        trials = TrialList((Trial("a", "u1", True, line=3), Trial("z", "u1", False, line=9)))
        with pytest.raises(DataError) as err:
            score_trials({"a": np.array([1.0, 0.0])}, emb, trials)
        assert "trial 9" in str(err.value)

    def test_unknown_utterance_names_line(self):
        emb = _set(["u1"], ["a"], [[1.0, 0.0]])
        trials = TrialList((Trial("a", "nope", True, line=4),))
        with pytest.raises(DataError) as err:
            score_trials({"a": np.array([1.0, 0.0])}, emb, trials)
        assert "trial 4" in str(err.value)

    @pytest.mark.parametrize(
        "bad, message",
        [
            # an unknown utterance before an unknown speaker
            ((("a", "nope", 5), ("z", "u1", 8)), "trial 5: unknown test utterance 'nope'"),
            # an unknown speaker before an unknown utterance
            ((("z", "u1", 5), ("a", "nope", 8)), "trial 5: no enrollment for speaker 'z'"),
            # both unknown in one trial: the speaker is named
            ((("z", "nope", 5), ("a", "gone", 8)), "trial 5: no enrollment for speaker 'z'"),
        ],
    )
    def test_earliest_bad_trial_named(self, bad, message):
        emb = _set(["u1"], ["a"], [[1.0, 0.0]])
        good = [Trial("a", "u1", True, line=2), Trial("a", "u1", False, line=3)]
        trials = TrialList(tuple(good + [Trial(s, u, False, line=ln) for s, u, ln in bad]))
        with pytest.raises(DataError) as err:
            score_trials({"a": np.array([1.0, 0.0])}, emb, trials)
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "models, message",
        [
            ({"a": [1.0, 0.0], "b": [1.0]}, "enrollment models is not a numeric matrix"),
            ({"a": ["x", 0.0], "b": [1.0, 0.0]}, "enrollment models is not a numeric matrix"),
            ({"a": [np.nan, 0.0], "b": [1.0, 0.0]}, "enrollment models contains a non-finite"),
        ],
        ids=["ragged", "non-numeric", "nan"],
    )
    @pytest.mark.parametrize("unknown_speaker", [False, True])
    def test_bad_models_are_data_errors(self, models, message, unknown_speaker):
        emb = _set(["u1", "u2"], ["a", "b"], [[1.0, 0.0], [0.0, 1.0]])
        trials = [Trial("a", "u1", True), Trial("b", "u1", False)]
        if unknown_speaker:
            # resolving the trials comes first, so the unknown speaker is named
            trials.append(Trial("z", "u2", False, line=7))
            message = "trial 7: no enrollment for speaker 'z'"
        with pytest.raises(DataError) as err:
            score_trials(models, emb, TrialList(tuple(trials)))
        assert type(err.value) is DataError
        assert str(err.value).startswith(message)


def _scored(targets, nontargets):
    scores = np.array(list(targets) + list(nontargets), dtype=float)
    labels = np.array([True] * len(targets) + [False] * len(nontargets))
    return ScoredTrials(scores, labels)


class TestComputeEer:
    def test_perfectly_separated(self):
        result = compute_eer(_scored([0.9, 0.8], [0.1, 0.2]))
        assert result.eer_percent == 0.0
        assert result.n_target == 2
        assert result.n_nontarget == 2

    def test_plateau_crossing(self):
        result = compute_eer(_scored([0.8, 0.2], [0.7, 0.1]))
        assert result.eer_percent == pytest.approx(50.0, abs=1e-12)
        assert 0.2 < result.threshold_at_eer <= 0.7

    def test_total_overlap(self):
        result = compute_eer(_scored([0.5, 0.5], [0.5, 0.5]))
        assert result.eer_percent == pytest.approx(50.0, abs=1e-12)

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            n_t = int(rng.integers(2, 60))
            n_n = int(rng.integers(2, 60))
            scored = _scored(rng.uniform(-1, 1, n_t), rng.uniform(-1, 1, n_n))
            expected = brute_eer(scored)
            assert compute_eer(scored).eer_percent == pytest.approx(expected, abs=1e-9)

    def test_invariant_to_trial_order(self):
        rng = np.random.default_rng(4)
        scored = _scored(rng.uniform(0, 1, 30), rng.uniform(-1, 0.5, 40))
        perm = rng.permutation(len(scored))
        shuffled = ScoredTrials(scored.scores[perm], scored.labels[perm])
        assert compute_eer(shuffled).eer_percent == compute_eer(scored).eer_percent

    def test_invariant_to_monotone_transform(self):
        rng = np.random.default_rng(5)
        scored = _scored(rng.uniform(-1, 1, 25), rng.uniform(-1, 1, 35))
        squashed = ScoredTrials(np.tanh(2.0 * scored.scores), scored.labels)
        assert compute_eer(squashed).eer_percent == pytest.approx(
            compute_eer(scored).eer_percent, abs=1e-9
        )

    def test_label_swap_complements(self):
        rng = np.random.default_rng(6)
        scored = _scored(rng.uniform(0.1, 1, 20), rng.uniform(-1, 0.4, 30))
        swapped = ScoredTrials(scored.scores, ~scored.labels)
        total = compute_eer(scored).eer_percent + compute_eer(swapped).eer_percent
        assert total == pytest.approx(100.0, abs=1e-9)

    def test_single_class_rejected(self):
        for labels in ([True, True], [False, False]):
            assert_raises_exactly(
                lambda: compute_eer(ScoredTrials(np.array([0.5, 0.6]), np.array(labels))),
                DataError, "EER needs at least one target and one nontarget trial",
            )

    def test_score_range_validated(self):
        with pytest.raises(DataError):
            ScoredTrials(np.array([1.5, 0.0]), np.array([True, False]))


def _population(rng, n_speakers=6, utts=5, d=8):
    utt_ids, spk_ids, rows = [], [], []
    means = rng.standard_normal((n_speakers, d)) * 2.0
    for s in range(n_speakers):
        for u in range(utts):
            utt_ids.append(f"s{s}_u{u}")
            spk_ids.append(f"s{s}")
            rows.append(means[s] + rng.standard_normal(d) * 0.3)
    return _set(utt_ids, spk_ids, rows)


def _all_trials(emb, rng, n_nontarget=60):
    entries = [Trial(spk, utt, True) for utt, spk in zip(emb.utt_ids, emb.spk_ids)]
    speakers = emb.speakers()
    while sum(1 for e in entries if not e.target) < n_nontarget:
        spk = speakers[int(rng.integers(len(speakers)))]
        utt_row = int(rng.integers(len(emb)))
        if emb.spk_ids[utt_row] != spk:
            entries.append(Trial(spk, emb.utt_ids[utt_row], False))
    return TrialList(tuple(entries))


class TestRunSweep:
    def test_size_zero_equals_unmodified_baseline(self):
        rng = np.random.default_rng(7)
        emb = _population(rng)
        trials = _all_trials(emb, rng)
        space = fit(emb)
        sweep = run_sweep(space, emb, trials, "primary", [0])
        wanted = sorted({t.enroll_speaker for t in trials})
        baseline = compute_eer(
            score_trials({s: build_enrollment(emb, s) for s in wanted}, emb, trials)
        )
        assert len(sweep.rows) == 1
        row = sweep.rows[0]
        assert (row.family, row.start, row.size, row.direction) == ("primary", 1, 0, "+")
        assert row.eer_percent == baseline.eer_percent

    def test_rows_match_manual_composition(self):
        rng = np.random.default_rng(8)
        emb = _population(rng)
        trials = _all_trials(emb, rng)
        space = fit(emb)
        sweep = run_sweep(space, emb, trials, "residual", [0, 2, 4])
        for row in sweep.rows:
            spec = SubspaceSpec(emb.dim, row.size, "-", family="residual")
            modified = modify_batch(space, emb, spec)
            wanted = sorted({t.enroll_speaker for t in trials})
            models = {s: build_enrollment(modified, s) for s in wanted}
            expected = compute_eer(score_trials(models, modified, trials))
            assert row.eer_percent == expected.eer_percent
            assert (row.n_target, row.n_nontarget) == (expected.n_target, expected.n_nontarget)

    def test_secondary_family_anchoring(self):
        rng = np.random.default_rng(9)
        emb = _population(rng)
        trials = _all_trials(emb, rng)
        space = fit(emb)
        sweep = run_sweep(space, emb, trials, "secondary", [0, 3], turning_dim=6)
        assert all(row.start == 6 and row.direction == "-" for row in sweep.rows)

    def test_secondary_requires_turning_dim(self):
        rng = np.random.default_rng(10)
        emb = _population(rng)
        space = fit(emb)
        with pytest.raises(DataError):
            run_sweep(space, emb, _all_trials(emb, rng), "secondary", [0, 3])

    def test_unresolvable_size_names_it(self):
        rng = np.random.default_rng(11)
        emb = _population(rng)
        space = fit(emb)
        with pytest.raises(DataError) as err:
            run_sweep(space, emb, _all_trials(emb, rng), "primary", [0, 99])
        assert "99" in str(err.value)

    @pytest.mark.parametrize("family", ["primary", "secondary", "residual"])
    def test_full_removal_names_size_and_dimension(self, family):
        rng = np.random.default_rng(15)
        emb = _population(rng)
        space = fit(emb)
        with pytest.raises(DataError) as err:
            run_sweep(space, emb, _all_trials(emb, rng), family, [0, 8], turning_dim=8)
        assert "sweep size 8 removes all 8 dimensions" in str(err.value)

    def test_sizes_are_read_one_at_a_time(self):
        rng = np.random.default_rng(16)
        emb = _population(rng)
        space = fit(emb)

        def unbounded_sizes():
            for k in itertools.count():
                assert k <= space.dim, "sweep read past its first bad size"
                yield k

        with pytest.raises(DataError, match="sweep size 8 removes all 8 dimensions"):
            run_sweep(space, emb, _all_trials(emb, rng), "primary", unbounded_sizes())

    def test_clean_enrollment_differs(self):
        rng = np.random.default_rng(12)
        emb = _population(rng)
        trials = _all_trials(emb, rng)
        space = fit(emb)
        both = run_sweep(space, emb, trials, "primary", [3])
        clean = run_sweep(space, emb, trials, "primary", [3], clean_enrollment=True)
        assert both.rows[0].eer_percent != clean.rows[0].eer_percent

    def test_deterministic(self):
        rng = np.random.default_rng(13)
        emb = _population(rng)
        trials = _all_trials(emb, rng)
        space = fit(emb)
        a = run_sweep(space, emb, trials, "primary", [0, 2])
        b = run_sweep(space, emb, trials, "primary", [0, 2])
        assert a == b


class TestOverflow:
    """Finite embeddings whose norms overflow float64 are a numerical failure,
    with no RuntimeWarning (the suite turns those into errors)."""

    def _huge(self):
        rows = 1e200 * np.array([[1.0, -1.0], [1.1, -0.9], [0.9, -1.2], [1.3, -1.0]])
        return _set(["u1", "u2", "u3", "u4"], ["a", "b", "a", "b"], rows)

    def _trials(self):
        return TrialList((Trial("a", "u1", True), Trial("b", "u1", False)))

    def test_cosine(self):
        with pytest.raises(NumericalError, match="overflows float64"):
            cosine([1e200, -1e200], [1.0, 0.0])

    def test_build_enrollment(self):
        with pytest.raises(NumericalError, match="speaker 'a'"):
            build_enrollment(self._huge(), "a")

    def test_score_trials(self):
        models = {"a": np.array([1.0, 0.0]), "b": np.array([0.0, 1.0])}
        with pytest.raises(NumericalError, match="overflows float64"):
            score_trials(models, self._huge(), self._trials())

    @pytest.mark.parametrize("clean", [False, True])
    def test_run_sweep(self, clean):
        space = fit(_population(np.random.default_rng(14), d=2))
        with pytest.raises(NumericalError, match="overflows float64"):
            run_sweep(space, self._huge(), self._trials(), "primary", [0, 1],
                      clean_enrollment=clean)


class TestSweepCsv:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(14)
        emb = _population(rng)
        trials = _all_trials(emb, rng)
        space = fit(emb)
        sweep = run_sweep(space, emb, trials, "primary", [0, 2, 4])
        path = tmp_path / "sweep.csv"
        write_sweep_csv(sweep, path)
        header = path.read_text().splitlines()[0]
        assert header == "family,start,size,direction,eer_percent,n_target,n_nontarget"
        assert read_sweep_csv(path) == sweep

    def test_non_numeric_field_names_line(self, tmp_path):
        path = tmp_path / "sweep.csv"
        path.write_text(
            "family,start,size,direction,eer_percent,n_target,n_nontarget\n"
            "primary,1,0,+,12.5,10,20\n"
            "primary,a,2,+,15.0,10,20\n"
        )
        with pytest.raises(FormatError, match="sweep CSV line 3: .*'a'"):
            read_sweep_csv(path)


# an identity basis; speaker 'a' lies wholly in dimension 1, 'b' outside it
AXIS_SPACE = VariabilitySpace(np.zeros(3), np.eye(3), [3.0, 2.0, 1.0])
AXIS_SET = _set(["u1", "u2", "u3", "u4"], ["a", "a", "b", "b"],
                [[1.0, 0.0, 0.0], [2.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
AXIS_TRIALS = TrialList((Trial("a", "u3", False), Trial("b", "u4", True)))
AXIS = (AXIS_SPACE, AXIS_SET, AXIS_TRIALS)

# each raise branch no other test reaches: the call, its error, its message
RAISES = {
    "score-model-dimension": (
        lambda: score_trials({"a": np.ones(2), "b": np.ones(2)}, AXIS_SET, AXIS_TRIALS),
        DataError, "cosine dimension mismatch: models (2,) vs tests (3,)",
    ),
    "sweep-unknown-family": (lambda: run_sweep(*AXIS, "custom", [0]), DataError,
                             "unknown sweep family 'custom'"),
    "sweep-dimension": (
        lambda: run_sweep(AXIS_SPACE, _set(["u1"], ["a"], [[1.0, 0.0]]), AXIS_TRIALS,
                          "primary", [0]),
        DataError, "embedding dimension 2 != space dimension 3",
    ),
    "sweep-turning-below-one": (
        lambda: run_sweep(*AXIS, "secondary", [0], turning_dim=0), DataError,
        "turning dimension must be >= 1, got 0",
    ),
    "sweep-turning-above-dim": (
        lambda: run_sweep(*AXIS, "secondary", [0], turning_dim=4), DataError,
        "turning dimension 4 exceeds dimension 3",
    ),
    "sweep-no-sizes": (lambda: run_sweep(*AXIS, "primary", []), DataError,
                       "sweep needs at least one size"),
    # K=0 scores; K=1 removes all of speaker 'a'
    "sweep-zero-model-at-k": (lambda: run_sweep(*AXIS, "primary", [0, 1]), DataError,
                              "speaker 'a' has a zero-mean enrollment model"),
}


@pytest.mark.parametrize("call, error, message", RAISES.values(), ids=RAISES.keys())
def test_raise_branch_message(call, error, message):
    assert_raises_exactly(call, error, message)
