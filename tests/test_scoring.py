import numpy as np
import pytest

from helpers import exhaustive_eer_percent
from varispace import (
    DataError,
    EmbeddingSet,
    FormatError,
    ScoredTrials,
    SubspaceSpec,
    Trial,
    TrialList,
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
        for i, t in enumerate(trials):
            expected = cosine(models[t.enroll_speaker], emb.vector(t.test_utterance))
            assert scored.scores[i] == expected

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
        expected = [cosine(models[t.enroll_speaker], emb.vector(t.test_utterance)) for t in trials]
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
            expected = exhaustive_eer_percent(scored.scores, scored.labels)
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
        with pytest.raises(DataError):
            compute_eer(ScoredTrials(np.array([0.5, 0.6]), np.array([True, True])))

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
