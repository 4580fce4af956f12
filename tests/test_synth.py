import numpy as np
import pytest

from helpers import brute_eer, brute_eig, eig2x2_charpoly
from varispace import (
    CounterRng,
    DataError,
    PopulationConfig,
    ScoredTrials,
    eig_sym,
    fit,
    generate,
    make_trials,
    parse_population_config,
)


def _config(**overrides):
    base = dict(
        n_speakers=40,
        utts_per_speaker=20,
        dim=32,
        between_variances=np.concatenate([np.full(8, 0.9), np.zeros(24)]),
        within_variances=np.full(32, 0.1),
        seed=515,
    )
    base.update(overrides)
    return PopulationConfig(**base)


class TestCounterRng:
    def test_reproducible(self):
        a = CounterRng(12345).gaussians(1000)
        b = CounterRng(12345).gaussians(1000)
        assert a.tobytes() == b.tobytes()

    def test_batching_invariant(self):
        whole = CounterRng(7).gaussians(10)
        rng = CounterRng(7)
        pieces = np.concatenate([rng.gaussians(3), rng.gaussians(2), rng.gaussians(5)])
        assert whole.tobytes() == pieces.tobytes()

    def test_uniforms_in_half_open_unit(self):
        u = CounterRng(99).uniforms(100000)
        assert np.all(u > 0.0)
        assert np.all(u <= 1.0)

    def test_roughly_standard_normal(self):
        g = CounterRng(3).gaussians(200000)
        assert abs(float(np.mean(g))) < 0.01
        assert abs(float(np.var(g)) - 1.0) < 0.01

    def test_seed_range_validated(self):
        with pytest.raises(DataError):
            CounterRng(-1)
        with pytest.raises(DataError):
            CounterRng(2**64)


class TestGenerate:
    def test_zero_within_variance_collapses_speakers(self):
        emb = generate(_config(within_variances=np.zeros(32)))
        for spk in emb.speakers():
            rows = np.array([emb.vector(u) for u in emb.utterances_of(spk)])
            assert np.all(rows == rows[0])

    def test_fixed_seed_byte_identical(self):
        a = generate(_config())
        b = generate(_config())
        assert a.vectors.tobytes() == b.vectors.tobytes()
        assert a.utt_ids == b.utt_ids

    def test_id_scheme(self):
        emb = generate(_config(n_speakers=3, utts_per_speaker=2, dim=4,
                               between_variances=np.ones(4),
                               within_variances=np.ones(4)))
        assert emb.utt_ids[:3] == ("spk1_utt1", "spk1_utt2", "spk2_utt1")
        assert emb.spk_ids[:3] == ("spk1", "spk1", "spk2")
        assert emb.speakers() == ("spk1", "spk2", "spk3")

    def test_pooled_variance_tracks_config(self):
        between = np.concatenate([np.full(16, 0.1), np.full(16, 0.02)])
        within = np.concatenate([np.full(16, 0.9), np.full(16, 0.08)])
        emb = generate(_config(between_variances=between, within_variances=within, seed=11))
        total = between + within
        sample = emb.vectors.var(axis=0, ddof=1)
        checked = total >= 0.5
        assert checked.sum() == 16
        rel = np.abs(sample[checked] - total[checked]) / total[checked]
        assert float(rel.max()) <= 0.15

    def test_planted_subspace_recovered(self):
        # top-8 fitted eigenvectors span the planted between-speaker dims;
        # low within-noise keeps sample mixing inside the 0.2 projector bound
        emb = generate(_config(within_variances=np.full(32, 0.02), seed=101))
        space = fit(emb)
        p_fit = space.basis[:, :8] @ space.basis[:, :8].T
        p_true = np.zeros((32, 32))
        p_true[:8, :8] = np.eye(8)
        assert float(np.linalg.norm(p_fit - p_true)) <= 0.2

    def test_counts_validated(self):
        with pytest.raises(DataError):
            _config(n_speakers=0)
        with pytest.raises(DataError):
            _config(utts_per_speaker=0)


class TestConfigParsing:
    TEXT = """
# synthetic population
n_speakers=40
utts_per_speaker=20
dim=32
between=0.9x8,0.0x24
within=0.1x32
seed=515
"""

    def test_run_length_expansion(self):
        config = parse_population_config(self.TEXT)
        assert config.n_speakers == 40
        assert config.dim == 32
        assert np.array_equal(config.between_variances[:8], np.full(8, 0.9))
        assert np.array_equal(config.between_variances[8:], np.zeros(24))
        assert np.array_equal(config.within_variances, np.full(32, 0.1))

    def test_plain_values_without_counts(self):
        config = parse_population_config(
            "n_speakers=2\nutts_per_speaker=2\ndim=3\nbetween=1.0,0.5,0.25\nwithin=0.1x3\nseed=1\n"
        )
        assert np.array_equal(config.between_variances, [1.0, 0.5, 0.25])

    def test_wrong_expansion_length(self):
        with pytest.raises(DataError) as err:
            parse_population_config(
                "n_speakers=2\nutts_per_speaker=2\ndim=4\nbetween=1.0x3\nwithin=0.1x4\nseed=1\n"
            )
        assert "between" in str(err.value)

    @pytest.mark.parametrize(
        "dim, message",
        [(4, "expands to 1000000000000000000 values"), (0, "expected dim=0")],
    )
    def test_huge_repeat_count_rejected_before_expansion(self, dim, message):
        with pytest.raises(DataError, match=message):
            parse_population_config(
                f"n_speakers=2\nutts_per_speaker=2\ndim={dim}\n"
                "between=0.5x1000000000000000000\nwithin=0.1x4\nseed=1\n"
            )

    def test_missing_key(self):
        with pytest.raises(DataError) as err:
            parse_population_config("n_speakers=2\n")
        assert "utts_per_speaker" in str(err.value)

    def test_unknown_key(self):
        with pytest.raises(DataError):
            parse_population_config(self.TEXT + "bogus=1\n")

    def test_duplicate_key(self):
        with pytest.raises(DataError):
            parse_population_config(self.TEXT + "seed=2\n")

    def test_negative_variance(self):
        with pytest.raises(DataError):
            parse_population_config(
                "n_speakers=2\nutts_per_speaker=2\ndim=2\nbetween=-1.0x2\nwithin=0.1x2\nseed=1\n"
            )


class TestMakeTrials:
    def test_structure(self):
        emb = generate(_config(n_speakers=5, utts_per_speaker=4, dim=4,
                               between_variances=np.ones(4),
                               within_variances=np.full(4, 0.1)))
        trials = make_trials(emb, n_nontarget=50, seed=9)
        assert trials.n_target == 20
        assert trials.n_nontarget == 50
        for t in trials:
            if t.target:
                assert t.test_utterance.startswith(t.enroll_speaker + "_")
            else:
                assert not t.test_utterance.startswith(t.enroll_speaker + "_")

    def test_deterministic(self):
        emb = generate(_config(n_speakers=4, utts_per_speaker=3, dim=4,
                               between_variances=np.ones(4),
                               within_variances=np.full(4, 0.1)))
        assert make_trials(emb, 30, seed=1) == make_trials(emb, 30, seed=1)
        assert make_trials(emb, 30, seed=1) != make_trials(emb, 30, seed=2)

    def test_needs_two_speakers(self):
        emb = generate(_config(n_speakers=1, utts_per_speaker=3, dim=4,
                               between_variances=np.ones(4),
                               within_variances=np.full(4, 0.1)))
        with pytest.raises(DataError):
            make_trials(emb, 10, seed=1)


class TestBruteEig:
    def test_diagonal(self):
        basis, lam = brute_eig(np.diag([5.0, 3.0, 1.0]))
        assert lam == pytest.approx([5.0, 3.0, 1.0], abs=1e-10)
        assert np.abs(basis) == pytest.approx(np.eye(3), abs=1e-9)

    def test_2x2_charpoly(self):
        s = np.array([[2.0, 1.0], [1.0, 2.0]])
        _, lam = brute_eig(s)
        assert lam == pytest.approx(list(eig2x2_charpoly(s)), abs=1e-10)
        assert lam == pytest.approx([3.0, 1.0], abs=1e-10)

    def test_negative_spectrum_shifted(self):
        _, lam = brute_eig(np.diag([-1.0, -4.0, -2.0]))
        assert lam == pytest.approx([-1.0, -2.0, -4.0], abs=1e-9)

    def test_agrees_with_production_solver(self):
        for i in range(100):
            rng = np.random.default_rng(3000 + i)
            m = rng.standard_normal((5, 5))
            s = 0.5 * (m + m.T)
            v_fast, lam_fast = eig_sym(s)
            v_slow, lam_slow = brute_eig(s)
            scale = max(1.0, float(np.max(np.abs(lam_fast))))
            assert np.max(np.abs(lam_fast - lam_slow)) <= 1e-8 * scale
            for j in range(5):
                gap = min(abs(lam_fast[j] - lam_fast[k]) for k in range(5) if k != j)
                if gap > 1e-6:
                    assert abs(float(v_fast[:, j] @ v_slow[:, j])) > 1.0 - 1e-8

    def test_dimension_capped(self):
        with pytest.raises(DataError):
            brute_eig(np.eye(9))


class TestBruteEer:
    def _scored(self, targets, nontargets):
        scores = np.array(list(targets) + list(nontargets), dtype=float)
        labels = np.array([True] * len(targets) + [False] * len(nontargets))
        return ScoredTrials(scores, labels)

    def test_separated(self):
        assert brute_eer(self._scored([0.9, 0.8], [0.1, 0.2])) == 0.0

    def test_plateau(self):
        assert brute_eer(self._scored([0.8, 0.2], [0.7, 0.1])) == pytest.approx(50.0, abs=1e-12)

    def test_missing_class(self):
        with pytest.raises(DataError):
            brute_eer(ScoredTrials(np.array([0.1]), np.array([True])))
