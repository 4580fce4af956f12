import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import assert_raises_exactly, brute_eer, brute_eig, eig2x2_charpoly, make_trials_oracle
from varispace import (
    CounterRng,
    DataError,
    EmbeddingSet,
    NumericalError,
    PopulationConfig,
    ScoredTrials,
    eig_sym,
    fit,
    generate,
    load_population_config,
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

    def test_raw_words_and_uniforms_are_exact(self):
        # integer and dyadic arithmetic: these bytes hold on any numpy build and CPU
        raw = CounterRng(2024).raw(4096).astype("<u8").tobytes()
        uniforms = CounterRng(2024).uniforms(4096).astype("<f8").tobytes()
        assert hashlib.sha256(raw).hexdigest() == (
            "19526557e42623c4c1e4c8258602c5259e55d52e20bba43d05fe534bb879c79d"
        )
        assert hashlib.sha256(uniforms).hexdigest() == (
            "95e51d48fb33984f8a46746e391f73de77a6dc2572e466f6fad1d9b77e9d4d98"
        )

    def test_gaussians_are_box_muller_within_4_ulp(self):
        # numpy's float64 log and cos may differ from the C library's in the
        # last bits, so gaussian bytes are fixed only per numpy build and CPU
        u = CounterRng(2024).uniforms(400000).tolist()
        g = CounterRng(2024).gaussians(200000)
        box_muller = np.array(
            [math.sqrt(-2.0 * math.log(a)) * math.cos(2.0 * math.pi * b)
             for a, b in zip(u[0::2], u[1::2])]
        )
        assert np.all(np.abs(g - box_muller) <= 4 * np.spacing(np.abs(box_muller)))

    def test_uniforms_in_half_open_unit(self):
        u = CounterRng(99).uniforms(100000)
        assert np.all(u > 0.0)
        assert np.all(u <= 1.0)

    def test_roughly_standard_normal(self):
        g = CounterRng(3).gaussians(200000)
        assert abs(float(np.mean(g))) < 0.01
        assert abs(float(np.var(g)) - 1.0) < 0.01

    def test_draw_past_the_words_left_is_a_data_error_that_leaves_the_stream(self):
        # counts past 2**60, so that no draw allocates anything
        rng = CounterRng(7)
        rng.raw(3)
        assert_raises_exactly(lambda: rng.raw(2**61), DataError,
                              f"draw count {2**61} exceeds the {2**60 - 4} words left")
        assert_raises_exactly(lambda: rng.gaussians(2**59 + 1), DataError,
                              f"draw count {2**59 + 1} exceeds the {2**59 - 2} gaussians left")
        assert rng.raw(2).tobytes() == CounterRng(7).raw(5)[3:].tobytes()

    def test_gaussians_check_their_own_count(self):
        assert_raises_exactly(lambda: CounterRng(7).gaussians(2.5), DataError,
                              "draw count must be an integer, got 2.5")

    def test_seed_range_validated(self):
        with pytest.raises(DataError):
            CounterRng(-1)
        with pytest.raises(DataError):
            CounterRng(2**64)


class TestGenerate:
    def test_zero_within_variance_collapses_speakers(self):
        emb = generate(_config(within_variances=np.zeros(32)))
        for spk in emb.speakers():
            rows = emb.vectors[emb.speaker_rows(spk)]
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

    def test_population_past_the_draw_cap_is_a_data_error(self):
        with pytest.raises(DataError, match=f"^draw count {10**30 * 32} exceeds the "):
            generate(_config(n_speakers=10**30))

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

    # the line ends a file may use, then characters str.splitlines() also
    # breaks at, each inside the comment on line 2, where they end no line
    @pytest.mark.parametrize(
        "ending, inside",
        [("\n", ""), ("\r\n", ""), ("\r", "")]
        + [("\n", c) for c in "\v\f\x1c\x1d\x1e\x85\u2028\u2029"],
        ids=["lf", "crlf", "cr", "vt", "ff", "fs", "gs", "rs", "nel", "ls", "ps"],
    )
    def test_file_line_ends_read_alike(self, tmp_path, ending, inside):
        text = self.TEXT.replace("synthetic", "synthetic" + inside)
        path = tmp_path / "population.cfg"
        path.write_bytes(text.replace("\n", ending).encode())
        config = load_population_config(path)
        expected = parse_population_config(self.TEXT)
        for name in ("n_speakers", "utts_per_speaker", "dim", "seed"):
            assert getattr(config, name) == getattr(expected, name)
        for name in ("between_variances", "within_variances"):
            assert np.array_equal(getattr(config, name), getattr(expected, name))
        path.write_bytes((text + "oops\n").replace("\n", ending).encode())
        assert_raises_exactly(
            lambda: load_population_config(path), DataError, "config line 9: expected key=value"
        )

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
        assert_raises_exactly(
            lambda: parse_population_config(self.TEXT + "bogus=1\n"),
            DataError,
            "config line 9: unknown key 'bogus'",
        )

    def test_duplicate_key(self):
        assert_raises_exactly(
            lambda: parse_population_config(self.TEXT + "seed=2\n"),
            DataError,
            "config line 9: duplicate key 'seed'",
        )

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

    def test_attempt_bound_is_numerical_error(self, monkeypatch):
        # the first two attempts pick speaker 1 and a row of speaker 3; every
        # later one draws two equal uniforms, which pick speaker floor(u*S)
        # and row floor(u*S*U): in a speaker-major population, its own row
        emb = generate(_config(n_speakers=3, utts_per_speaker=4, dim=4,
                               between_variances=np.ones(4),
                               within_variances=np.full(4, 0.1)))
        drawn = []

        def scripted_uniforms(self, n):
            start = sum(drawn)
            drawn.append(n)
            u = np.full(n, 0.5)
            head = [0.1, 0.9, 0.1, 0.9][start:start + n]
            u[:len(head)] = head
            return u

        monkeypatch.setattr(CounterRng, "uniforms", scripted_uniforms)
        for draw in (make_trials, make_trials_oracle):
            drawn.clear()
            with pytest.raises(NumericalError, match="cross-speaker pairs"):
                draw(emb, 7, seed=1)
            # two uniforms per attempt, and exactly the 1000 attempts per pair
            # that the bound allows (the batches of 5 do not divide 6993)
            assert sum(drawn) == 2 * 1000 * 7

    def test_eval_scale_equals_one_at_a_time_drawing(self):
        emb = generate(_config(n_speakers=500, utts_per_speaker=20, dim=4,
                               between_variances=np.ones(4),
                               within_variances=np.full(4, 0.1)))
        assert make_trials(emb, 10000, seed=7) == make_trials_oracle(emb, 10000, seed=7)


@st.composite
def labelled_sets(draw):
    """Sets whose speakers are interleaved in any order, of any sizes,
    including two speakers of very different sizes."""
    if draw(st.booleans()):
        small, large = draw(st.integers(1, 3)), draw(st.integers(30, 200))
        spk_ids = ["big"] * large + ["tiny"] * small
        spk_ids = draw(st.permutations(spk_ids))
    else:
        n_spk = draw(st.integers(2, 12))
        spk_ids = draw(st.lists(st.integers(0, n_spk - 1), min_size=2, max_size=80))
        spk_ids = [f"s{k}" for k in spk_ids]
        if len(set(spk_ids)) < 2:
            spk_ids[-1] = "other"
    n = len(spk_ids)
    return EmbeddingSet(tuple(f"u{i}" for i in range(n)), tuple(spk_ids), np.ones((n, 1)))


class TestMakeTrialsOracle:
    @settings(max_examples=60, deadline=None)
    @given(
        emb=labelled_sets(),
        n_nontarget=st.integers(1, 300),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_equals_one_at_a_time_drawing(self, emb, n_nontarget, seed):
        trials = make_trials(emb, n_nontarget, seed)
        assert trials == make_trials_oracle(emb, n_nontarget, seed)
        assert trials.labels.tolist() == [t.target for t in trials]


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


_CONFIG_TEXT = "n_speakers=2\nutts_per_speaker=2\ndim=2\nwithin=0.1x2\nseed=1\n"


def _between(tokens):
    return lambda: parse_population_config(_CONFIG_TEXT + f"between={tokens}\n")


def _huge_dim(dim):
    return lambda: parse_population_config(
        f"n_speakers=2\nutts_per_speaker=2\ndim={dim}\nbetween=1x{dim}\nwithin=1x{dim}\nseed=1\n"
    )


def _two_speakers():
    return EmbeddingSet(("u1", "u2"), ("a", "b"), [[1.0, 0.0], [0.0, 1.0]])


# each raise branch no other test reaches: the call, its error, its message
RAISES = {
    "rng-negative-draws": (lambda: CounterRng(1).raw(-1), DataError,
                           "draw count must be >= 0, got -1"),
    "config-seed-negative": (lambda: _config(seed=-1), DataError,
                             "seed must be an unsigned 64-bit integer, got -1"),
    "config-seed-above-u64": (lambda: _config(seed=2**64), DataError,
                              f"seed must be an unsigned 64-bit integer, got {2**64}"),
    "run-length-empty-token": (_between("0.9,,0.1"), DataError,
                               "between value must be a real number, got ''"),
    "run-length-bad-count": (_between("0.9xa"), DataError,
                             "between repeat count must be an integer, got 'a'"),
    "run-length-zero-count": (_between("0.9x0"), DataError,
                              "between repeat count must be >= 1, got 0"),
    "run-length-bad-value": (_between("ax2"), DataError,
                             "between value must be a real number, got 'a'"),
    "run-length-empty-count": (_between("0.9x"), DataError,
                               "between repeat count must be an integer, got ''"),
    "config-non-integer-count": (
        lambda: parse_population_config(
            _CONFIG_TEXT.replace("n_speakers=2", "n_speakers=two") + "between=1x2\n"),
        DataError, "n_speakers must be an integer, got 'two'",
    ),
    "make-trials-no-nontarget": (lambda: make_trials(_two_speakers(), 0, seed=1), DataError,
                                 "nontarget count must be >= 1, got 0"),
    # numpy's "array is too big", then a count that is no C long
    "config-expands-past-array-size": (
        _huge_dim(2**62), DataError,
        "config key 'between' expands to 4611686018427387904 values, too many for an array",
    ),
    "config-expands-past-c-long": (
        _huge_dim(10**20), DataError,
        "config key 'between' expands to 100000000000000000000 values, too many for an array",
    ),
}


@pytest.mark.parametrize("call, error, message", RAISES.values(), ids=RAISES.keys())
def test_raise_branch_message(call, error, message):
    assert_raises_exactly(call, error, message)
