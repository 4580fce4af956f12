import numpy as np
import pytest

from varispace import (
    DataError,
    EmbeddingSet,
    FormatError,
    Trial,
    TrialList,
    detect_format,
    load_embeddings,
    load_population_config,
    load_trials,
    read_spectrum_csv,
    read_sweep_csv,
    save_embeddings,
    save_trials,
)


def _sample_set(rng, n=6, d=4):
    return EmbeddingSet(
        tuple(f"utt{i:02d}" for i in range(n)),
        tuple(f"spk{i % 3}" for i in range(n)),
        rng.standard_normal((n, d)),
    )


class TestEmbeddingSet:
    def test_basic_accessors(self):
        emb = _sample_set(np.random.default_rng(0))
        assert len(emb) == 6
        assert emb.dim == 4
        assert emb.speakers() == ("spk0", "spk1", "spk2")
        assert emb.utterances_of("spk1") == ("utt01", "utt04")
        assert emb.speaker_rows("spk1").tolist() == [1, 4]
        assert emb.speaker_rows("nobody").size == 0
        assert emb.row("utt03") == 3
        assert np.array_equal(emb.vector("utt03"), emb.vectors[3])

    def test_duplicate_utterance_rejected(self):
        with pytest.raises(DataError) as err:
            EmbeddingSet(("a", "a"), ("s", "s"), np.zeros((2, 2)))
        assert "'a'" in str(err.value)

    def test_non_finite_rejected(self):
        with pytest.raises(DataError):
            EmbeddingSet(("a", "b"), ("s", "s"), np.array([[1.0, np.inf], [0.0, 1.0]]))

    def test_ragged_rows_rejected(self):
        with pytest.raises(DataError, match="not a numeric matrix"):
            EmbeddingSet(("a", "b"), ("s", "s"), [[1.0, 2.0], [3.0]])

    def test_vectors_read_only(self):
        emb = _sample_set(np.random.default_rng(1))
        with pytest.raises(ValueError):
            emb.vectors[0, 0] = 5.0

    def test_unknown_utterance(self):
        emb = _sample_set(np.random.default_rng(2))
        with pytest.raises(DataError):
            emb.vector("nope")


class TestCsvFormat:
    def test_round_trip_exact(self, tmp_path):
        emb = _sample_set(np.random.default_rng(3))
        path = tmp_path / "emb.csv"
        save_embeddings(emb, path, format="csv")
        loaded = load_embeddings(path)
        assert loaded.utt_ids == emb.utt_ids
        assert loaded.spk_ids == emb.spk_ids
        assert np.array_equal(loaded.vectors, emb.vectors)

    def test_hand_written_fixture(self, tmp_path):
        path = tmp_path / "emb.csv"
        path.write_text(
            "utt_id,spk_id,d1,d2\n"
            "u1,alice,1.5,-2.0\n"
            "u2,bob,0.25,3.5\n"
            "u3,alice,0.0,1.0\n"
        )
        emb = load_embeddings(path)
        assert emb.utt_ids == ("u1", "u2", "u3")
        assert emb.spk_ids == ("alice", "bob", "alice")
        assert np.array_equal(emb.vectors, [[1.5, -2.0], [0.25, 3.5], [0.0, 1.0]])

    def test_duplicate_id_named(self, tmp_path):
        path = tmp_path / "emb.csv"
        path.write_text("utt_id,spk_id,d1\nu1,a,1.0\nu1,b,2.0\n")
        with pytest.raises(DataError) as err:
            load_embeddings(path)
        assert "u1" in str(err.value)

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "emb.csv"
        path.write_text("utt_id,spk_id,d1,d2\nu1,a,1.0\n")
        with pytest.raises(FormatError) as err:
            load_embeddings(path)
        assert "line 2" in str(err.value)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "emb.csv"
        path.write_text("utt,spk,d1\nu1,a,1.0\n")
        with pytest.raises(FormatError):
            load_embeddings(path)

    def test_non_finite_value(self, tmp_path):
        path = tmp_path / "emb.csv"
        path.write_text("utt_id,spk_id,d1\nu1,a,nan\n")
        with pytest.raises(DataError):
            load_embeddings(path)

    def test_ids_with_commas_survive_quoting(self, tmp_path):
        emb = EmbeddingSet(("u,1", "u2"), ("s,p", "s"), np.eye(2))
        path = tmp_path / "emb.csv"
        save_embeddings(emb, path, format="csv")
        loaded = load_embeddings(path)
        assert loaded.utt_ids == ("u,1", "u2")
        assert loaded.spk_ids == ("s,p", "s")

    def test_line_breaks_in_ids_round_trip(self, tmp_path):
        utts = ("a\rb", "c\nd", "e\r\nf", "g\r")
        spks = ("s\r", "s\r", "t", "t")
        emb = EmbeddingSet(utts, spks, np.arange(8.0).reshape(4, 2))
        path = tmp_path / "emb.csv"
        save_embeddings(emb, path, format="csv")
        loaded = load_embeddings(path)
        assert loaded.utt_ids == utts
        assert loaded.spk_ids == spks
        assert np.array_equal(loaded.vectors, emb.vectors)


@pytest.mark.parametrize("fmt", ["csv", "binary"])
def test_writers_reject_ids_utf8_cannot_encode(tmp_path, fmt):
    emb = EmbeddingSet(("u1", "u\ud800"), ("s", "s"), np.eye(2))
    path = tmp_path / "emb.out"
    with pytest.raises(DataError, match=r"\\ud800"):
        save_embeddings(emb, path, format=fmt)
    assert not path.exists()


class TestBinaryFormat:
    def test_round_trip_bit_exact(self, tmp_path):
        emb = _sample_set(np.random.default_rng(4), n=9, d=5)
        first = tmp_path / "a.emb"
        save_embeddings(emb, first, format="binary")
        loaded = load_embeddings(first)
        second = tmp_path / "b.emb"
        save_embeddings(loaded, second, format="binary")
        assert first.read_bytes() == second.read_bytes()

    def test_f32_exact_values_preserved(self, tmp_path):
        vec = np.array([[0.5, -0.25, 1024.0]])
        emb = EmbeddingSet(("u",), ("s",), vec)
        path = tmp_path / "a.emb"
        save_embeddings(emb, path, format="binary")
        assert np.array_equal(load_embeddings(path).vectors, vec)

    def test_unicode_ids(self, tmp_path):
        emb = EmbeddingSet(("码u1", "u2"), ("спикер", "s"), np.eye(2))
        path = tmp_path / "a.emb"
        save_embeddings(emb, path, format="binary")
        loaded = load_embeddings(path)
        assert loaded.utt_ids == ("码u1", "u2")
        assert loaded.spk_ids == ("спикер", "s")

    def test_detects_format(self, tmp_path):
        emb = _sample_set(np.random.default_rng(5))
        binary = tmp_path / "a.emb"
        csv_path = tmp_path / "a.csv"
        save_embeddings(emb, binary, format="binary")
        save_embeddings(emb, csv_path, format="csv")
        assert detect_format(binary) == "binary"
        assert detect_format(csv_path) == "csv"
        assert np.array_equal(
            load_embeddings(binary).vectors.astype(np.float32),
            emb.vectors.astype(np.float32),
        )

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "a.emb"
        save_embeddings(_sample_set(np.random.default_rng(6)), path, format="binary")
        blob = bytearray(path.read_bytes())
        blob[0] = 0x58
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError):
            load_embeddings(path)

    def test_truncation(self, tmp_path):
        path = tmp_path / "a.emb"
        save_embeddings(_sample_set(np.random.default_rng(7)), path, format="binary")
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(FormatError):
            load_embeddings(path)

    def test_trailing_garbage(self, tmp_path):
        path = tmp_path / "a.emb"
        save_embeddings(_sample_set(np.random.default_rng(8)), path, format="binary")
        path.write_bytes(path.read_bytes() + b"xx")
        with pytest.raises(FormatError):
            load_embeddings(path)


class TestTrials:
    def test_round_trip(self, tmp_path):
        trials = TrialList(
            (
                Trial("spk1", "utt1", True),
                Trial("spk2", "utt1", False),
                Trial("spk1", "utt9", False),
            )
        )
        path = tmp_path / "trials.txt"
        save_trials(trials, path)
        loaded = load_trials(path)
        assert len(loaded) == 3
        assert loaded.n_target == 1
        assert loaded.n_nontarget == 2
        assert loaded.entries[0].enroll_speaker == "spk1"
        assert loaded.entries[0].line == 1

    def test_whitespace_and_blank_lines(self, tmp_path):
        path = tmp_path / "trials.txt"
        path.write_text("spk1   utt1\ttarget\n\n  spk2 utt2 nontarget  \n")
        loaded = load_trials(path)
        assert len(loaded) == 2
        assert loaded.entries[1].line == 3

    def test_bad_label(self, tmp_path):
        path = tmp_path / "trials.txt"
        path.write_text("spk1 utt1 same\n")
        with pytest.raises(FormatError) as err:
            load_trials(path)
        assert "line 1" in str(err.value)

    def test_wrong_field_count(self, tmp_path):
        path = tmp_path / "trials.txt"
        path.write_text("spk1 target\n")
        with pytest.raises(FormatError):
            load_trials(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "trials.txt"
        path.write_text("\n\n")
        with pytest.raises(DataError):
            load_trials(path)

    def test_counts_stored_at_construction(self):
        trials = TrialList((Trial("a", "u1", True), Trial("b", "u1", False), Trial("b", "u2", False)))
        assert vars(trials)["n_target"] == trials.n_target == 1
        assert vars(trials)["n_nontarget"] == trials.n_nontarget == 2

    def test_unicode_ids_round_trip(self, tmp_path):
        trials = TrialList((Trial("спикер", "码u1", True), Trial("s,2", "u\"2", False)))
        path = tmp_path / "trials.txt"
        save_trials(trials, path)
        loaded = load_trials(path)
        assert [(t.enroll_speaker, t.test_utterance, t.target) for t in loaded] == [
            ("спикер", "码u1", True),
            ("s,2", 'u"2', False),
        ]

    @pytest.mark.parametrize(
        "bad", ["spk 1", "spk\t1", "spk\r1", "spk\n1", "spk\u20281", "", "u\ud800"]
    )
    def test_writer_rejects_ids_the_format_cannot_carry(self, tmp_path, bad):
        trials = TrialList((Trial("ok", "u1", True), Trial("ok", bad, False)))
        path = tmp_path / "trials.txt"
        with pytest.raises(DataError) as err:
            save_trials(trials, path)
        assert repr(bad) in str(err.value)
        assert not path.exists()


TEXT_LOADERS = {
    "trials": (load_trials, b"spk1 utt1 target\n"),
    "trials-past-first-chunk": (load_trials, b"spk1 utt1 target\n" * 1000),
    "embeddings-csv": (load_embeddings, b"utt_id,spk_id,d1\nu1,s1,0.5\n"),
    "population-config": (load_population_config, b"n_speakers=4\n"),
    "spectrum-csv": (read_spectrum_csv, b"index,log_eigenvalue,delta\n"),
    "sweep-csv": (
        read_sweep_csv,
        b"family,start,size,direction,eer_percent,n_target,n_nontarget\n",
    ),
}


@pytest.mark.parametrize("name", list(TEXT_LOADERS))
def test_non_utf8_names_file_and_byte_offset(tmp_path, name):
    loader, prefix = TEXT_LOADERS[name]
    path = tmp_path / "input.txt"
    path.write_bytes(prefix + b"\xff\xfe,x\n")
    with pytest.raises(FormatError) as err:
        loader(path)
    assert str(path) in str(err.value)
    assert f"byte offset {len(prefix)} " in str(err.value)


@pytest.mark.parametrize("name", ["embeddings-csv", "spectrum-csv", "sweep-csv"])
def test_oversized_csv_field_is_format_error(tmp_path, name):
    loader, prefix = TEXT_LOADERS[name]
    path = tmp_path / "input.csv"
    path.write_bytes(prefix + b"x" * 200_000 + b",1\n")
    with pytest.raises(FormatError, match="field larger than field limit"):
        loader(path)
