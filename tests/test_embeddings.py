import struct
from dataclasses import astuple

import numpy as np
import pytest

from helpers import assert_raises_exactly, emb1_blob
from varispace import (
    DataError,
    EmbeddingSet,
    FormatError,
    PopulationConfig,
    Trial,
    TrialList,
    detect_format,
    generate,
    load_embeddings,
    load_population_config,
    load_trials,
    make_trials,
    read_spectrum_csv,
    read_sweep_csv,
    save_embeddings,
    save_trials,
)
from varispace.embeddings import open_text


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
        assert emb.speaker_rows("spk1").tolist() == [1, 4]
        assert emb.speaker_rows("nobody").size == 0
        assert emb.rows_of(["utt03"]).tolist() == [3]

    def test_rows_of_marks_unknown_ids(self):
        emb = _sample_set(np.random.default_rng(0))
        rows = emb.rows_of(["utt03", "nope", "utt00", "utt03", ""])
        assert rows.dtype == np.intp
        assert rows.tolist() == [3, -1, 0, 3, -1]
        assert emb.rows_of(iter([])).tolist() == []

    def test_duplicate_utterance_rejected(self):
        with pytest.raises(DataError) as err:
            EmbeddingSet(("a", "a"), ("s", "s"), np.zeros((2, 2)))
        assert "'a'" in str(err.value)

    @pytest.mark.parametrize(
        "utt_ids, spk_ids, row",
        [(["a", "b"], [1, 2], 0), (["a", 7], ["s", "s"], 1), (["a", b"b"], ["s", "s"], 1)],
    )
    def test_non_string_ids_rejected(self, utt_ids, spk_ids, row):
        # every format writes ids as text, so the set accepts only strings
        with pytest.raises(DataError, match=f"row {row}: ids must be strings"):
            EmbeddingSet(utt_ids, spk_ids, np.zeros((2, 2)))

    @pytest.mark.parametrize(
        "utt_ids, spk_ids, message",
        [
            (["a", ["b"]], ["s", "s"], "row 1: ids must be strings, got ['b'] and 's'"),
            (["a", "b"], ["s", {}], "row 1: ids must be strings, got 'b' and {}"),
            (["a", "b"], ["", 5], "empty speaker id"),
            (["", "b"], ["", "s"], "empty utterance id"),
            (["a", "a", ""], ["s", "s", "s"], "duplicate utterance id 'a'"),
            (["a", "a", 1], ["s", "s", "s"], "duplicate utterance id 'a'"),
            (["a", 1, "a"], ["s", "s", ""], "row 1: ids must be strings, got 1 and 's'"),
        ],
    )
    def test_first_bad_row_names_its_first_defect(self, utt_ids, spk_ids, message):
        # rows are checked in order; within a row, the id types come first,
        # then an empty utterance id, an empty speaker id, a duplicate
        with pytest.raises(DataError) as err:
            EmbeddingSet(utt_ids, spk_ids, np.zeros((len(utt_ids), 2)))
        assert str(err.value) == message

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

    def test_error_names_the_line_a_record_starts_on(self, tmp_path):
        # the quoted id spans lines 2-3, so the bad value sits on line 4
        path = tmp_path / "emb.csv"
        path.write_text('utt_id,spk_id,d1\n"a\nb",s,1\nu2,s,x\n')
        assert_raises_exactly(lambda: load_embeddings(path), FormatError,
                              "embeddings CSV line 4: d1 must be a real number, got 'x'")

    @pytest.mark.parametrize("side", ["utt", "spk"])
    def test_ids_longer_than_a_csv_field_rejected(self, tmp_path, side):
        # csv's reader holds 131072 characters per field: the longest id
        # round-trips, a longer one is refused before the file is opened
        longest, too_long = "x" * 131072, "y" * 200000
        path = tmp_path / "emb.csv"
        emb = EmbeddingSet((longest, "u2"), (longest, "s"), np.eye(2))
        save_embeddings(emb, path)
        assert load_embeddings(path).utt_ids == (longest, "u2")
        path.unlink()
        utts, spks = ("u1", "u2"), ("s", "s")
        if side == "utt":
            utts = (too_long, "u2")
        else:
            spks = (too_long, "s")
        with pytest.raises(DataError, match="id of 200000 characters"):
            save_embeddings(EmbeddingSet(utts, spks, np.eye(2)), path)
        assert not path.exists()


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

    @pytest.mark.parametrize("value", [3.5e38, -1e200])
    def test_values_beyond_float32_rejected(self, tmp_path, value):
        emb = EmbeddingSet(("u1", "u2"), ("s", "s"), [[1.0, 2.0], [value, 0.0]])
        path = tmp_path / "a.emb"
        with pytest.raises(DataError, match="'u2': a value exceeds the float32 range"):
            save_embeddings(emb, path, format="binary")
        assert not path.exists()

    @pytest.mark.parametrize("side", ["utterance", "speaker"])
    def test_ids_too_long_for_the_binary_format_named(self, tmp_path, side):
        # 21846 three-byte characters: 65538 UTF-8 bytes, over the u16 length
        too_long = "码" * 21846
        utts, spks = ["u1", "u2"], ["s", "s"]
        (utts if side == "utterance" else spks)[1] = too_long
        path = tmp_path / "a.emb"
        with pytest.raises(DataError) as err:
            save_embeddings(EmbeddingSet(utts, spks, np.eye(2)), path, format="binary")
        assert str(err.value) == (
            f"row 1: {side} id of 65538 UTF-8 bytes exceeds the binary format's limit of 65535"
        )
        assert not path.exists()

    def test_longest_ids_round_trip(self, tmp_path):
        longest = "x" * 0xFFFF
        emb = EmbeddingSet((longest, "u2"), ("s", longest), np.eye(2))
        path = tmp_path / "a.emb"
        save_embeddings(emb, path, format="binary")
        loaded = load_embeddings(path)
        assert loaded.utt_ids == emb.utt_ids
        assert loaded.spk_ids == emb.spk_ids

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


# f32-exact values, so the expected float64 matrix is known exactly
EMB1_RECORDS = [
    ("utt-a", "spk1", [0.5, -1.25, 3.0]),
    ("ütt-β", "spk2", [-0.0, 1024.0, 2.0**-20]),
    ("c", "spk1", [65504.0, -0.75, 1.0]),
]


class TestBinaryFixtures:
    def test_hand_built_file_loads_and_saves_back(self, tmp_path):
        blob = emb1_blob(3, EMB1_RECORDS)
        path = tmp_path / "fixture.emb"
        path.write_bytes(blob)
        loaded = load_embeddings(path)
        assert loaded.utt_ids == ("utt-a", "ütt-β", "c")
        assert loaded.spk_ids == ("spk1", "spk2", "spk1")
        expected = np.array([values for _, _, values in EMB1_RECORDS])
        assert loaded.vectors.tobytes() == expected.tobytes()
        again = tmp_path / "again.emb"
        save_embeddings(loaded, again, format="binary")
        assert again.read_bytes() == blob

    # byte offsets, within the second record (ids of 7 and 4 utf-8 bytes),
    # of a cut inside each field
    @pytest.mark.parametrize(
        "field, cut", [("utt length", 1), ("utt bytes", 2 + 3), ("spk length", 2 + 7 + 1),
                       ("spk bytes", 2 + 7 + 2 + 1), ("vector", 2 + 7 + 2 + 4 + 5)]
    )
    def test_truncation_inside_each_field(self, tmp_path, field, cut):
        second = len(emb1_blob(3, EMB1_RECORDS[:1]))
        assert len("ütt-β".encode()) == 7
        path = tmp_path / "cut.emb"
        path.write_bytes(emb1_blob(3, EMB1_RECORDS)[: second + cut])
        with pytest.raises(FormatError, match="truncated inside a record"):
            load_embeddings(path)

    def test_cut_at_every_byte_of_a_record_with_multi_byte_ids(self, tmp_path):
        # a cut inside a multi-byte character is a truncation, not a bad id:
        # each field's length is checked before its bytes are decoded
        records = [("a", "s", [1.0, 2.0, 3.0]), ("码码码", "码码", [4.0, 5.0, 6.0])]
        whole = emb1_blob(3, records)
        second = len(emb1_blob(3, records[:1]))
        path = tmp_path / "cut.emb"
        for cut in range(second, len(whole)):
            path.write_bytes(whole[:cut])
            with pytest.raises(FormatError, match="truncated inside a record"):
                load_embeddings(path)

    @pytest.mark.parametrize(
        "blob, error, message",
        [
            (b"EMB1" + struct.pack("<I", 1) + struct.pack("<I", 3), FormatError,
             "embeddings file truncated: 12 bytes"),
            (emb1_blob(3, EMB1_RECORDS, version=2), FormatError,
             "unsupported embeddings file version 2"),
            (emb1_blob(0, []), DataError, "embeddings file declares dimension 0"),
            (emb1_blob(3, [(b"\xff", "s", [1.0, 2.0, 3.0])]), FormatError,
             "embeddings file record corrupt: 'utf-8' codec can't decode byte 0xff in "
             "position 0: invalid start byte"),
            (emb1_blob(3, EMB1_RECORDS) + b"\0", FormatError,
             "embeddings file has 1 trailing bytes after 3 records"),
            # the third record: two 2-byte lengths, ids of 1 and 4 bytes, 3 floats
            (emb1_blob(3, EMB1_RECORDS, n=2), FormatError,
             "embeddings file has 21 trailing bytes after 2 records"),
            (emb1_blob(3, []), DataError, "embeddings file contains no records"),
        ],
        ids=["short header", "version", "D=0", "bad utf-8", "trailing byte", "N too small",
             "no records"],
    )
    def test_malformed_file(self, tmp_path, blob, error, message):
        path = tmp_path / "bad.emb"
        path.write_bytes(blob)
        assert_raises_exactly(lambda: load_embeddings(path), error, message)


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

    def test_saved_list_loads_back_equal(self, tmp_path):
        # the source lines a loaded trial keeps take no part in equality
        emb = generate(PopulationConfig(3, 2, 2, [1.0, 1.0], [0.1, 0.1], seed=7))
        trials = make_trials(emb, 5, seed=3)
        path = tmp_path / "trials.txt"
        save_trials(trials, path)
        loaded = load_trials(path)
        assert loaded == trials
        assert [t.line for t in loaded] == list(range(1, len(trials) + 1))

    @pytest.mark.parametrize("ending", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    def test_line_ends_read_alike(self, tmp_path, ending):
        path = tmp_path / "trials.txt"
        text = "spk1 utt1 target\n\n  spk2 utt2 nontarget \n"
        path.write_bytes(text.replace("\n", ending).encode())
        assert [astuple(t) for t in load_trials(path)] == [
            ("spk1", "utt1", True, 1), ("spk2", "utt2", False, 3)
        ]
        path.write_bytes((text + "spk3 utt3 same\n").replace("\n", ending).encode())
        assert_raises_exactly(
            lambda: load_trials(path), FormatError,
            "trials line 4: label must be 'target' or 'nontarget'",
        )

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

    @pytest.mark.parametrize(
        "trial, message",
        [
            (Trial("a", "u", "nontarget"), "trial 2: target must be a bool, got 'nontarget'"),
            (Trial("a", "u", 1), "trial 2: target must be a bool, got 1"),
            (Trial(1, "u", True), "trial 2: ids must be strings, got 1 and 'u'"),
            (Trial("a", b"u", False), "trial 2: ids must be strings, got 'a' and b'u'"),
            (("a", "u", True), "trial 2: expected a Trial, got ('a', 'u', True)"),
            (Trial("a", "u", True, line="x"), "trial 2: line must be an integer, got 'x'"),
            (Trial("a", "u", True, line=0), "trial 2: line must be >= 1, got 0"),
            (Trial("a", "u", True, line=True), "trial 2: line must be an integer, got True"),
            (Trial("a", "u", True, line=2.0), "trial 2: line must be an integer, got 2.0"),
        ],
    )
    def test_rejects_non_string_ids_and_non_bool_targets(self, trial, message):
        # a numpy bool is a bool and a numpy integer an integer; the second
        # trial is named by its position
        with pytest.raises(DataError) as err:
            TrialList((Trial("a", "u", np.True_), trial))
        assert str(err.value) == message
        accepted = (Trial("a", "u", np.True_), Trial("a", "v", False, line=np.int64(3)))
        assert TrialList(accepted).n_target == 1

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


def test_decode_error_from_other_bytes_propagates(tmp_path):
    # the file decodes whole, so a UnicodeDecodeError from other bytes is not
    # the file's and is raised again as it is
    path = tmp_path / "input.txt"
    path.write_text("valid text\n", encoding="utf-8")
    with pytest.raises(UnicodeDecodeError) as err:
        with open_text(path):
            b"\xff".decode()
    assert type(err.value) is UnicodeDecodeError
    assert (err.value.object, err.value.start) == (b"\xff", 0)


@pytest.mark.parametrize("name", ["embeddings-csv", "spectrum-csv", "sweep-csv"])
def test_oversized_csv_field_is_format_error(tmp_path, name):
    loader, prefix = TEXT_LOADERS[name]
    path = tmp_path / "input.csv"
    path.write_bytes(prefix + b"x" * 200_000 + b",1\n")
    with pytest.raises(FormatError, match="field larger than field limit"):
        loader(path)


# each raise branch no other test reaches: the call, its error, its message
RAISES = {
    "save-unknown-format": (
        lambda tmp: save_embeddings(_sample_set(np.random.default_rng(1)), tmp / "e", "hdf5"),
        DataError, "unknown embeddings format 'hdf5'",
    ),
    "trial-list-empty": (lambda tmp: TrialList(()), DataError, "trial list is empty"),
}


@pytest.mark.parametrize("call, error, message", RAISES.values(), ids=RAISES.keys())
def test_raise_branch_message(call, error, message, tmp_path):
    assert_raises_exactly(lambda: call(tmp_path), error, message)
