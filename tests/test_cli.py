import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from helpers import assert_raises_exactly, deltas_to_eigenvalues, plant_deltas
from varispace import (
    DataError,
    EmbeddingSet,
    __version__,
    VariabilitySpace,
    load_embeddings,
    make_trials,
    read_spectrum_csv,
    read_sweep_csv,
    save_embeddings,
    save_space,
    save_trials,
)
from varispace.cli import _parse_k_range, main


POP_CONFIG = """\
n_speakers=6
utts_per_speaker=5
dim=8
between=0.9x3,0.0x5
within=0.1x8
seed=42
"""


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "pop.cfg").write_text(POP_CONFIG)
    assert main(["synth", "--config", str(tmp_path / "pop.cfg"),
                 "--out", str(tmp_path / "emb.csv")]) == 0
    assert main(["fit", "--embeddings", str(tmp_path / "emb.csv"),
                 "--out", str(tmp_path / "space.vsp")]) == 0
    emb = load_embeddings(tmp_path / "emb.csv")
    save_trials(make_trials(emb, 40, seed=9), tmp_path / "trials.txt")
    return tmp_path


class TestSynth:
    def test_record_count_and_output(self, tmp_path, capsys):
        (tmp_path / "pop.cfg").write_text(POP_CONFIG)
        assert main(["synth", "--config", str(tmp_path / "pop.cfg"),
                     "--out", str(tmp_path / "emb.csv")]) == 0
        out = capsys.readouterr().out
        assert "records=30" in out
        assert len(load_embeddings(tmp_path / "emb.csv")) == 30

    def test_repeat_is_byte_identical(self, tmp_path):
        (tmp_path / "pop.cfg").write_text(POP_CONFIG)
        main(["synth", "--config", str(tmp_path / "pop.cfg"), "--out", str(tmp_path / "a.csv")])
        main(["synth", "--config", str(tmp_path / "pop.cfg"), "--out", str(tmp_path / "b.csv")])
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_zero_speakers_rejected(self, tmp_path, capsys):
        (tmp_path / "pop.cfg").write_text(POP_CONFIG.replace("n_speakers=6", "n_speakers=0"))
        assert main(["synth", "--config", str(tmp_path / "pop.cfg"),
                     "--out", str(tmp_path / "emb.csv")]) == 1
        assert capsys.readouterr().err.startswith("error:data:")

    def test_population_past_the_draw_cap_is_one_data_line(self, tmp_path, capsys):
        config = POP_CONFIG.replace("n_speakers=6", f"n_speakers={10**30}")
        (tmp_path / "pop.cfg").write_text(config)
        assert main(["synth", "--config", str(tmp_path / "pop.cfg"),
                     "--out", str(tmp_path / "emb.csv")]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and captured.err.startswith("error:data:draw count ")
        assert not (tmp_path / "emb.csv").exists()

    @pytest.mark.parametrize("dim", [2**62, 10**20])
    def test_dimension_past_any_array_is_one_data_line(self, tmp_path, capsys, dim):
        (tmp_path / "pop.cfg").write_text(
            f"n_speakers=2\nutts_per_speaker=2\ndim={dim}\n"
            f"between=1x{dim}\nwithin=1x{dim}\nseed=1\n"
        )
        assert main(["synth", "--config", str(tmp_path / "pop.cfg"),
                     "--out", str(tmp_path / "emb.csv")]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error:data:config key 'between' expands to {dim} values, too many for an array\n"
        )

    def test_binary_output(self, tmp_path):
        (tmp_path / "pop.cfg").write_text(POP_CONFIG)
        main(["synth", "--config", str(tmp_path / "pop.cfg"),
              "--out", str(tmp_path / "emb.bin"), "--format", "binary"])
        assert (tmp_path / "emb.bin").read_bytes()[:4] == b"EMB1"


class TestFit:
    def test_reports_shape_and_writes_space(self, workdir, capsys):
        assert main(["fit", "--embeddings", str(workdir / "emb.csv"),
                     "--out", str(workdir / "space2.vsp")]) == 0
        out = capsys.readouterr().out
        assert "n=30 dim=8" in out
        assert "eigenvalues_top5=" in out
        assert "eigenvalues_bottom5=" in out
        assert (workdir / "space2.vsp").read_bytes() == (workdir / "space.vsp").read_bytes()

    def test_single_record_is_data_error(self, tmp_path, capsys):
        emb = EmbeddingSet(("u1",), ("s1",), np.ones((1, 3)))
        save_embeddings(emb, tmp_path / "one.csv")
        assert main(["fit", "--embeddings", str(tmp_path / "one.csv"),
                     "--out", str(tmp_path / "x.vsp")]) == 1
        assert capsys.readouterr().err.startswith("error:data:")

    def test_missing_input_is_io_error(self, tmp_path, capsys):
        assert main(["fit", "--embeddings", str(tmp_path / "missing.csv"),
                     "--out", str(tmp_path / "x.vsp")]) == 3
        assert capsys.readouterr().err.startswith("error:io:")

    def test_covariance_overflow_is_numerical_error(self, tmp_path, capsys):
        path = tmp_path / "huge.csv"
        path.write_text(
            "utt_id,spk_id,d1,d2\nu1,a,1e200,1\nu2,a,-1e200,2\nu3,b,3e199,-1\n"
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["fit", "--embeddings", str(path), "--out", str(tmp_path / "x.vsp")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:numerical:") and err.count("\n") == 1
        assert not (tmp_path / "x.vsp").exists()

    def test_eigenvalue_overflow_is_one_numerical_line(self, tmp_path, capsys):
        path = tmp_path / "huge.csv"
        path.write_text("utt_id,spk_id,d1,d2,d3\nu1,a,6e153,6e153,6e153\nu2,b,-6e153,-6e153,-6e153\n")
        assert main(["fit", "--embeddings", str(path), "--out", str(tmp_path / "x.vsp")]) == 2
        assert tuple(capsys.readouterr()) == ("", "error:numerical:eigenvalues overflow float64\n")
        assert not (tmp_path / "x.vsp").exists()

    def test_rank_deficient_fit_warns_in_one_line(self, tmp_path, capsys):
        (tmp_path / "pop.cfg").write_text(
            POP_CONFIG.replace("n_speakers=6", "n_speakers=3")
            .replace("utts_per_speaker=5", "utts_per_speaker=4")
            .replace("dim=8", "dim=32").replace("0.0x5", "0.0x29").replace("0.1x8", "0.1x32")
        )
        assert main(["synth", "--config", str(tmp_path / "pop.cfg"),
                     "--out", str(tmp_path / "emb.csv")]) == 0
        capsys.readouterr()
        assert main(["fit", "--embeddings", str(tmp_path / "emb.csv"),
                     "--out", str(tmp_path / "x.vsp")]) == 0
        captured = capsys.readouterr()
        assert captured.err == (
            "warning:fitting 32 dimensions from only 12 embeddings; "
            "eigenvalues beyond the sample rank will be zero\n"
        )
        assert captured.out.splitlines()[0] == "n=12 dim=32"
        assert captured.out.splitlines()[2] == "eigenvalues_bottom5=0,0,0,0,0"

    def test_non_utf8_id_is_one_data_line(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"utt_id,spk_id,d1\nu1,a,1\n\xff\xfe,a,2\n")
        code = main(["fit", "--embeddings", str(path), "--out", str(tmp_path / "x.vsp")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:data:") and err.count("\n") == 1
        assert "byte offset 24" in err

    def test_header_only_csv_is_one_data_line(self, tmp_path, capsys):
        path = tmp_path / "empty.csv"
        path.write_text("utt_id,spk_id,d1,d2\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["fit", "--embeddings", str(path), "--out", str(tmp_path / "x.vsp")])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err == "error:data:embeddings CSV contains no records\n"
        assert captured.out == ""
        assert not caught


class TestOutOfMemory:
    @pytest.mark.parametrize("message", [
        "Unable to allocate 46.6 TiB for an array with shape (6400000000000,)", "",
    ])
    @pytest.mark.parametrize("command", ["synth", "fit"])
    def test_one_data_line(self, workdir, monkeypatch, capsys, command, message):
        # stand-ins: a real allocation that large would page on a host that
        # overcommits memory instead of failing
        def exhausted(*args):
            raise MemoryError(message)

        monkeypatch.setattr("varispace.cli.generate", exhausted)
        monkeypatch.setattr("varispace.cli.fit", exhausted)
        argv = {
            "synth": ["synth", "--config", str(workdir / "pop.cfg")],
            "fit": ["fit", "--embeddings", str(workdir / "emb.csv")],
        }[command]
        capsys.readouterr()
        assert main(argv + ["--out", str(workdir / "out")]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error:data:out of memory: {message or 'allocation failed'}\n"
        assert not (workdir / "out").exists()

    def test_while_reading_a_csv(self, workdir, monkeypatch, capsys):
        # the failed np.loadtxt pass is not a verdict on the file, so the row
        # reader does not read it again
        def exhausted(*args, **kwargs):
            raise MemoryError("stand-in")

        monkeypatch.setattr("varispace.embeddings.np.loadtxt", exhausted)
        capsys.readouterr()
        argv = ["fit", "--embeddings", str(workdir / "emb.csv"), "--out", str(workdir / "out")]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error:data:out of memory: stand-in\n"
        assert not (workdir / "out").exists()


class TestSpectrum:
    def test_row_count_and_delta_column(self, workdir):
        out = workdir / "spectrum.csv"
        assert main(["spectrum", "--space", str(workdir / "space.vsp"), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 9
        logs, deltas = read_spectrum_csv(out)
        assert deltas == pytest.approx(np.diff(logs), abs=1e-12)

    def test_missing_space_is_io_error(self, workdir, capsys):
        assert main(["spectrum", "--space", str(workdir / "no.vsp"),
                     "--out", str(workdir / "s.csv")]) == 3
        assert capsys.readouterr().err.startswith("error:io:")

    def test_corrupt_space_is_data_error(self, workdir, capsys):
        bad = workdir / "bad.vsp"
        bad.write_bytes(b"JUNKJUNKJUNKJUNK")
        assert main(["spectrum", "--space", str(bad), "--out", str(workdir / "s.csv")]) == 1
        assert capsys.readouterr().err.startswith("error:data:")


class TestDetectKnee:
    def test_planted_knee_found(self, tmp_path, capsys):
        values = plant_deltas(np.random.default_rng(5), 19, 12, 10, 0.05)
        lam = deltas_to_eigenvalues(values)
        space = VariabilitySpace(mean=np.zeros(20), basis=np.eye(20), eigenvalues=lam)
        save_space(space, tmp_path / "planted.vsp")
        assert main(["detect-knee", "--space", str(tmp_path / "planted.vsp")]) == 0
        assert "i_s=12 flag=strong" in capsys.readouterr().out

    def test_monotone_spectrum_strong_one(self, tmp_path, capsys):
        lam = deltas_to_eigenvalues(-np.linspace(0.2, 2.0, 15))
        space = VariabilitySpace(mean=np.zeros(16), basis=np.eye(16), eigenvalues=lam)
        save_space(space, tmp_path / "mono.vsp")
        assert main(["detect-knee", "--space", str(tmp_path / "mono.vsp"), "--window", "5"]) == 0
        assert "i_s=1 flag=strong" in capsys.readouterr().out

    def test_too_small_dimension(self, tmp_path, capsys):
        space = VariabilitySpace(
            mean=np.zeros(2), basis=np.eye(2), eigenvalues=np.array([2.0, 1.0])
        )
        save_space(space, tmp_path / "tiny.vsp")
        assert main(["detect-knee", "--space", str(tmp_path / "tiny.vsp")]) == 1
        assert capsys.readouterr().err.startswith("error:data:")


class TestModify:
    def test_backward_spec_on_256_dims(self, tmp_path):
        lam = np.sort(np.random.default_rng(1).uniform(0.5, 3.0, 256))[::-1].copy()
        space = VariabilitySpace(mean=np.zeros(256), basis=np.eye(256), eigenvalues=lam)
        save_space(space, tmp_path / "s.vsp")
        emb = EmbeddingSet(
            ("u1", "u2"), ("a", "b"), np.random.default_rng(2).standard_normal((2, 256))
        )
        save_embeddings(emb, tmp_path / "e.csv")
        assert main(["modify", "--space", str(tmp_path / "s.vsp"),
                     "--embeddings", str(tmp_path / "e.csv"),
                     "--spec", "secondary:200:45:-",
                     "--out", str(tmp_path / "mod.csv")]) == 0
        modified = load_embeddings(tmp_path / "mod.csv")
        assert np.max(np.abs(modified.vectors[:, 155:200])) <= 1e-12
        assert main(["modify", "--space", str(tmp_path / "s.vsp"),
                     "--embeddings", str(tmp_path / "e.csv"),
                     "--spec", "primary:1:300:+",
                     "--out", str(tmp_path / "mod2.csv")]) == 1

    def test_size_zero_output_equals_input(self, workdir, capsys):
        out = workdir / "same.csv"
        assert main(["modify", "--space", str(workdir / "space.vsp"),
                     "--embeddings", str(workdir / "emb.csv"),
                     "--spec", "primary:1:0:+", "--out", str(out)]) == 0
        assert "mean_removed_energy=0" in capsys.readouterr().out
        assert out.read_bytes() == (workdir / "emb.csv").read_bytes()

    def test_unparsable_spec_shows_grammar(self, workdir, capsys):
        assert main(["modify", "--space", str(workdir / "space.vsp"),
                     "--embeddings", str(workdir / "emb.csv"),
                     "--spec", "nonsense", "--out", str(workdir / "x.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:data:")
        assert "<start>:<size>:<+|->" in err

    def test_spec_is_read_before_any_file(self, tmp_path, capsys):
        assert main(["modify", "--space", str(tmp_path / "missing.vsp"),
                     "--embeddings", str(tmp_path / "missing.csv"),
                     "--spec", "1:x:+", "--out", str(tmp_path / "y.csv")]) == 1
        assert tuple(capsys.readouterr()) == ("", (
            "error:data:bad subspace spec '1:x:+': subspace size must be an integer, "
            "got 'x' ([family:]<start>:<size>:<+|->)\n"
        ))

    def test_input_files_untouched(self, workdir):
        before = (workdir / "emb.csv").read_bytes()
        main(["modify", "--space", str(workdir / "space.vsp"),
              "--embeddings", str(workdir / "emb.csv"),
              "--spec", "primary:1:2:+", "--out", str(workdir / "m.csv")])
        assert (workdir / "emb.csv").read_bytes() == before


class TestEer:
    def test_separated_fixture(self, tmp_path, capsys):
        emb = EmbeddingSet(
            ("a1", "b1"), ("a", "b"), np.array([[1.0, 0.0], [0.0, 1.0]])
        )
        save_embeddings(emb, tmp_path / "e.csv")
        (tmp_path / "t.txt").write_text(
            "a a1 target\nb b1 target\na b1 nontarget\nb a1 nontarget\n"
        )
        assert main(["eer", "--enroll", str(tmp_path / "e.csv"),
                     "--test", str(tmp_path / "e.csv"),
                     "--trials", str(tmp_path / "t.txt")]) == 0
        out = capsys.readouterr().out
        assert "eer_percent=0 " in out
        assert "n_target=2 n_nontarget=2" in out

    def test_plateau_fixture_scores_fifty(self, tmp_path, capsys):
        # unit test vectors engineered to give cosines 0.8/0.2 (targets) and
        # 0.7/0.1 (nontargets) against the single enrollment model
        enroll = EmbeddingSet(("e1",), ("a",), np.array([[1.0, 0.0]]))
        tests = EmbeddingSet(
            ("t1", "t2", "n1", "n2"),
            ("a", "a", "x", "x"),
            np.array(
                [
                    [0.8, 0.6],
                    [0.2, np.sqrt(0.96)],
                    [0.7, np.sqrt(0.51)],
                    [0.1, np.sqrt(0.99)],
                ]
            ),
        )
        save_embeddings(enroll, tmp_path / "enroll.csv")
        save_embeddings(tests, tmp_path / "test.csv")
        (tmp_path / "t.txt").write_text(
            "a t1 target\na t2 target\na n1 nontarget\na n2 nontarget\n"
        )
        assert main(["eer", "--enroll", str(tmp_path / "enroll.csv"),
                     "--test", str(tmp_path / "test.csv"),
                     "--trials", str(tmp_path / "t.txt")]) == 0
        assert "eer_percent=50 " in capsys.readouterr().out

    def test_same_file_loaded_once(self, workdir, capsys, monkeypatch):
        (workdir / "copy.csv").write_bytes((workdir / "emb.csv").read_bytes())
        calls = []

        def counting(source):
            calls.append(source)
            return load_embeddings(source)

        monkeypatch.setattr("varispace.cli.load_embeddings", counting)
        outputs = []
        for test in ("emb.csv", "copy.csv"):
            calls.clear()
            assert main(["eer", "--enroll", str(workdir / "emb.csv"),
                         "--test", str(workdir / test),
                         "--trials", str(workdir / "trials.txt")]) == 0
            outputs.append((len(calls), capsys.readouterr()))
        (once, same), (twice, copied) = outputs
        assert (once, twice) == (1, 2)
        assert same == copied and same.err == ""

    def test_unknown_utterance_names_line(self, workdir, capsys):
        (workdir / "bad.txt").write_text("spk1 spk1_utt1 target\nspk1 ghost nontarget\n")
        assert main(["eer", "--enroll", str(workdir / "emb.csv"),
                     "--test", str(workdir / "emb.csv"),
                     "--trials", str(workdir / "bad.txt")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:data:")
        assert "trial 2" in err

    def test_blank_lines_keep_file_line_numbers(self, workdir, capsys):
        (workdir / "gaps.txt").write_text(
            "\nspk1 spk1_utt1 target\n\n   \nspk2 spk1_utt1 nontarget\n\nspk1 ghost target\n"
        )
        assert main(["eer", "--enroll", str(workdir / "emb.csv"),
                     "--test", str(workdir / "emb.csv"),
                     "--trials", str(workdir / "gaps.txt")]) == 1
        assert capsys.readouterr().err == "error:data:trial 7: unknown test utterance 'ghost'\n"

    def test_target_only_trials_are_one_data_line(self, workdir, capsys):
        lines = (workdir / "trials.txt").read_text().splitlines(keepends=True)
        targets = [line for line in lines if line.endswith(" target\n")]
        (workdir / "targets.txt").write_text("".join(targets))
        assert main(["eer", "--enroll", str(workdir / "emb.csv"),
                     "--test", str(workdir / "emb.csv"),
                     "--trials", str(workdir / "targets.txt")]) == 1
        assert tuple(capsys.readouterr()) == (
            "", "error:data:EER needs at least one target and one nontarget trial\n"
        )


class TestSweep:
    def test_row_count_inclusive_range(self, workdir, capsys):
        out = workdir / "sweep.csv"
        assert main(["sweep", "--space", str(workdir / "space.vsp"),
                     "--embeddings", str(workdir / "emb.csv"),
                     "--trials", str(workdir / "trials.txt"),
                     "--family", "primary", "--k", "0:6:2",
                     "--out", str(out)]) == 0
        result = read_sweep_csv(out)
        assert [r.size for r in result.rows] == [0, 2, 4, 6]
        assert capsys.readouterr().out.count("family=primary") == 4

    def test_rows_match_modify_plus_eer(self, workdir, capsys):
        out = workdir / "sweep.csv"
        main(["sweep", "--space", str(workdir / "space.vsp"),
              "--embeddings", str(workdir / "emb.csv"),
              "--trials", str(workdir / "trials.txt"),
              "--family", "primary", "--k", "0:3:3", "--out", str(out)])
        capsys.readouterr()
        for row in read_sweep_csv(out).rows:
            spec = f"primary:1:{row.size}:+"
            mod = workdir / f"mod{row.size}.csv"
            assert main(["modify", "--space", str(workdir / "space.vsp"),
                         "--embeddings", str(workdir / "emb.csv"),
                         "--spec", spec, "--out", str(mod)]) == 0
            assert main(["eer", "--enroll", str(mod), "--test", str(mod),
                         "--trials", str(workdir / "trials.txt")]) == 0
            printed = capsys.readouterr().out
            assert f"eer_percent={format(row.eer_percent, '.17g')} " in printed

    def test_secondary_requires_turning_flag(self, workdir, capsys):
        assert main(["sweep", "--space", str(workdir / "space.vsp"),
                     "--embeddings", str(workdir / "emb.csv"),
                     "--trials", str(workdir / "trials.txt"),
                     "--family", "secondary", "--k", "0:4:2",
                     "--out", str(workdir / "s.csv")]) == 1
        assert capsys.readouterr().err.startswith("error:data:")

    def test_secondary_with_turning_flag(self, workdir):
        out = workdir / "sec.csv"
        assert main(["sweep", "--space", str(workdir / "space.vsp"),
                     "--embeddings", str(workdir / "emb.csv"),
                     "--trials", str(workdir / "trials.txt"),
                     "--family", "secondary", "--is", "5", "--k", "0:4:2",
                     "--out", str(out)]) == 0
        assert all(r.start == 5 for r in read_sweep_csv(out).rows)

    def test_clean_enroll_flag_matches_api(self, workdir):
        from varispace import load_space, load_trials, run_sweep

        main(["sweep", "--space", str(workdir / "space.vsp"),
              "--embeddings", str(workdir / "emb.csv"),
              "--trials", str(workdir / "trials.txt"),
              "--family", "primary", "--k", "2:2:1", "--clean-enroll",
              "--out", str(workdir / "b.csv")])
        expected = run_sweep(
            load_space(workdir / "space.vsp"),
            load_embeddings(workdir / "emb.csv"),
            load_trials(workdir / "trials.txt"),
            "primary",
            [2],
            clean_enrollment=True,
        )
        assert read_sweep_csv(workdir / "b.csv") == expected

    @pytest.mark.parametrize(
        "family_args", [["primary"], ["residual"], ["secondary", "--is", "8"]]
    )
    def test_full_removal_rejected_up_front(self, workdir, capsys, family_args):
        out = workdir / "full.csv"
        assert main(["sweep", "--space", str(workdir / "space.vsp"),
                     "--embeddings", str(workdir / "emb.csv"),
                     "--trials", str(workdir / "trials.txt"),
                     "--family", *family_args, "--k", "0:8:4",
                     "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:data:sweep size 8 removes all 8 dimensions")
        assert captured.out == ""
        assert not out.exists()

    def test_bad_k_range(self, workdir, capsys):
        assert main(["sweep", "--space", str(workdir / "space.vsp"),
                     "--embeddings", str(workdir / "emb.csv"),
                     "--trials", str(workdir / "trials.txt"),
                     "--family", "primary", "--k", "5:1:1",
                     "--out", str(workdir / "s.csv")]) == 1
        assert capsys.readouterr().err.startswith("error:data:")

    @pytest.mark.parametrize("k, message", [
        ("5:1:1", "sweep needs at least one size"),
        ("-1:3:1", "size -1 unresolvable: subspace size must be >= 0, got -1"),
        ("0:3:0", "size range step must be >= 1, got 0"),
    ])
    def test_k_range_messages(self, workdir, capsys, k, message):
        assert main(["sweep", "--space", str(workdir / "space.vsp"),
                     "--embeddings", str(workdir / "emb.csv"),
                     "--trials", str(workdir / "trials.txt"),
                     "--family", "primary", f"--k={k}",
                     "--out", str(workdir / "s.csv")]) == 1
        assert capsys.readouterr().err == f"error:data:{message}\n"
        assert not (workdir / "s.csv").exists()

    @pytest.mark.parametrize("k", [["--k=-1:3:1"], ["--k", "-1:3:1"]], ids=["joined", "split"])
    def test_negative_first_size_in_either_spelling(self, workdir, capsys, k):
        assert main(["sweep", "--space", str(workdir / "space.vsp"),
                     "--embeddings", str(workdir / "emb.csv"),
                     "--trials", str(workdir / "trials.txt"),
                     "--family", "primary", *k, "--out", str(workdir / "s.csv")]) == 1
        assert capsys.readouterr().err == (
            "error:data:size -1 unresolvable: subspace size must be >= 0, got -1\n"
        )

    def test_size_above_dimension_rejected_before_expansion(self, workdir, capsys):
        # sizes are read one at a time: the first bad one stops the 10^19-long range
        assert main(["sweep", "--space", str(workdir / "space.vsp"),
                     "--embeddings", str(workdir / "emb.csv"),
                     "--trials", str(workdir / "trials.txt"),
                     "--family", "primary", "--k", "0:10000000000000000000:1",
                     "--out", str(workdir / "s.csv")]) == 1
        assert capsys.readouterr().err == (
            "error:data:sweep size 8 removes all 8 dimensions, leaving nothing to score\n"
        )
        assert not (workdir / "s.csv").exists()

    def test_idempotent_output_bytes(self, workdir):
        args = ["sweep", "--space", str(workdir / "space.vsp"),
                "--embeddings", str(workdir / "emb.csv"),
                "--trials", str(workdir / "trials.txt"),
                "--family", "residual", "--k", "0:4:2"]
        main(args + ["--out", str(workdir / "r1.csv")])
        main(args + ["--out", str(workdir / "r2.csv")])
        assert (workdir / "r1.csv").read_bytes() == (workdir / "r2.csv").read_bytes()


class TestOverflow:
    """Finite embeddings whose norms overflow float64: one numerical line."""

    @pytest.mark.parametrize("command", [
        ["eer", "--enroll", "huge.csv", "--test", "huge.csv", "--trials", "trials.txt"],
        ["modify", "--space", "space.vsp", "--embeddings", "huge.csv", "--spec", "1:1:+",
         "--out", "out.csv"],
        ["sweep", "--space", "space.vsp", "--embeddings", "huge.csv", "--trials", "trials.txt",
         "--family", "primary", "--k", "0:2:1", "--out", "out.csv"],
    ], ids=["eer", "modify", "sweep"])
    def test_one_numerical_line(self, workdir, capsys, command):
        emb = load_embeddings(workdir / "emb.csv")
        huge = EmbeddingSet(emb.utt_ids, emb.spk_ids, 1e200 * np.sign(emb.vectors))
        save_embeddings(huge, workdir / "huge.csv")
        argv = [str(workdir / a) if a.endswith((".csv", ".txt", ".vsp")) else a for a in command]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(argv)
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:numerical:") and captured.err.count("\n") == 1
        assert not (workdir / "out.csv").exists()

    def test_mean_removed_energy(self, tmp_path, capsys):
        # each row's energy is finite, their sum is not
        save_space(VariabilitySpace(np.zeros(2), np.eye(2), [2.0, 1.0]), tmp_path / "eye.vsp")
        (tmp_path / "big.csv").write_text("utt_id,spk_id,d1,d2\nu1,a,1.3e154,0\nu2,a,1.3e154,0\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["modify", "--space", str(tmp_path / "eye.vsp"), "--embeddings",
                         str(tmp_path / "big.csv"), "--spec", "1:1:+",
                         "--out", str(tmp_path / "out.csv")])
        assert code == 2
        assert capsys.readouterr().err == "error:numerical:mean removed energy overflows float64\n"
        assert not (tmp_path / "out.csv").exists()


class TestUsageErrors:
    def test_unknown_flag_exits_one_with_prefix(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fit", "--nope", "x"])
        assert exc.value.code == 1
        assert capsys.readouterr().err.startswith("error:data:")

    def test_missing_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 1

    def test_numerical_failures_exit_two(self, workdir, capsys, monkeypatch):
        from varispace import NumericalError
        import varispace.cli as cli_module

        def exploding_fit(_):
            raise NumericalError("iteration stalled")

        monkeypatch.setattr(cli_module, "fit", exploding_fit)
        assert main(["fit", "--embeddings", str(workdir / "emb.csv"),
                     "--out", str(workdir / "x.vsp")]) == 2
        assert capsys.readouterr().err.startswith("error:numerical:")


class TestModuleEntryPoint:
    """``python -m varispace`` in its own process: ``__main__`` passes main's
    exit code to the shell."""

    @staticmethod
    def _run(*argv, cwd):
        src = Path(__file__).resolve().parent.parent / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        return subprocess.run([sys.executable, "-m", "varispace", *argv], cwd=cwd, env=env,
                              capture_output=True, text=True, timeout=120)

    def test_version(self, tmp_path):
        proc = self._run("--version", cwd=tmp_path)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, f"varispace {__version__}\n", "")

    def test_usage_error_is_one_data_line(self, tmp_path):
        proc = self._run("fit", "--embeddings", "emb.csv", cwd=tmp_path)
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == "error:data:the following arguments are required: --out\n"

    def test_missing_input_is_an_io_error(self, tmp_path):
        proc = self._run("fit", "--embeddings", "absent.csv", "--out", "s.vsp", cwd=tmp_path)
        assert (proc.returncode, proc.stdout) == (3, "")
        assert proc.stderr.startswith("error:io:") and proc.stderr.count("\n") == 1
        assert not (tmp_path / "s.vsp").exists()


# each raise branch no other test reaches: the call, its error, its message
RAISES = {
    "k-range-field-count": (lambda: _parse_k_range("0:8"), DataError,
                            "bad size range '0:8': expected <first>:<last>:<step>"),
    "k-range-not-integer": (lambda: _parse_k_range("0:x:1"), DataError,
                            "size range last must be an integer, got 'x'"),
}


@pytest.mark.parametrize("call, error, message", RAISES.values(), ids=RAISES.keys())
def test_raise_branch_message(call, error, message):
    assert_raises_exactly(call, error, message)
