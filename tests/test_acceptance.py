"""Acceptance gate: every criterion runs at its stated tolerance and prints
one PASS/FAIL line. Run with ``pytest tests/test_acceptance.py -v -s``.

Oracles are independent re-derivations (power iteration with deflation,
exhaustive threshold sweeps, exhaustive candidate scans) living in
``tests/helpers.py``; none of them share code with the implementations they
check.
"""

import contextlib
import time

import numpy as np
import pytest

from helpers import brute_eer, brute_eig, plant_deltas, scan_turning
from varispace import (
    DeltaSpectrum,
    EmbeddingSet,
    PopulationConfig,
    ScoredTrials,
    SubspaceSpec,
    compute_eer,
    covariance,
    delta_spectrum,
    detect_turning,
    eig_sym,
    fit,
    generate,
    load_embeddings,
    load_space,
    log_spectrum,
    make_trials,
    modify,
    project,
    read_spectrum_csv,
    read_sweep_csv,
    reconstruct,
    save_embeddings,
    save_space,
    save_trials,
    write_spectrum_csv,
)
from varispace.cli import main as cli_main


@contextlib.contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {name}: FAIL")
        raise
    print(f"ACCEPTANCE {name}: PASS")


def _random_fitted_space(rng, d):
    n = int(rng.integers(d + 2, 3 * d + 3))
    data = rng.standard_normal((n, d)) * rng.uniform(0.2, 2.0, d)
    emb = EmbeddingSet(
        tuple(f"u{i}" for i in range(n)), tuple("s" for _ in range(n)), data
    )
    return fit(emb)


def test_eigendecomposition_oracle_equivalence():
    # 100 random symmetric matrices, D in 2..8: production solver vs the
    # shifted-power-iteration oracle, plus orthonormality/residual bounds
    with criterion("eigendecomposition-oracle-equivalence"):
        start = time.perf_counter()
        rng = np.random.default_rng(90210)
        for case in range(100):
            d = int(rng.integers(2, 9))
            m = rng.uniform(-1.0, 1.0, (d, d))
            s = 0.5 * (m + m.T)
            basis, lam = eig_sym(s)
            _, lam_oracle = brute_eig(s)
            scale = max(1.0, float(np.max(np.abs(lam))))
            assert np.max(np.abs(lam - lam_oracle)) <= 1e-8 * scale, f"case {case}"
            assert np.max(np.abs(basis.T @ basis - np.eye(d))) <= 1e-8
            residual = np.max(np.abs(s @ basis - basis * lam))
            assert residual <= 1e-7 * (1.0 + np.max(np.abs(s)))
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_dimension_256_scale():
    # fit 2000 synthetic 256-dim embeddings in under a minute with the same
    # orthonormality/residual bounds
    with criterion("dimension-256-scale"):
        config = PopulationConfig(
            n_speakers=100,
            utts_per_speaker=20,
            dim=256,
            between_variances=np.concatenate([np.full(16, 1.0), np.zeros(240)]),
            within_variances=np.full(256, 0.05),
            seed=2024,
        )
        embeddings = generate(config)
        assert len(embeddings) == 2000
        start = time.perf_counter()
        space = fit(embeddings)
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"fit took {elapsed:.1f}s"
        s = covariance(embeddings.vectors)
        basis = space.basis
        assert np.max(np.abs(basis.T @ basis - np.eye(256))) <= 1e-8
        residual = np.max(np.abs(s @ basis - basis * space.eigenvalues))
        assert residual <= 1e-7 * (1.0 + np.max(np.abs(s)))


def test_round_trip_and_energy_identities():
    # 1000 random (space, embedding, spec) triples
    with criterion("round-trip-and-energy-identities"):
        rng = np.random.default_rng(777)
        spaces = [_random_fitted_space(rng, int(rng.integers(2, 17))) for _ in range(40)]
        for _ in range(1000):
            space = spaces[int(rng.integers(len(spaces)))]
            d = space.dim
            x = rng.uniform(-1.0, 1.0, d) * float(rng.uniform(0.1, 1e3))
            start = int(rng.integers(1, d + 1))
            direction = "+" if rng.integers(2) else "-"
            room = d - start + 1 if direction == "+" else start
            spec = SubspaceSpec(start, int(rng.integers(0, room + 1)), direction)

            assert np.max(np.abs(reconstruct(space, project(space, x)) - x)) <= 1e-9

            once, removed_energy = modify(space, x, spec)
            twice, _ = modify(space, once, spec)
            assert np.max(np.abs(twice - once)) <= 1e-9

            removed = float(np.linalg.norm(x)) ** 2 - float(np.linalg.norm(once)) ** 2
            # relative to the norm scale: the subtraction itself carries an
            # unavoidable cancellation error of order eps * |x|^2
            tol = 1e-9 * max(1.0, float(np.linalg.norm(x)) ** 2)
            assert abs(removed - removed_energy) <= tol


def test_eer_oracle_equivalence():
    # production interpolated EER vs exhaustive midpoint-sweep oracle on
    # 1000 random score sets, plus exact fixture values
    with criterion("eer-oracle-equivalence"):
        separated = ScoredTrials(
            np.array([0.9, 0.8, 0.1, 0.2]), np.array([True, True, False, False])
        )
        assert compute_eer(separated).eer_percent == 0.0
        assert brute_eer(separated) == 0.0
        plateau = ScoredTrials(
            np.array([0.8, 0.2, 0.7, 0.1]), np.array([True, True, False, False])
        )
        assert compute_eer(plateau).eer_percent == pytest.approx(50.0, abs=1e-12)
        assert brute_eer(plateau) == pytest.approx(50.0, abs=1e-12)

        rng = np.random.default_rng(4242)
        for _ in range(1000):
            n_target = int(rng.integers(2, 201))
            n_nontarget = int(rng.integers(2, 201))
            scores = np.concatenate(
                [rng.uniform(-1, 1, n_target) * 0.5 + 0.2, rng.uniform(-1, 1, n_nontarget) * 0.5]
            )
            labels = np.concatenate(
                [np.ones(n_target, bool), np.zeros(n_nontarget, bool)]
            )
            scored = ScoredTrials(scores, labels)
            assert abs(compute_eer(scored).eer_percent - brute_eer(scored)) <= 1e-9


def test_end_to_end_synthetic_obfuscation(tmp_path):
    # 40 speakers x 20 utterances, D=32, speaker variance on dims 1-8 only:
    # removing the dominant block must obscure machine perception, removing
    # the negligible block must not; both via single sweep invocations
    with criterion("end-to-end-synthetic-obfuscation"):
        start = time.perf_counter()
        (tmp_path / "pop.cfg").write_text(
            "n_speakers=40\nutts_per_speaker=20\ndim=32\n"
            "between=0.9x8,0.0x24\nwithin=0.1x32\nseed=20250809\n"
        )
        emb_path = tmp_path / "pop.csv"
        assert cli_main(["synth", "--config", str(tmp_path / "pop.cfg"),
                         "--out", str(emb_path)]) == 0
        embeddings = load_embeddings(emb_path)
        assert len(embeddings) == 800

        trials_path = tmp_path / "trials.txt"
        save_trials(make_trials(embeddings, n_nontarget=2000, seed=777), trials_path)

        space_path = tmp_path / "space.vsp"
        assert cli_main(["fit", "--embeddings", str(emb_path),
                         "--out", str(space_path)]) == 0

        primary_csv = tmp_path / "primary.csv"
        assert cli_main(["sweep", "--space", str(space_path),
                         "--embeddings", str(emb_path),
                         "--trials", str(trials_path),
                         "--family", "primary", "--k", "0:8:8",
                         "--out", str(primary_csv)]) == 0
        residual_csv = tmp_path / "residual.csv"
        assert cli_main(["sweep", "--space", str(space_path),
                         "--embeddings", str(emb_path),
                         "--trials", str(trials_path),
                         "--family", "residual", "--k", "0:8:8",
                         "--out", str(residual_csv)]) == 0

        primary = {row.size: row for row in read_sweep_csv(primary_csv).rows}
        residual = {row.size: row for row in read_sweep_csv(residual_csv).rows}
        baseline = primary[0].eer_percent
        assert primary[0].n_target == 800
        assert primary[0].n_nontarget == 2000
        assert residual[0].eer_percent == baseline

        assert baseline < 5.0, f"baseline EER {baseline:.2f}%"
        assert primary[8].eer_percent > 25.0, f"primary K=8 EER {primary[8].eer_percent:.2f}%"
        assert abs(residual[8].eer_percent - baseline) <= 2.0, (
            f"residual K=8 EER {residual[8].eer_percent:.2f}% vs baseline {baseline:.2f}%"
        )

        elapsed = time.perf_counter() - start
        assert elapsed < 120.0, f"took {elapsed:.1f}s"


def test_delta_scale_invariance():
    # scaling the training data by 2 shifts every log-eigenvalue by 2*ln(2)
    # and leaves the delta spectrum untouched
    with criterion("delta-scale-invariance"):
        rng = np.random.default_rng(31415)
        data = rng.standard_normal((60, 12)) * rng.uniform(0.3, 3.0, 12)
        ids = tuple(f"u{i}" for i in range(60))
        spks = tuple(f"s{i % 6}" for i in range(60))
        base = fit(EmbeddingSet(ids, spks, data))
        scaled = fit(EmbeddingSet(ids, spks, 2.0 * data))
        shift = log_spectrum(scaled) - log_spectrum(base)
        assert np.max(np.abs(shift - 2.0 * np.log(2.0))) <= 1e-8
        delta_gap = delta_spectrum(scaled).values - delta_spectrum(base).values
        assert np.max(np.abs(delta_gap)) <= 1e-8


def test_format_stability(tmp_path):
    # binary round-trips bit-exact; CSVs re-parse to the emitted values
    with criterion("format-stability"):
        rng = np.random.default_rng(2718)
        data = rng.standard_normal((30, 6))
        emb = EmbeddingSet(
            tuple(f"u{i}" for i in range(30)), tuple(f"s{i % 5}" for i in range(30)), data
        )
        space = fit(emb)

        space_a = tmp_path / "a.vsp"
        space_b = tmp_path / "b.vsp"
        save_space(space, space_a)
        save_space(load_space(space_a), space_b)
        assert space_a.read_bytes() == space_b.read_bytes()

        emb_a = tmp_path / "a.emb"
        emb_b = tmp_path / "b.emb"
        save_embeddings(emb, emb_a, format="binary")
        save_embeddings(load_embeddings(emb_a), emb_b, format="binary")
        assert emb_a.read_bytes() == emb_b.read_bytes()

        csv_path = tmp_path / "e.csv"
        save_embeddings(emb, csv_path, format="csv")
        assert np.array_equal(load_embeddings(csv_path).vectors, emb.vectors)

        spectrum_path = tmp_path / "spectrum.csv"
        write_spectrum_csv(space, spectrum_path)
        logs, deltas = read_spectrum_csv(spectrum_path)
        assert np.array_equal(logs, log_spectrum(space))
        assert np.array_equal(deltas, delta_spectrum(space).values)

        trials_path = tmp_path / "t.txt"
        trials = make_trials(emb, n_nontarget=40, seed=5)
        save_trials(trials, trials_path)
        sweep_path = tmp_path / "sweep.csv"
        assert cli_main(["sweep", "--space", str(space_a),
                         "--embeddings", str(csv_path),
                         "--trials", str(trials_path),
                         "--family", "residual", "--k", "0:2:1",
                         "--out", str(sweep_path)]) == 0
        reparsed = read_sweep_csv(sweep_path)
        rewritten = tmp_path / "sweep2.csv"
        from varispace import write_sweep_csv

        write_sweep_csv(reparsed, rewritten)
        assert rewritten.read_bytes() == sweep_path.read_bytes()


def test_turning_point_detector():
    # 50 constructed spectra with planted monotone-magnitude tails; the
    # detector must return the planted index exactly, as must the
    # exhaustive-scan oracle
    with criterion("turning-point-detector"):
        rng = np.random.default_rng(1618)
        for case in range(50):
            window = int(rng.integers(3, 12))
            length = int(rng.integers(window + 3, 90))
            knee = int(rng.integers(window + 1, length))
            tol = float(rng.uniform(0.02, 0.12))
            values = plant_deltas(rng, length, knee, window, tol)
            deltas = DeltaSpectrum(values=values, floor_epsilon=1e-12)
            result = detect_turning(deltas, window=window, oscillation_tol=tol)
            assert (result.index, result.weak) == (knee, False), f"case {case}"
            assert scan_turning(list(values), window, tol) == (knee, False), f"case {case}"
