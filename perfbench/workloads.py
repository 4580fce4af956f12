"""The benchmark's workloads: inputs, set-up, timed operations and checks.

Every workload generates its inputs from the run's seed with the package's
own synthetic generator, so the program only ever sees the generated files.
Library calls go through the ``varispace`` module attributes so that a
traced round, which swaps those attributes for recording wrappers, records
them.

fit-d256
    The acceptance population at D=256 in the binary format. One op is
    load -> fit -> save_space -> delta_spectrum -> detect_turning, where the
    eigensolver does nearly all the work; nothing calls ``subspace`` or
    ``scoring``, so evaluation-side changes predict no change here.
eval-n10k
    10000 rows at D=192 and 20000 trials, with the space fitted in set-up,
    so ``linalg`` runs only there. One round is a ``modify`` op (CSV in,
    CSV out), an ``eer`` op and a 9-size ``sweep`` op whose family rotates
    primary/secondary/residual. The ``eer`` and ``sweep`` ops do no file
    I/O, so an I/O change predicts no change in them.
cli-walkthrough
    The README walkthrough as CLI subprocesses on the README population
    (800 rows, D=32, CSV), where interpreter start-up, ``import numpy`` and
    small-file CSV dominate: the one workload where import weight or a fixed
    per-call cost shows.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import struct
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import reference as ref
import varispace as vs

HERE = Path(__file__).resolve().parent
TRIAL_SEED = 7  # the README's trial seed, used by every workload
FAMILIES = ("primary", "secondary", "residual")


@dataclass(frozen=True)
class Population:
    n_speakers: int
    utts_per_speaker: int
    dim: int
    between: str
    within: str

    def config_text(self, seed: int) -> str:
        return (
            f"n_speakers={self.n_speakers}\nutts_per_speaker={self.utts_per_speaker}\n"
            f"dim={self.dim}\nbetween={self.between}\nwithin={self.within}\nseed={seed}\n"
        )


# The README walkthrough population; the full-removal probe uses it as well.
README_POPULATION = Population(40, 20, 32, "0.9x8,0.0x24", "0.1x32")


def generate(population: Population, seed: int):
    return vs.generate(vs.parse_population_config(population.config_text(seed)))


def _sweep_sizes(limit: int) -> list[int]:
    """Nine sizes from 0 in equal steps, the largest at most ``limit``."""
    return [i * (limit // 8) for i in range(9)]


def _block(family: str, size: int, dim: int, anchor: int) -> range:
    """0-based coefficient indices a family's block of ``size`` covers."""
    if family == "primary":
        return range(0, size)
    if family == "secondary":
        return range(anchor - size, anchor)
    return range(dim - size, dim)


class Workload:
    """Base: subclasses define the set-up, the op kinds run in each round,
    each op, and its check."""

    name = ""
    default_seed = 20250809
    kinds: tuple[str, ...] = ()

    def __init__(self, work: Path, seed: int, tiny: bool):
        self.work = work
        self.seed = seed

    def describe(self) -> dict:
        """Population config and trial count, written into every result."""
        raise NotImplementedError

    def setup(self) -> None:
        raise NotImplementedError

    def prepare_checks(self) -> list[str]:
        """Compute the references once, after set-up; returns set-up misses."""
        return []

    def run(self, kind: str, round_index: int, tracer):
        raise NotImplementedError

    def check(self, kind: str, output) -> list[str]:
        raise NotImplementedError

    def probe(self, tracer) -> None:
        """Untimed extra measurement after each traced round."""


class FitD256(Workload):
    name = "fit-d256"
    default_seed = 2024
    kinds = ("fit",)

    def __init__(self, work, seed, tiny):
        super().__init__(work, seed, tiny)
        self.population = (
            Population(10, 5, 24, "1.0x4,0x20", "0.05x24") if tiny
            else Population(100, 20, 256, "1.0x16,0x240", "0.05x256")
        )
        self.input = work / "acceptance.emb"
        self.output = work / "space.vsp"

    def describe(self):
        return {"population": self.population.config_text(self.seed), "trials": 0,
                "input": "binary embeddings"}

    def setup(self):
        self.embeddings = generate(self.population, self.seed)
        vs.save_embeddings(self.embeddings, self.input, format="binary")

    def prepare_checks(self):
        # the binary format stores float32, so the reference starts from that
        self.data = self.embeddings.vectors.astype(np.float32).astype(np.float64)
        self.cov = np.cov(self.data, rowvar=False)
        _, self.ref_eigenvalues = ref.eigh_desc(self.cov)
        self.ref_deltas = ref.log_deltas(self.ref_eigenvalues)
        floor = 1e-12 * self.ref_eigenvalues[0]
        self.ref_knee = vs.detect_turning(vs.DeltaSpectrum(self.ref_deltas, floor)).index
        return []

    def run(self, kind, round_index, tracer):
        embeddings = vs.load_embeddings(self.input)
        space = vs.fit(embeddings)
        vs.save_space(space, self.output)
        deltas = vs.delta_spectrum(space)
        return space, deltas, vs.detect_turning(deltas)

    def check(self, kind, output):
        space, deltas, knee = output
        misses = ref.eig_errors(self.cov, space.basis, space.eigenvalues, self.ref_eigenvalues)
        if np.max(np.abs(space.mean - self.data.mean(axis=0))) > 1e-12:
            misses.append("mean differs from the data mean")
        delta_err = float(np.max(np.abs(deltas.values - self.ref_deltas)))
        if delta_err > ref.DELTA_TOL:
            misses.append(f"delta spectrum off by {delta_err:.3e}")
        if knee.index != self.ref_knee:
            misses.append(f"turning index {knee.index}, reference {self.ref_knee}")
        blob = self.output.read_bytes()
        d = space.dim
        if blob[:12] != struct.pack("<4sII", b"VSP1", 1, d):
            misses.append("space file header")
        stored = np.frombuffer(blob, dtype="<f8", offset=12)
        expected = np.concatenate([space.mean, space.eigenvalues, space.basis.ravel()])
        if stored.shape != expected.shape or not np.array_equal(stored, expected):
            misses.append("space file does not hold the fitted space")
        return misses


class EvalN10k(Workload):
    name = "eval-n10k"
    kinds = ("modify", "eer", "sweep")

    def __init__(self, work, seed, tiny):
        super().__init__(work, seed, tiny)
        if tiny:
            self.population = Population(20, 5, 24, "0.9x4,0.0x20", "0.1x24")
            self.n_nontarget, self.anchor = 100, 15
        else:
            self.population = Population(500, 20, 192, "0.9x8,0.0x184", "0.1x192")
            # the anchor sits at 5/8 of D, as --is 20 does in the README's D=32
            self.n_nontarget, self.anchor = 10000, 120
        self.block_size = 8
        self.spec = vs.SubspaceSpec(self.anchor, self.block_size, "-", family="secondary")
        self.input = work / "emb.csv"
        self.output = work / "anon.csv"

    def sizes(self, family: str) -> list[int]:
        return _sweep_sizes(self.anchor if family == "secondary" else self.population.dim - 1)

    def describe(self):
        return {
            "population": self.population.config_text(self.seed),
            "trials": self.population.n_speakers * self.population.utts_per_speaker
            + self.n_nontarget,
            "block": str(self.spec),
            "sweep_sizes": {f: self.sizes(f) for f in FAMILIES},
        }

    def setup(self):
        self.embeddings = generate(self.population, self.seed)
        vs.save_embeddings(self.embeddings, self.input)
        self.space = vs.fit(self.embeddings)
        self.trials = vs.make_trials(self.embeddings, self.n_nontarget, seed=TRIAL_SEED)

    def prepare_checks(self):
        x = self.embeddings.vectors
        dim = self.population.dim
        cov = np.cov(x, rowvar=False)
        misses = ref.eig_errors(
            cov, self.space.basis, self.space.eigenvalues, ref.eigh_desc(cov)[1]
        )
        speakers = {s: i for i, s in enumerate(self.embeddings.speakers())}
        row_of = {u: i for i, u in enumerate(self.embeddings.utt_ids)}
        row_speaker = np.array([speakers[s] for s in self.embeddings.spk_ids])
        trial_speaker = np.array([speakers[t.enroll_speaker] for t in self.trials])
        trial_row = np.array([row_of[t.test_utterance] for t in self.trials])
        self.labels = np.array([t.target for t in self.trials])

        def scores(modified):
            return ref.cosine_scores(
                modified, modified, row_speaker, trial_speaker, trial_row, len(speakers)
            )

        basis = self.space.basis
        self.ref_modified = ref.remove_block(
            x, basis, _block("secondary", self.block_size, dim, self.anchor)
        )
        self.ref_scores = scores(self.ref_modified)
        self.ref_eer = ref.eer_percent(self.ref_scores, self.labels)
        self.ref_sweeps = {
            family: [
                ref.eer_percent(
                    scores(ref.remove_block(x, basis, _block(family, k, dim, self.anchor))),
                    self.labels,
                )
                for k in self.sizes(family)
            ]
            for family in FAMILIES
        }
        return misses

    def _eer_op(self):
        modified = vs.modify_batch(self.space, self.embeddings, self.spec)
        wanted = {t.enroll_speaker for t in self.trials} & set(modified.speakers())
        enrollments = {s: vs.build_enrollment(modified, s) for s in sorted(wanted)}
        scored = vs.score_trials(enrollments, modified, self.trials)
        return scored, vs.compute_eer(scored)

    def run(self, kind, round_index, tracer):
        if kind == "modify":
            embeddings = vs.load_embeddings(self.input)
            vs.save_embeddings(vs.modify_batch(self.space, embeddings, self.spec), self.output)
            return None
        if kind == "eer":
            return self._eer_op()
        family = FAMILIES[round_index % len(FAMILIES)]
        return family, vs.run_sweep(
            self.space, self.embeddings, self.trials, family, self.sizes(family),
            turning_dim=self.anchor,
        )

    def _counts_misses(self, n_target, n_nontarget) -> list[str]:
        expected = (int(self.labels.sum()), int((~self.labels).sum()))
        if (n_target, n_nontarget) != expected:
            return [f"trial counts {(n_target, n_nontarget)}, expected {expected}"]
        return []

    def check(self, kind, output):
        if kind == "modify":
            return self._check_modify_file()
        if kind == "eer":
            scored, result = output
            misses = self._counts_misses(result.n_target, result.n_nontarget)
            score_err = float(np.max(np.abs(scored.scores - self.ref_scores)))
            if score_err > ref.SCORE_TOL:
                misses.append(f"scores off by {score_err:.3e}")
            if abs(result.eer_percent - self.ref_eer) > ref.EER_TOL:
                misses.append(f"EER {result.eer_percent!r}, reference {self.ref_eer!r}")
            return misses
        family, sweep = output
        misses = []
        expected = self.ref_sweeps[family]
        if [row.size for row in sweep.rows] != self.sizes(family):
            return [f"{family} sweep sizes {[row.size for row in sweep.rows]}"]
        for row, ref_eer in zip(sweep.rows, expected):
            misses += self._counts_misses(row.n_target, row.n_nontarget)
            if row.family != family or abs(row.eer_percent - ref_eer) > ref.EER_TOL:
                misses.append(
                    f"{family} K={row.size}: EER {row.eer_percent!r}, reference {ref_eer!r}"
                )
        return misses

    def _check_modify_file(self) -> list[str]:
        with open(self.output, encoding="utf-8") as fh:
            header = fh.readline().rstrip("\n").split(",")
            ids = [line.split(",", 2)[:2] for line in fh]
        dim = self.population.dim
        if header != ["utt_id", "spk_id"] + [f"d{i}" for i in range(1, dim + 1)]:
            return ["modified CSV header"]
        if ids != [list(pair) for pair in zip(self.embeddings.utt_ids, self.embeddings.spk_ids)]:
            return ["modified CSV ids or order"]
        values = np.loadtxt(self.output, delimiter=",", skiprows=1, usecols=range(2, dim + 2),
                            ndmin=2)
        err = np.max(np.abs(values - self.ref_modified), axis=1)
        bound = ref.MODIFY_RTOL * (1.0 + np.linalg.norm(self.embeddings.vectors, axis=1))
        if np.any(err > bound):
            return [f"modified CSV off the dense reference by {float(np.max(err)):.3e}"]
        return []


TRIALS_SNIPPET = """
from varispace import load_embeddings, make_trials, save_trials
emb = load_embeddings('emb.csv')
save_trials(make_trials(emb, n_nontarget=%d, seed=%d), 'trials.txt')
"""


class CliWalkthrough(Workload):
    name = "cli-walkthrough"
    kinds = ("walkthrough",)
    outputs = ("emb.csv", "space.vsp", "spectrum.csv", "anon.csv", "trials.txt",
               "primary_sweep.csv", "secondary_sweep.csv")

    def __init__(self, work, seed, tiny):
        super().__init__(work, seed, tiny)
        self.population = (
            Population(10, 10, 32, "0.9x8,0.0x24", "0.1x32") if tiny else README_POPULATION
        )
        self.n_nontarget = 200 if tiny else 2000
        self.env = dict(os.environ, PYTHONPATH=str(HERE.parent / "src"))
        self.expected_hashes = None

    def describe(self):
        return {
            "population": self.population.config_text(self.seed),
            "trials": self.population.n_speakers * self.population.utts_per_speaker
            + self.n_nontarget,
            "input": "CSV",
        }

    def commands(self) -> list[tuple[str, list[str]]]:
        sweep = ["sweep", "--space", "space.vsp", "--embeddings", "emb.csv",
                 "--trials", "trials.txt"]
        return [
            ("synth", ["synth", "--config", "../pop.cfg", "--out", "emb.csv"]),
            ("fit", ["fit", "--embeddings", "emb.csv", "--out", "space.vsp"]),
            ("spectrum", ["spectrum", "--space", "space.vsp", "--out", "spectrum.csv"]),
            ("detect-knee", ["detect-knee", "--space", "space.vsp", "--window", "10",
                             "--tolerance", "0.05"]),
            ("modify", ["modify", "--space", "space.vsp", "--embeddings", "emb.csv",
                        "--spec", "secondary:20:8:-", "--out", "anon.csv"]),
            ("make-trials", ["-c", TRIALS_SNIPPET % (self.n_nontarget, TRIAL_SEED)]),
            ("eer", ["eer", "--enroll", "anon.csv", "--test", "anon.csv",
                     "--trials", "trials.txt"]),
            ("sweep", sweep + ["--family", "primary", "--k", "0:24:3",
                               "--out", "primary_sweep.csv"]),
            ("sweep", sweep + ["--family", "secondary", "--is", "20", "--k", "0:16:2",
                               "--out", "secondary_sweep.csv"]),
        ]

    def _child(self, argv: list[str], cwd: Path, spans_file: Path | None = None):
        """Run one command in a fresh interpreter; with ``spans_file`` it runs
        under the span-recording shim instead of ``python -m varispace``."""
        if spans_file is not None:
            argv = [str(HERE / "traced_cli.py"), str(spans_file)] + argv
        elif argv[0] != "-c":
            argv = ["-m", "varispace"] + argv
        return subprocess.run([sys.executable] + argv, cwd=cwd, env=self.env,
                              capture_output=True, text=True, timeout=120)

    def setup(self):
        (self.work / "pop.cfg").write_text(self.population.config_text(self.seed))
        # warm-up: one interpreter start that imports the package fills the
        # page cache with numpy's shared objects before any timed pass
        self._child(["-c", "import varispace"], self.work).check_returncode()

    def run(self, kind, round_index, tracer):
        pass_dir = self.work / f"pass{round_index}"
        pass_dir.mkdir()
        failures = []
        for name, argv in self.commands():
            if tracer is None:
                proc = self._child(argv, pass_dir)
            else:
                spans_file = pass_dir / "spans.json"
                with tracer.span(f"cli.{name}") as span:
                    proc = self._child(argv, pass_dir, spans_file)
                with open(spans_file, encoding="utf-8") as fh:
                    tracer.adopt(json.load(fh), span)
                spans_file.unlink()
            if proc.returncode != 0:
                failures.append(f"{name} exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
        return failures, pass_dir

    def check(self, kind, output):
        failures, pass_dir = output
        hashes = {
            f: hashlib.sha256((pass_dir / f).read_bytes()).hexdigest()
            for f in self.outputs if (pass_dir / f).exists()
        }
        shutil.rmtree(pass_dir)
        if self.expected_hashes is None and not failures:
            self.expected_hashes = hashes
        misses = list(failures)
        if hashes != self.expected_hashes:
            changed = sorted(f for f in self.outputs
                             if hashes.get(f) != (self.expected_hashes or {}).get(f))
            misses.append(f"outputs differ from the first pass: {', '.join(changed)}")
        return misses

    def probe(self, tracer):
        with tracer.span("cli.startup"):
            self._child(["-c", "import varispace"], self.work).check_returncode()


WORKLOADS = {w.name: w for w in (FitD256, EvalN10k, CliWalkthrough)}


def full_removal_errors(seed: int) -> tuple[int, str]:
    """Attempt the primary sweep row K = D on the README population, untimed.

    Returns (1, message) when the sweep aborts, else (0, EER row). The timed
    grids stop below D, so this keeps the K = D behaviour visible."""
    embeddings = generate(README_POPULATION, seed)
    space = vs.fit(embeddings)
    trials = vs.make_trials(embeddings, 2000, seed=TRIAL_SEED)
    try:
        row = vs.run_sweep(space, embeddings, trials, "primary", [space.dim]).rows[0]
    except vs.VarispaceError as exc:
        return 1, f"{type(exc).__name__}: {exc}"
    return 0, f"eer_percent={row.eer_percent!r}"
