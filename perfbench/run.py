"""Seeded benchmark of the varispace pipeline, end to end and layer by layer.

    python3 perfbench/run.py --workload {fit-d256,eval-n10k,cli-walkthrough,all}
                             [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere; it imports the package from ``src/`` beside this
directory and works in ``.perfbench_work/`` at the repository root, which it
removes on exit. Each workload runs in its own process with OpenBLAS, OpenMP
and MKL pinned to one thread (set before numpy loads, and passed on to CLI
children). ``--workload all`` runs every workload that way in turn.

A run sets the workload up three times (one time when traced), computes
plain-numpy references, then runs rounds of the workload's operations until
``--seconds`` have passed, checking every output; a miss or an exception
counts the operation as failed. The last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines above
it give the machine, the workload's inputs and a readable summary.

End-to-end metrics (``--trace 0``), all lower-is-better:
  round_s      seconds per round: the sum over the workload's op kinds of
               each kind's median time (fit; modify + eer + sweep;
               walkthrough pass)
  setup_s      median seconds of one set-up: generate, write the inputs,
               fit (eval-n10k), warm-up (cli-walkthrough)
  peak_rss_mb  peak RSS in MiB of this process, or of the largest CLI child
The summary also prints each op kind's median (``fit_s``, ``modify_s``,
``eer_s``, ``sweep_s``, ``walkthrough_s``) with sample count and quartiles,
and ``failed_share``.

Per-layer metrics (``--trace 1``) come from rounds in which the batch-level
public functions are wrapped (see ``spans.py``); traced and untraced rounds
alternate so that ``trace.overhead_s`` is the traced minus the untraced
``round_s``. For a layer L, ``L.s`` is its time per traced round and
``L.self_s`` that time minus its child spans; ``calls``, ``rows``,
``trials`` and ``bytes`` are per round too. A layer that never runs in the
ops is reported from the traced set-up instead, and one that never runs at
all reads 0. ``trace.coverage`` is the share of op time covered by the ops'
top-level spans. There are no queues in this single-process batch tool, so
no wait time is recorded.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("fit-d256", "eval-n10k", "cli-walkthrough")
SETUP_REPEATS = 3

CLI_COMMANDS = ("synth", "fit", "spectrum", "detect-knee", "modify", "make-trials", "eer",
                "sweep", "startup")
PER_LAYER_UNITS = {
    "linalg.eig_sym.s": "s",
    "linalg.eig_sym.d": "dims",
    "linalg.eig_sym.residual": "max-abs",
    "linalg.eig_sym.orth_err": "max-abs",
    "linalg.covariance.s": "s",
    "space.fit.self_s": "s",
    "space.detect_turning.s": "s",
    "space.save_space.s": "s",
    "space.load_space.s": "s",
    "subspace.modify_batch.s": "s",
    "subspace.modify_batch.calls": "count",
    "subspace.modify_batch.rows": "count",
    "subspace.modify_batch.rows_per_s": "rows/s",
    "scoring.build_enrollment.s": "s",
    "scoring.build_enrollment.calls": "count",
    "scoring.score_trials.s": "s",
    "scoring.score_trials.trials": "count",
    "scoring.score_trials.trials_per_s": "trials/s",
    "scoring.compute_eer.s": "s",
    "scoring.run_sweep.self_s": "s",
    "scoring.run_sweep.rows": "count",
    "scoring.run_sweep.full_removal_errors": "count",
    "embeddings.load_embeddings.s": "s",
    "embeddings.load_embeddings.bytes": "B",
    "embeddings.save_embeddings.s": "s",
    "embeddings.save_embeddings.bytes": "B",
    "embeddings.load_trials.s": "s",
    "synth.generate.s": "s",
    "synth.make_trials.s": "s",
    **{f"cli.{c}.s": "s" for c in CLI_COMMANDS},
    "trace.overhead_s": "s",
    "trace.coverage": "share",
}


def _median_quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q2, q1, q3


def machine_facts() -> dict:
    import numpy as np

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def _call(tracer, span_name: str, fn, *args):
    """``fn(*args)``; with a tracer, inside a root span with the wrappers in."""
    if tracer is None:
        return fn(*args)
    tracer.install()
    try:
        with tracer.span(span_name):
            return fn(*args)
    finally:
        tracer.uninstall()


def measure(workload, seconds: float, trace: bool):
    """Set up, then run rounds of ops until ``seconds`` have passed.

    An untraced run stops after any op once every kind has run; a traced
    run stops after a whole round, and not before it has run one untraced
    and one traced round. Returns (set-up seconds, ops, set-up misses,
    tracer); each op is a dict with its kind, seconds, whether it was
    traced, and its check misses.
    """
    from spans import Tracer

    tracer = Tracer() if trace else None
    setup_times = []
    for _ in range(1 if trace else SETUP_REPEATS):
        start = time.perf_counter()
        _call(tracer, "setup", workload.setup)
        setup_times.append(time.perf_counter() - start)
    setup_misses = workload.prepare_checks()

    ops = []
    start = time.perf_counter()
    round_index = 0
    while True:
        traced = trace and round_index % 2 == 1
        op_tracer = tracer if traced else None
        for kind in workload.kinds:
            began = time.perf_counter()
            try:
                output = _call(op_tracer, f"op.{kind}", workload.run, kind, round_index, op_tracer)
                elapsed = time.perf_counter() - began
                misses = workload.check(kind, output)
            except Exception as exc:  # a failed op or check counts, and the run goes on
                elapsed = time.perf_counter() - began
                misses = [f"{type(exc).__name__}: {exc}"]
            ops.append({"kind": kind, "seconds": elapsed, "traced": traced, "misses": misses})
            if (not trace and len(ops) >= len(workload.kinds)
                    and time.perf_counter() - start >= seconds):
                return setup_times, ops, setup_misses, tracer
        if traced:
            workload.probe(tracer)
        round_index += 1
        if trace and round_index >= 2 and time.perf_counter() - start >= seconds:
            return setup_times, ops, setup_misses, tracer


def round_seconds(workload, ops: list[dict], traced: bool) -> float:
    """Sum over the workload's op kinds of each kind's median seconds."""
    return sum(
        _median_quartiles([o["seconds"] for o in ops
                           if o["kind"] == kind and o["traced"] == traced])[0]
        for kind in workload.kinds
    )


def layer_metrics(spans: list[dict], rounds: int) -> tuple[dict, dict]:
    """Per-layer metrics, plus each op kind's time shares by layer."""
    by_id = {s["id"]: s for s in spans}
    child_time = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]

    def root(s):
        while s["parent"] is not None:
            s = by_id[s["parent"]]
        return s

    groups = defaultdict(lambda: {"ops": [], "setup": []})
    op_time = defaultdict(float)
    layer_time = defaultdict(lambda: defaultdict(float))
    for s in spans:
        top = root(s)
        duration = s["end"] - s["start"]
        groups[s["name"]]["setup" if top["name"] == "setup" else "ops"].append(s)
        if s is top and s["name"].startswith("op."):
            op_time[s["name"]] += duration
        elif top["name"].startswith("op."):
            layer_time[top["name"]][s["name"]] += duration

    metrics = {}
    for name, phases in groups.items():
        group, per = (phases["ops"], rounds) if phases["ops"] else (phases["setup"], 1)
        busy = sum(s["end"] - s["start"] for s in group)
        metrics[f"{name}.s"] = busy / per
        metrics[f"{name}.self_s"] = (busy - sum(child_time[s["id"]] for s in group)) / per
        metrics[f"{name}.calls"] = len(group) / per
        for attr in ("rows", "trials", "bytes"):
            values = [s["attrs"][attr] for s in group if attr in s["attrs"]]
            if values:
                metrics[f"{name}.{attr}"] = sum(values) / per
                metrics[f"{name}.{attr}_per_s"] = sum(values) / busy if busy > 0 else 0.0
        for attr in ("d", "residual", "orth_err"):
            values = [s["attrs"][attr] for s in group if attr in s["attrs"]]
            if values:
                metrics[f"{name}.{attr}"] = max(values)
    top_level = sum(child_time[s["id"]] for s in spans
                    if s["parent"] is None and s["name"].startswith("op."))
    metrics["trace.coverage"] = top_level / sum(op_time.values()) if op_time else 0.0
    shares = {
        op: {layer: t / op_time[op] for layer, t in layers.items()}
        for op, layers in layer_time.items()
    }
    return metrics, shares


def run_workload(args) -> int:
    import numpy as np  # noqa: F401  (loads BLAS after the thread pinning)

    from workloads import WORKLOADS, full_removal_errors

    cls = WORKLOADS[args.workload]
    seed = cls.default_seed if args.seed is None else args.seed
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        workload = cls(work, seed, args.tiny)
        print("machine:", json.dumps(machine_facts()))
        print("workload:", json.dumps({
            "name": args.workload, "seed": seed, "seconds": args.seconds,
            "trace": args.trace, "tiny": args.tiny, **workload.describe(),
        }))
        setup_times, ops, setup_misses, tracer = measure(workload, args.seconds, bool(args.trace))
        probe_errors, probe_message = full_removal_errors(seed)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    who = resource.RUSAGE_CHILDREN if args.workload == "cli-walkthrough" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
    failed = sum(1 for o in ops if o["misses"])
    for miss in setup_misses:
        print(f"set-up check missed: {miss}")
    for o in ops:
        for miss in o["misses"]:
            print(f"FAILED {o['kind']} op: {miss}")

    def show(name, values):
        median, q1, q3 = _median_quartiles(values)
        print(f"{name} = {median:.6g} s  (median of n={len(values)}; q1={q1:.6g} q3={q3:.6g})")

    show("setup_s", setup_times)
    for kind in workload.kinds:
        show(f"{kind}_s", [o["seconds"] for o in ops if o["kind"] == kind and not o["traced"]])
    untraced_round = round_seconds(workload, ops, traced=False)
    print(f"round_s = {untraced_round:.6g} s  (sum of the op medians above)")
    print(f"peak_rss_mb = {peak_rss_mb:.6g} MiB")
    print(f"failed_share = {failed / len(ops):.6g}  ({failed} failed / {len(ops)} attempted)")
    print(f"full_removal_probe: errors={probe_errors} ({probe_message})")
    print("wait time: not recorded (single-process batch tool, no queues)")

    if args.trace:
        rounds = sum(1 for o in ops if o["traced"] and o["kind"] == workload.kinds[0])
        measured, shares = layer_metrics(tracer.spans, rounds)
        measured["scoring.run_sweep.full_removal_errors"] = probe_errors
        measured["trace.overhead_s"] = round_seconds(workload, ops, traced=True) - untraced_round
        for op, layers in sorted(shares.items()):
            top = sorted(layers.items(), key=lambda kv: -kv[1])[:8]
            print(f"share of {op} time by layer (nested layers overlap): "
                  + ", ".join(f"{k} {v:.1%}" for k, v in top))
        metrics = {name: {"value": measured.get(name, 0.0), "unit": unit}
                   for name, unit in PER_LAYER_UNITS.items()}
        for name, entry in metrics.items():
            print(f"{name} = {entry['value']:.6g} {entry['unit']}")
    else:
        metrics = {
            "round_s": {"value": untraced_round, "unit": "s"},
            "setup_s": {"value": _median_quartiles(setup_times)[0], "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"},
        }
    print(json.dumps({
        "correct": failed == 0 and not setup_misses,
        "attempted": len(ops),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def run_all(args) -> int:
    status = 0
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.seed is not None:
            argv += ["--seed", str(args.seed)]
        if args.tiny:
            argv.append("--tiny")
        status = max(status, subprocess.run(argv).returncode)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=None,
                        help="population seed (default 2024 for fit-d256, else 20250809)")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="keep starting rounds until this much time has passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny populations, for the benchmark's own smoke test")
    args = parser.parse_args(argv)

    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (ROOT / "src" / "varispace" / "__init__.py").is_file():
        print(f"error: no varispace sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(ROOT / "src"))
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
