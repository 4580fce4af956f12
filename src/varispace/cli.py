"""Command-line front end.

Subcommands: fit, spectrum, detect-knee, modify, eer, sweep, synth.
Exit codes: 0 success, 1 validation/data error (running out of memory
included), 2 numerical failure, 3 I/O failure. Every failure prints a single
``error:<category>:`` line on stderr so scripts can dispatch on the category.
"""

from __future__ import annotations

import argparse
import sys
import warnings

import numpy as np

from . import __version__
from .embeddings import detect_format, format_float, load_embeddings, load_trials, save_embeddings
from .errors import DataError, NumericalError
from .linalg import check_finite, parse_int, parse_real
from .scoring import (
    SWEEP_FAMILIES,
    build_enrollment,
    compute_eer,
    run_sweep,
    score_trials,
    write_sweep_csv,
)
from .space import (
    delta_spectrum,
    detect_turning,
    fit,
    load_space,
    save_space,
    write_spectrum_csv,
)
from .subspace import modify_batch_with_energy, parse_spec
from .synth import generate, load_population_config


class _Parser(argparse.ArgumentParser):
    # Usage mistakes are data errors (exit 1), not argparse's default exit 2,
    # which is reserved for numerical failures.
    def error(self, message):
        self.exit(1, f"error:data:{message}\n")


def _parse_k_range(text: str) -> range:
    parts = text.split(":")
    if len(parts) != 3:
        raise DataError(f"bad size range '{text}': expected <first>:<last>:<step>")
    first = parse_int(parts[0], "size range first")
    last = parse_int(parts[1], "size range last")
    return range(first, last + 1, parse_int(parts[2], "size range step", 1))


def _cmd_fit(args) -> int:
    embeddings = load_embeddings(args.embeddings)
    # a rank-deficient fit warns; say so in one stable line, not warnings' two
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", UserWarning)
        space = fit(embeddings)
    for warning in caught:
        print(f"warning:{_one_line(warning.message)}", file=sys.stderr)
    save_space(space, args.out)
    lam = space.eigenvalues
    head = ",".join(format_float(v) for v in lam[:5])
    tail = ",".join(format_float(v) for v in lam[-5:])
    print(f"n={len(embeddings)} dim={space.dim}")
    print(f"eigenvalues_top5={head}")
    print(f"eigenvalues_bottom5={tail}")
    print(f"wrote={args.out}")
    return 0


def _cmd_spectrum(args) -> int:
    space = load_space(args.space)
    write_spectrum_csv(space, args.out)
    print(f"dim={space.dim}")
    print(f"wrote={args.out}")
    return 0


def _cmd_detect_knee(args) -> int:
    window = parse_int(args.window, "window")
    tolerance = parse_real(args.tolerance, "oscillation tolerance")
    deltas = delta_spectrum(load_space(args.space))
    result = detect_turning(deltas, window=window, oscillation_tol=tolerance)
    flag = "weak" if result.weak else "strong"
    print(f"i_s={result.index} flag={flag}")
    return 0


def _cmd_modify(args) -> int:
    space = load_space(args.space)
    spec = parse_spec(args.spec)
    embeddings = load_embeddings(args.embeddings)
    modified, removed = modify_batch_with_energy(space, embeddings, spec)
    with np.errstate(over="ignore"):
        mean_removed = float(np.mean(removed))
    check_finite("mean removed energy overflows float64", mean_removed)
    out_format = args.format if args.format != "auto" else detect_format(args.embeddings)
    save_embeddings(modified, args.out, format=out_format)
    print(f"records={len(modified)} mean_removed_energy={format_float(mean_removed)}")
    print(f"wrote={args.out}")
    return 0


def _cmd_eer(args) -> int:
    enroll_set = load_embeddings(args.enroll)
    test_set = enroll_set if args.test == args.enroll else load_embeddings(args.test)
    trials = load_trials(args.trials)
    wanted = {t.enroll_speaker for t in trials} & set(enroll_set.speakers())
    enrollments = {s: build_enrollment(enroll_set, s) for s in sorted(wanted)}
    result = compute_eer(score_trials(enrollments, test_set, trials))
    print(
        f"eer_percent={format_float(result.eer_percent)} "
        f"threshold={format_float(result.threshold_at_eer)} "
        f"n_target={result.n_target} n_nontarget={result.n_nontarget}"
    )
    return 0


def _cmd_sweep(args) -> int:
    k_values = _parse_k_range(args.k)
    turning = None if args.turning is None else parse_int(args.turning, "turning dimension")
    space = load_space(args.space)
    embeddings = load_embeddings(args.embeddings)
    trials = load_trials(args.trials)
    result = run_sweep(
        space,
        embeddings,
        trials,
        family=args.family,
        k_values=k_values,
        turning_dim=turning,
        clean_enrollment=args.clean_enroll,
    )
    write_sweep_csv(result, args.out)
    for row in result.rows:
        print(f"family={row.family} size={row.size} eer_percent={format_float(row.eer_percent)}")
    print(f"wrote={args.out} rows={len(result.rows)}")
    return 0


def _cmd_synth(args) -> int:
    config = load_population_config(args.config)
    embeddings = generate(config)
    save_embeddings(embeddings, args.out, format=args.format)
    print(
        f"n_speakers={config.n_speakers} "
        f"utts_per_speaker={config.utts_per_speaker} records={len(embeddings)}"
    )
    print(f"wrote={args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="varispace",
        description=(
            "Fit embedding variability spaces, remove subspace contributions, "
            "and evaluate the machine-perception effect with cosine/EER scoring."
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("fit", help="fit a variability space from embeddings")
    p.add_argument("--embeddings", required=True)
    p.add_argument("--out", required=True, help="output space file")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("spectrum", help="emit the log-eigenvalue/delta CSV")
    p.add_argument("--space", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("detect-knee", help="locate the candidate turning dimension")
    p.add_argument("--space", required=True)
    p.add_argument("--window", default="10")
    p.add_argument("--tolerance", default="0.05")
    p.set_defaults(func=_cmd_detect_knee)

    p = sub.add_parser("modify", help="zero a subspace's coefficients in every embedding")
    p.add_argument("--space", required=True)
    p.add_argument("--embeddings", required=True)
    p.add_argument("--spec", required=True, help="subspace spec [family:]<start>:<size>:<+|->")
    p.add_argument("--out", required=True)
    p.add_argument(
        "--format",
        choices=["auto", "csv", "binary"],
        default="auto",
        help="output format; auto matches the input",
    )
    p.set_defaults(func=_cmd_modify)

    p = sub.add_parser("eer", help="score trials and report the pooled EER")
    p.add_argument("--enroll", required=True, help="embeddings used for enrollment models")
    p.add_argument("--test", required=True, help="embeddings used for test sides")
    p.add_argument("--trials", required=True)
    p.set_defaults(func=_cmd_eer)

    p = sub.add_parser("sweep", help="EER vs removed-block size for one family")
    p.add_argument("--space", required=True)
    p.add_argument("--embeddings", required=True)
    p.add_argument("--trials", required=True)
    p.add_argument("--family", required=True, choices=SWEEP_FAMILIES)
    p.add_argument(
        "--is",
        dest="turning",
        help="turning dimension anchoring the secondary family",
    )
    p.add_argument("--k", required=True, help="size range <first>:<last>:<step>, inclusive")
    p.add_argument("--out", required=True)
    p.add_argument(
        "--clean-enroll",
        action="store_true",
        help="build enrollment models from the unmodified embeddings",
    )
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("synth", help="generate a synthetic speaker population")
    p.add_argument("--config", required=True, help="key=value population config")
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=["csv", "binary"], default="csv")
    p.set_defaults(func=_cmd_synth)

    return parser


def _one_line(message: str) -> str:
    return " ".join(str(message).split())


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # argparse takes "--k -1:3:1" for an option without its value: read "--k=-1:3:1"
    for i in reversed(range(len(argv) - 1)):
        if argv[i] == "--k" and argv[i + 1][:1] == "-" and argv[i + 1][1:2].isdigit():
            argv[i : i + 2] = [f"--k={argv[i + 1]}"]
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DataError as exc:
        print(f"error:data:{_one_line(exc)}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"error:numerical:{_one_line(exc)}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error:io:{_one_line(exc)}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        # an input too large for this host's memory, such as a huge population
        detail = _one_line(exc) or "allocation failed"
        print(f"error:data:out of memory: {detail}", file=sys.stderr)
        return 1
