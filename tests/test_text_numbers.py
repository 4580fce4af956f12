"""The one rule for numbers written as text: ``linalg.parse_int`` and
``linalg.parse_real`` read text that ``int()`` or ``float()`` reads, in ASCII
and without ``_``, and every text format and CLI option goes through them."""

import pytest

from helpers import assert_raises_exactly
from varispace import (
    DataError,
    FormatError,
    load_embeddings,
    parse_population_config,
    parse_spec,
    read_spectrum_csv,
    read_sweep_csv,
)
from varispace.cli import _parse_k_range, build_parser
from varispace.linalg import parse_int, parse_real


@pytest.mark.parametrize("text, value", [("12", 12), ("+3", 3), ("-1", -1), (" 7 ", 7)])
def test_parse_int_admits(text, value):
    assert parse_int(text, "n") == value


@pytest.mark.parametrize("text", ["1_0", "٥", "１", "0x10", "2.0", "", "True"])
def test_parse_int_rejects(text):
    assert_raises_exactly(lambda: parse_int(text, "n"), DataError,
                          f"n must be an integer, got {text!r}")


@pytest.mark.parametrize(
    "text, value", [("0.5", 0.5), ("-1e-3", -0.001), (" 2 ", 2.0), ("+.5", 0.5)]
)
def test_parse_real_admits(text, value):
    assert parse_real(text, "x") == value


@pytest.mark.parametrize("text", ["1_0.5", "٥", "１", "0x10", "", "1,5"])
def test_parse_real_rejects(text):
    assert_raises_exactly(lambda: parse_real(text, "x"), DataError,
                          f"x must be a real number, got {text!r}")


@pytest.mark.parametrize("text, shown", [("inf", "inf"), ("-nan", "nan"), ("1e400", "inf")])
def test_parse_real_rejects_a_non_finite_value(text, shown):
    assert_raises_exactly(lambda: parse_real(text, "x"), DataError,
                          f"x must be finite, got {shown}")


def test_parse_int_applies_the_least_value():
    assert_raises_exactly(lambda: parse_int("0", "n", 1), DataError, "n must be >= 1, got 0")


CONFIG = "n_speakers=2\nutts_per_speaker=2\ndim=2\nbetween=1x2\nwithin=0.1x2\nseed=1\n"
SWEEP_HEADER = "family,start,size,direction,eer_percent,n_target,n_nontarget\n"


def _file(tmp, text):
    path = tmp / "input"
    path.write_text(text, encoding="utf-8")
    return path


def _command(*argv):
    """A CLI command run without ``main``'s error handler, so that its error
    escapes; the input paths do not exist, since options are read first."""
    args = build_parser().parse_args(list(argv))
    return args.func(args)


_SWEEP = ("sweep", "--space", "absent.vsp", "--embeddings", "absent.csv",
          "--trials", "absent.txt", "--out", "absent-sweep.csv")

# each site that reads a number from text: a call given the field's text and
# a directory, the error, and the message with ``{0}`` for the text's repr
# (``{1}`` for the text itself)
SITES = {
    "config-count": (
        lambda t, tmp: parse_population_config(CONFIG.replace("n_speakers=2", f"n_speakers={t}")),
        DataError, "n_speakers must be an integer, got {0}",
    ),
    "config-run-value": (
        lambda t, tmp: parse_population_config(CONFIG.replace("between=1x2", f"between={t}x2")),
        DataError, "between value must be a real number, got {0}",
    ),
    "config-run-count": (
        lambda t, tmp: parse_population_config(CONFIG.replace("within=0.1x2", f"within=0.1x{t}")),
        DataError, "within repeat count must be an integer, got {0}",
    ),
    "spec-size": (
        lambda t, tmp: parse_spec(f"secondary:20:{t}:-"),
        DataError, "bad subspace spec 'secondary:20:{1}:-': subspace size must be an integer, "
                   "got {0} ([family:]<start>:<size>:<+|->)",
    ),
    "k-range-step": (
        lambda t, tmp: _parse_k_range(f"0:8:{t}"),
        DataError, "size range step must be an integer, got {0}",
    ),
    "cli-window": (
        lambda t, tmp: _command("detect-knee", "--space", "absent.vsp", "--window", t),
        DataError, "window must be an integer, got {0}",
    ),
    "cli-tolerance": (
        lambda t, tmp: _command("detect-knee", "--space", "absent.vsp", "--tolerance", t),
        DataError, "oscillation tolerance must be a real number, got {0}",
    ),
    "cli-turning": (
        lambda t, tmp: _command(*_SWEEP, "--family", "secondary", "--is", t, "--k", "0:4:2"),
        DataError, "turning dimension must be an integer, got {0}",
    ),
    "sweep-csv": (
        lambda t, tmp: read_sweep_csv(_file(tmp, SWEEP_HEADER + f"primary,1,{t},+,12.5,10,20\n")),
        FormatError, "sweep CSV line 2: size must be an integer, got {0}",
    ),
    "spectrum-csv": (
        lambda t, tmp: read_spectrum_csv(
            _file(tmp, f"index,log_eigenvalue,delta\n1,0.5,{t}\n2,0.4,\n")),
        FormatError, "spectrum CSV line 2: delta must be a real number, got {0}",
    ),
    "embeddings-csv": (
        lambda t, tmp: load_embeddings(_file(tmp, f"utt_id,spk_id,d1,d2\nu1,s,0.5,{t}\n")),
        FormatError, "embeddings CSV line 2: d2 must be a real number, got {0}",
    ),
}
# an underscore, a non-ASCII digit (Arabic-Indic five) and a non-number
SPELLINGS = {"underscore": "1_0", "arabic-indic": "٥", "word": "a"}
TABLE = {
    f"{site}-{spelling}": (call, error, message, text)
    for site, (call, error, message) in SITES.items()
    for spelling, text in SPELLINGS.items()
}


@pytest.mark.parametrize("call, error, message, text", TABLE.values(), ids=TABLE.keys())
def test_every_site_follows_the_rule(tmp_path, call, error, message, text):
    assert_raises_exactly(lambda: call(text, tmp_path), error, message.format(repr(text), text))
