"""Property tests over every input parser: whatever the bytes or text, the
only exceptions that escape are ``VarispaceError`` (bad data, a bad format
or a numerical failure) and ``OSError``, and ``varispace fit`` reports a
failure as exactly one ``error:`` line."""

import io
import struct
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from varispace import (
    VarispaceError,
    load_embeddings,
    load_space,
    load_trials,
    parse_population_config,
    parse_spec,
    read_spectrum_csv,
    read_sweep_csv,
)
from varispace.cli import main

PROPERTY = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

# text that is mostly made of the characters the formats use, so that
# examples get past the header and field-count checks into value parsing
FORMAT_CHARS = st.sampled_from(list("0123456789.-+eEx,:=# \t\r\n\"'abfinrstuy_"))
format_text = st.text(FORMAT_CHARS, max_size=80)
any_text = st.one_of(st.text(max_size=60), format_text)


def _with_prefix(*prefixes):
    """Bytes that start with one of ``prefixes`` (a bytes value or a bytes
    strategy), followed by arbitrary bytes or format-like text."""
    body = st.one_of(st.binary(max_size=120), format_text.map(str.encode))
    heads = st.one_of(
        *(p if isinstance(p, st.SearchStrategy) else st.just(p) for p in prefixes)
    )
    return st.builds(bytes.__add__, heads, body)


small_or_any = lambda bits: st.one_of(st.integers(0, 4), st.integers(0, 2**bits - 1))  # noqa: E731

emb1_header = st.builds(
    lambda version, d, n: struct.pack("<4sIIQ", b"EMB1", version, d, n),
    st.integers(0, 2), small_or_any(32), small_or_any(64),
)


@st.composite
def space_files(draw):
    """A VSP1 header and, half the time, a body of exactly the declared size,
    so the values reach VariabilitySpace's own checks."""
    version = draw(st.integers(0, 2))
    d = draw(st.integers(0, 3))
    head = struct.pack("<4sII", b"VSP1", version, d)
    size = 8 * (2 * d + d * d)
    return head + draw(st.one_of(st.binary(min_size=size, max_size=size), st.binary(max_size=200)))


EMBEDDINGS_BYTES = _with_prefix(b"", b"utt_id,spk_id,d1,d2\n", b"utt_id,spk_id,d1\nu,s,", emb1_header)

FILE_LOADERS = {
    "trials": (load_trials, _with_prefix(b"", b"spk1 utt1 ")),
    "embeddings": (load_embeddings, EMBEDDINGS_BYTES),
    "space": (load_space, st.one_of(space_files(), st.binary(max_size=80))),
    "spectrum-csv": (
        read_spectrum_csv,
        _with_prefix(b"", b"index,log_eigenvalue,delta\n", b"index,log_eigenvalue,delta\n1,"),
    ),
    "sweep-csv": (
        read_sweep_csv,
        _with_prefix(
            b"", b"family,start,size,direction,eer_percent,n_target,n_nontarget\nprimary,"
        ),
    ),
}

CONFIG_KEYS = ("n_speakers", "utts_per_speaker", "dim", "between", "within", "seed", "x")
config_text = st.lists(
    st.builds("{}={}".format, st.sampled_from(CONFIG_KEYS), format_text), max_size=7
).map("\n".join)


def _only_toolkit_errors(call, *args):
    try:
        call(*args)
    except (VarispaceError, OSError):
        pass


@PROPERTY
@given(text=st.one_of(any_text, st.lists(st.text(FORMAT_CHARS, max_size=6), max_size=5).map(":".join)))
def test_parse_spec(text):
    _only_toolkit_errors(parse_spec, text)


@PROPERTY
@given(text=st.one_of(any_text, config_text))
def test_parse_population_config(text):
    _only_toolkit_errors(parse_population_config, text)


@pytest.mark.parametrize("name", list(FILE_LOADERS))
@PROPERTY
@given(data=st.data())
def test_file_loader(tmp_path, name, data):
    loader, contents = FILE_LOADERS[name]
    path = tmp_path / "input"
    path.write_bytes(data.draw(contents))
    _only_toolkit_errors(loader, path)


@PROPERTY
@given(contents=EMBEDDINGS_BYTES)
def test_cli_fit_prints_one_error_line(tmp_path, contents):
    source = tmp_path / "input"
    source.write_bytes(contents)
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = main(["fit", "--embeddings", str(source), "--out", str(tmp_path / "space.vsp")])
    lines = stderr.getvalue().splitlines()
    if code == 0:
        assert lines == []
    else:
        assert code in (1, 2, 3)
        assert len(lines) == 1 and lines[0].startswith("error:"), lines
