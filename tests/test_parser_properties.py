"""Property tests over every input parser and every function or frozen
value's constructor that takes a plain array: whatever the bytes, text or
nested lists, the only exceptions that escape are ``VarispaceError`` (bad
data, a bad format or a numerical failure) and ``OSError``, and ``varispace
fit`` reports a failure as exactly one ``error:`` line. Also pins the one
ownership rule of the arrays a frozen value stores."""

import io
import struct
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from varispace import (
    DataError,
    DeltaSpectrum,
    EmbeddingSet,
    NumericalError,
    PopulationConfig,
    ScoredTrials,
    SubspaceSpec,
    VariabilitySpace,
    VarispaceError,
    cosine,
    fit,
    generate,
    load_embeddings,
    load_population_config,
    load_space,
    load_trials,
    make_trials,
    modify,
    parse_population_config,
    parse_spec,
    project,
    read_spectrum_csv,
    read_sweep_csv,
    reconstruct,
    save_embeddings,
    save_space,
    save_trials,
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


@pytest.fixture(scope="module")
def valid_inputs(tmp_path_factory):
    """The bytes of one valid input of each kind: a 6-speaker, 8-dim
    population as CSV and as binary, its config, its fitted space and a trial list."""
    work = tmp_path_factory.mktemp("valid")
    (work / "pop.cfg").write_text(
        "n_speakers=6\nutts_per_speaker=5\ndim=8\nbetween=0.9x3,0.0x5\nwithin=0.1x8\nseed=42\n"
    )
    emb = generate(load_population_config(work / "pop.cfg"))
    save_embeddings(emb, work / "emb.csv")
    save_embeddings(emb, work / "emb.bin", format="binary")
    save_space(fit(emb), work / "space.vsp")
    save_trials(make_trials(emb, 40, seed=9), work / "trials.txt")
    return {name: (work / name).read_bytes() for name in CLI_INPUTS}


CLI_INPUTS = ("emb.csv", "emb.bin", "pop.cfg", "space.vsp", "trials.txt")
# every subcommand form that reads an input file, ``{}`` being the work directory
_SWEEP = "sweep --space {0}/space.vsp --embeddings {0}/emb.csv --trials {0}/trials.txt"
CLI_FORMS = (
    "fit --embeddings {0}/emb.csv --out {0}/out.vsp",
    "fit --embeddings {0}/emb.bin --out {0}/out.vsp",
    "spectrum --space {0}/space.vsp --out {0}/out.csv",
    "detect-knee --space {0}/space.vsp --window 2",
    "modify --space {0}/space.vsp --embeddings {0}/emb.csv --spec secondary:5:2:- --out {0}/o.csv",
    "modify --space {0}/space.vsp --embeddings {0}/emb.bin --spec primary:1:3:+ --out {0}/o.bin",
    "eer --enroll {0}/emb.csv --test {0}/emb.bin --trials {0}/trials.txt",
    _SWEEP + " --family primary --k 0:6:3 --out {0}/s.csv",
    _SWEEP + " --family secondary --is 5 --k 0:4:2 --out {0}/s.csv",
    _SWEEP + " --family residual --k 1:7:3 --clean-enroll --out {0}/s.csv",
    "synth --config {0}/pop.cfg --out {0}/o.csv",
)
EXIT_CATEGORIES = {1: "data", 2: "numerical", 3: "io"}
# values and ids of the population that, inserted anywhere, reach deeper checks; a
# 20-digit run makes any population count it lands in exceed the generator's draw cap
INSERTS = (
    b"nan", b"inf", b"1e308", b'"', b"\x00", b"\xff", b"spk1", b"spk2_utt3", b" ",
    b"99999999999999999999", b"1_0", "٥".encode(),
)


@st.composite
def mutations(draw):
    """(input name, function of its valid bytes): a truncation, a byte flip or an
    insertion at one offset."""
    name = draw(st.sampled_from(CLI_INPUTS))
    at, flip = draw(st.floats(0.0, 1.0)), draw(st.integers(1, 255))
    kind = draw(st.sampled_from(["truncate", "flip", "insert"]))
    insert = draw(st.sampled_from(INSERTS))

    def mutate(data):
        i = int(at * (len(data) - 1))
        if kind == "truncate":
            return data[:i]
        if kind == "flip":
            return data[:i] + bytes([data[i] ^ flip]) + data[i + 1:]
        return data[:i] + insert + data[i:]

    return name, mutate


@settings(PROPERTY, max_examples=30)
@given(mutation=mutations())
def test_every_cli_form_exits_cleanly_on_a_mutated_input(tmp_path, valid_inputs, mutation):
    """Exit 0 with at most ``warning:`` lines on stderr, or exit 1, 2 or 3 with
    exactly one ``error:<category>:`` line, never a traceback."""
    name, mutate = mutation
    for each, data in valid_inputs.items():
        (tmp_path / each).write_bytes(mutate(data) if each == name else data)
    for form in CLI_FORMS:
        stderr = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(stderr):
            code = main(form.format(tmp_path).split())
        lines = stderr.getvalue().splitlines()
        if code == 0:
            assert all(line.startswith("warning:") for line in lines), (form, lines)
        else:
            assert code in EXIT_CATEGORIES, (form, code)
            assert len(lines) == 1, (form, lines)
            assert lines[0].startswith(f"error:{EXIT_CATEGORIES[code]}:"), (form, lines)


SPACE = fit(EmbeddingSet(("a", "b", "c"), ("s", "s", "t"), [[1.0, 0.0], [0.0, 2.0], [1.0, 1.0]]))
ARRAY_ENTRY_POINTS = {
    "cosine": lambda x: cosine(x, [1.0, 0.0]),
    "modify": lambda x: modify(SPACE, x, SubspaceSpec(1, 1, "+")),
    "project": lambda x: project(SPACE, x),
    "reconstruct": lambda x: reconstruct(SPACE, x),
}
# the frozen values' constructors, one array argument at a time
ARRAY_CONSTRUCTORS = {
    "EmbeddingSet": lambda x: EmbeddingSet(("a", "b"), ("s", "t"), x),
    "VariabilitySpace-mean": lambda x: VariabilitySpace(x, np.eye(2), [2.0, 1.0]),
    "VariabilitySpace-basis": lambda x: VariabilitySpace([0.0, 0.0], x, [2.0, 1.0]),
    "VariabilitySpace-eigenvalues": lambda x: VariabilitySpace([0.0, 0.0], np.eye(2), x),
    "DeltaSpectrum": lambda x: DeltaSpectrum(x, 1e-12),
    "DeltaSpectrum-floor": lambda x: DeltaSpectrum([-0.5], x),
    "ScoredTrials-scores": lambda x: ScoredTrials(x, [True, False]),
    "ScoredTrials-labels": lambda x: ScoredTrials([0.5, -0.5], x),
    "PopulationConfig": lambda x: PopulationConfig(2, 2, 2, x, [0.1, 0.1], 1),
}
ARRAY_TAKERS = {**ARRAY_ENTRY_POINTS, **ARRAY_CONSTRUCTORS}

# nested lists of numbers of any finite magnitude (whose norms and products
# can overflow float64), non-finite values, None, complex numbers, dicts and
# short strings
array_like = st.recursive(
    st.one_of(
        st.integers(-9, 9),
        st.floats(allow_nan=False, allow_infinity=False),
        st.sampled_from([float("nan"), float("inf"), float("-inf"), None, 1j, {}]),
        st.text(FORMAT_CHARS, max_size=4),
    ),
    lambda inner: st.lists(inner, max_size=3),
    max_leaves=8,
)


@pytest.mark.parametrize("values", [[[1.0], [2.0, 3.0]], [1.0, 1j], [{}, 1.0]])
@pytest.mark.parametrize("name", list(ARRAY_ENTRY_POINTS))
def test_non_numeric_array_is_data_error(name, values):
    with pytest.raises(DataError, match="not a numeric vector"):
        ARRAY_ENTRY_POINTS[name](values)


@pytest.mark.parametrize("name", list(ARRAY_ENTRY_POINTS))
def test_finite_overflow_is_numerical_error(name):
    with pytest.raises(NumericalError, match="overflow"):
        ARRAY_ENTRY_POINTS[name]([1.7e308, 1.7e308])


@pytest.mark.parametrize("name", list(ARRAY_TAKERS))
@PROPERTY
@given(values=array_like)
def test_array_entry_point(name, values):
    _only_toolkit_errors(ARRAY_TAKERS[name], values)


@pytest.mark.parametrize("values", [[[1.0], [2.0, 3.0]], [[1.0, 1j]], [[{}, 1.0]]])
def test_non_numeric_matrix_is_data_error(values):
    with pytest.raises(DataError, match="not a numeric matrix"):
        EmbeddingSet(tuple(f"u{i}" for i in range(len(values))), ("s",) * len(values), values)


# each frozen array: the constructor above that takes it, its field, a valid value
FROZEN_FIELDS = [
    ("EmbeddingSet", "vectors", np.eye(2)),
    ("VariabilitySpace-mean", "mean", np.zeros(2)),
    ("VariabilitySpace-basis", "basis", np.eye(2)),
    ("VariabilitySpace-eigenvalues", "eigenvalues", np.array([2.0, 1.0])),
    ("DeltaSpectrum", "values", np.array([-0.5, -0.25])),
    ("ScoredTrials-scores", "scores", np.array([0.5, -0.5])),
    ("PopulationConfig", "between_variances", np.array([1.0, 0.5])),
]


@pytest.mark.parametrize(
    "constructor, field, value", FROZEN_FIELDS, ids=[c for c, _, _ in FROZEN_FIELDS]
)
def test_one_ownership_rule(constructor, field, value):
    def stored(given):
        return getattr(ARRAY_CONSTRUCTORS[constructor](given), field)

    # a read-only float64 array that owns its memory is kept
    owned = value.copy()
    owned.setflags(write=False)
    assert np.shares_memory(stored(owned), owned)
    # a list, or an array of another dtype, is checked into a new array, kept
    for made in (value.tolist(), value.astype(np.float32)):
        got = stored(made)
        assert got.dtype == np.float64 and not got.flags.writeable
        assert np.array_equal(got, value)
    # a writable array and a read-only view of a writable array are copied
    writable = value.copy()
    view = writable[...]
    view.setflags(write=False)
    for given in (writable, view):
        got = stored(given)
        assert not got.flags.writeable
        assert not np.shares_memory(got, writable)
        assert np.array_equal(got, value)


@pytest.mark.parametrize(
    "labels", [["no", ""], ["a"], [1, 0], np.array([1, 0]), [True], [[True, False]], [[True], []]]
)
def test_scored_trial_labels_must_be_a_bool_array_of_the_scores_shape(labels):
    with pytest.raises(DataError, match=r"labels must be a bool array of shape \(2,\)"):
        ScoredTrials([0.1, 0.2], labels)


def test_scored_trial_labels_are_copied_and_read_only():
    labels = np.array([True, False])
    scored = ScoredTrials([0.1, 0.2], labels)
    labels[0] = False
    assert scored.labels.tolist() == [True, False]
    assert not scored.labels.flags.writeable
