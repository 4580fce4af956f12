"""The one rule for arrays: ``linalg.as_array`` admits values whose array has
an integer or float dtype and nothing else, at every public array argument,
and a real-number argument admits the same kinds as one Python or numpy value."""

from fractions import Fraction

import numpy as np
import pytest

from helpers import assert_raises_exactly
from varispace import (
    DataError,
    DeltaSpectrum,
    EmbeddingSet,
    PopulationConfig,
    ScoredTrials,
    SubspaceSpec,
    SweepRow,
    Trial,
    TrialList,
    VariabilitySpace,
    cosine,
    covariance,
    detect_turning,
    eig_sym,
    modify,
    project,
    reconstruct,
    score_trials,
)
from varispace.linalg import as_array

SPACE = VariabilitySpace([0.0, 0.0], np.eye(2), [1.0, 0.5])
SET = EmbeddingSet(("u1",), ("a",), [[1.0, 0.0]])
TRIALS = TrialList((Trial("a", "u1", True),))


def _config(between=(1.0, 1.0), within=(0.1, 0.1)):
    return PopulationConfig(2, 2, 2, between, within, 1)


# each public array argument: a call given the values, what the message calls
# them, and the shape of a well-formed value (D = 2)
SITES = {
    "embedding-vectors": (lambda v: EmbeddingSet(("u",), ("s",), v),
                          "embedding vectors is not a numeric matrix", (1, 2)),
    "space-mean": (lambda v: VariabilitySpace(v, np.eye(2), [1.0, 0.5]),
                   "mean is not a numeric vector", (2,)),
    "space-basis": (lambda v: VariabilitySpace([0.0, 0.0], v, [1.0, 0.5]),
                    "basis is not a numeric matrix", (2, 2)),
    "space-eigenvalues": (lambda v: VariabilitySpace([0.0, 0.0], np.eye(2), v),
                          "eigenvalues is not a numeric vector", (2,)),
    "delta-values": (lambda v: DeltaSpectrum(v, 1e-12), "delta values is not a numeric vector",
                     (2,)),
    "scores": (lambda v: ScoredTrials(v, [True, False]), "scores is not a numeric vector", (2,)),
    "between-variances": (lambda v: _config(between=v),
                          "between_variances is not a numeric vector", (2,)),
    "within-variances": (lambda v: _config(within=v),
                         "within_variances is not a numeric vector", (2,)),
    "cosine-first": (lambda v: cosine(v, [1.0, 0.0]), "cosine operand is not a numeric vector",
                     (2,)),
    "cosine-second": (lambda v: cosine([1.0, 0.0], v), "cosine operand is not a numeric vector",
                      (2,)),
    "covariance": (covariance, "observations is not a numeric matrix", (2, 2)),
    "eig-sym": (eig_sym, "matrix is not a numeric matrix", (2, 2)),
    "project": (lambda v: project(SPACE, v), "embedding is not a numeric vector", (2,)),
    "reconstruct": (lambda v: reconstruct(SPACE, v), "coefficients is not a numeric vector",
                    (2,)),
    "modify": (lambda v: modify(SPACE, v, SubspaceSpec(1, 1, "+")),
               "embedding is not a numeric vector", (2,)),
    "score-models": (lambda v: score_trials({"a": v}, SET, TRIALS),
                     "enrollment models is not a numeric matrix", (2,)),
}


def _nested(value):
    """Nested Python lists of ``value`` in a given shape."""
    return lambda shape: np.full(shape, value, dtype=object).tolist()


# each dtype kind the rule rejects: a maker of values of a given shape, and
# the dtype as the message prints it
ZOO = {
    "bool": (_nested(True), "bool"),
    "complex": (_nested(1 + 1j), "complex128"),
    "str": (_nested("1"), "<U1"),
    "bytes": (_nested(b"1"), "|S1"),
    "int-past-int64": (_nested(10**400), "object"),
    "fraction": (_nested(Fraction(1, 3)), "object"),
    "none": (_nested(None), "object"),
    "datetime": (lambda shape: np.zeros(shape, "datetime64[D]"), "datetime64[D]"),
    "timedelta": (lambda shape: np.ones(shape, "timedelta64[s]"), "timedelta64[s]"),
    "void": (lambda shape: np.zeros(shape, "V8"), "|V8"),
}
TABLE = {
    f"{site}-{kind}": (call, f"{prefix}: dtype {dtype}", make(shape))
    for site, (call, prefix, shape) in SITES.items()
    for kind, (make, dtype) in ZOO.items()
}


@pytest.mark.parametrize("call, message, values", TABLE.values(), ids=TABLE.keys())
def test_every_array_argument_follows_the_rule(call, message, values):
    assert_raises_exactly(lambda: call(values), DataError, message)


# each real-number argument as a function of its value
REAL_SITES = {
    "floor-epsilon": (lambda v: DeltaSpectrum([-0.5, -0.25], v), "floor epsilon"),
    "oscillation-tolerance": (
        lambda v: detect_turning(DeltaSpectrum([-0.5, -0.25], 1e-12), oscillation_tol=v),
        "oscillation tolerance",
    ),
    "eer-percent": (lambda v: SweepRow("primary", 1, 2, "+", v, 3, 4), "eer_percent"),
}
# numbers.Real admits a Fraction, and numpy counts a timedelta as an integer
REAL_ZOO = {"fraction": Fraction(1, 3), "timedelta": np.timedelta64(5)}
REAL_TABLE = {
    f"{site}-{kind}": (call, f"{name} must be a real number, got {value!r}", value)
    for site, (call, name) in REAL_SITES.items()
    for kind, value in REAL_ZOO.items()
}


@pytest.mark.parametrize("call, message, value", REAL_TABLE.values(), ids=REAL_TABLE.keys())
def test_every_real_argument_follows_the_rule(call, message, value):
    assert_raises_exactly(lambda: call(value), DataError, message)


@pytest.mark.parametrize("values", [
    [[1, 2]], np.array([[1, 2]], np.uint8), np.array([[1, 2]], np.float32),
    np.array([[1, 2]], np.longdouble),
], ids=["int-list", "uint8", "float32", "longdouble"])
def test_integer_and_float_dtypes_become_float64(values):
    arr = as_array(values, "x", 2)
    assert arr.dtype == np.float64 and arr.tolist() == [[1.0, 2.0]]


def test_a_longdouble_past_float64_is_non_finite():
    values = np.array([[np.longdouble("1e400"), 1.0]])
    assert_raises_exactly(lambda: as_array(values, "x", 2), DataError,
                          "x contains a non-finite entry")
