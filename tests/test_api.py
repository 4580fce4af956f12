"""The package's public surface: its exports, and the integer and real
arguments that reject other values instead of truncating them or failing
inside numpy."""

import inspect
from functools import partial

import numpy as np
import pytest

from helpers import assert_raises_exactly
import varispace
from varispace import (
    CounterRng,
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
    delta_spectrum,
    detect_turning,
    fit,
    make_trials,
    resolve_indices,
    run_sweep,
)


def test_every_export_resolves():
    for name in varispace.__all__:
        assert hasattr(varispace, name), name
    assert len(set(varispace.__all__)) == len(varispace.__all__)


def test_every_imported_public_name_is_exported():
    imported = {
        name
        for name, value in vars(varispace).items()
        if not name.startswith("_")
        and (inspect.isclass(value) or inspect.isfunction(value))
        and value.__module__.startswith("varispace.")
    }
    assert imported - set(varispace.__all__) == set()


def _population():
    rng = np.random.default_rng(5)
    n, d = 24, 6
    emb = EmbeddingSet(
        [f"u{i}" for i in range(n)], [f"s{i % 4}" for i in range(n)], rng.standard_normal((n, d))
    )
    trials = TrialList((Trial("s0", "u0", True), Trial("s1", "u0", False)))
    return emb, fit(emb), trials


def _config(**changes):
    fields = dict(n_speakers=2, utts_per_speaker=2, dim=2, between_variances=[1.0, 1.0],
                  within_variances=[0.1, 0.1], seed=1)
    return PopulationConfig(**{**fields, **changes})


EMB, SPACE, TRIALS = _population()

NON_INTEGER_CALLS = {
    "run_sweep-k": lambda: run_sweep(SPACE, EMB, TRIALS, "primary", [1.7]),
    "run_sweep-turning": lambda: run_sweep(SPACE, EMB, TRIALS, "secondary", [1], turning_dim=2.5),
    "spec-start-float": lambda: SubspaceSpec(1.5, 1, "+"),
    "spec-start-str": lambda: SubspaceSpec("1", 1, "+"),
    "spec-size-float": lambda: SubspaceSpec(1, 1.0, "+"),
    "resolve-dim": lambda: resolve_indices(SubspaceSpec(1, 1, "+"), 6.0),
    "make_trials-count": lambda: make_trials(EMB, 2.5, seed=1),
    "make_trials-seed": lambda: make_trials(EMB, 2, seed=1.5),
    "detect_turning-window": lambda: detect_turning(delta_spectrum(SPACE), window=2.5),
    "rng-seed": lambda: CounterRng("7"),
    "rng-draws": lambda: CounterRng(7).raw(2.5),
    "config-n_speakers": lambda: _config(n_speakers=2.0),
    "config-seed": lambda: _config(seed=1.5),
    "sweep_row-size": lambda: SweepRow("primary", 1, 2.5, "+", 10.0, 3, 4),
}
# each integer argument as a function of its value; a bool is not an integer
INTEGER_ARGUMENTS = {
    "run_sweep-k": lambda v: run_sweep(SPACE, EMB, TRIALS, "primary", [v]),
    "run_sweep-turning": lambda v: run_sweep(SPACE, EMB, TRIALS, "secondary", [1], turning_dim=v),
    "spec-start": lambda v: SubspaceSpec(v, 1, "+"),
    "spec-size": lambda v: SubspaceSpec(1, v, "+"),
    "resolve-dim": lambda v: resolve_indices(SubspaceSpec(1, 1, "+"), v),
    "make_trials-count": lambda v: make_trials(EMB, v, seed=1),
    "make_trials-seed": lambda v: make_trials(EMB, 2, seed=v),
    "detect_turning-window": lambda v: detect_turning(delta_spectrum(SPACE), window=v),
    "rng-seed": lambda v: CounterRng(v),
    "rng-draws": lambda v: CounterRng(7).raw(v),
    "rng-gaussians": lambda v: CounterRng(7).gaussians(v),
    "config-n_speakers": lambda v: _config(n_speakers=v),
    "config-utts_per_speaker": lambda v: _config(utts_per_speaker=v),
    "config-dim": lambda v: _config(dim=v),
    "config-seed": lambda v: _config(seed=v),
    "sweep_row-start": lambda v: SweepRow("primary", v, 2, "+", 10.0, 3, 4),
    "sweep_row-size": lambda v: SweepRow("primary", 1, v, "+", 10.0, 3, 4),
    "sweep_row-n_target": lambda v: SweepRow("primary", 1, 2, "+", 10.0, v, 4),
    "sweep_row-n_nontarget": lambda v: SweepRow("primary", 1, 2, "+", 10.0, 3, v),
}
NON_INTEGER_CALLS.update(
    (f"{name}-{label}", partial(call, value))
    for name, call in INTEGER_ARGUMENTS.items()
    for label, value in (("True", True), ("np.True_", np.True_))
)


@pytest.mark.parametrize("call", NON_INTEGER_CALLS.values(), ids=NON_INTEGER_CALLS.keys())
def test_non_integer_argument_is_a_data_error(call):
    with pytest.raises(DataError, match="must be an integer, got"):
        call()


# each integer argument one below its least value, and the exact message
BELOW_LEAST = {
    "run_sweep-k": (lambda: run_sweep(SPACE, EMB, TRIALS, "primary", [-1]),
                    "size -1 unresolvable: subspace size must be >= 0, got -1"),
    "spec-start": (lambda: SubspaceSpec(0, 1, "+"), "subspace start must be >= 1, got 0"),
    "spec-size": (lambda: SubspaceSpec(1, -1, "+"), "subspace size must be >= 0, got -1"),
    "resolve-dim": (lambda: resolve_indices(SubspaceSpec(1, 1, "+"), 0),
                    "dimension must be >= 1, got 0"),
    "make_trials-count": (lambda: make_trials(EMB, 0, seed=1),
                          "nontarget count must be >= 1, got 0"),
    "detect_turning-window": (lambda: detect_turning(delta_spectrum(SPACE), window=0),
                              "window must be >= 1, got 0"),
    "rng-draws": (lambda: CounterRng(7).raw(-1), "draw count must be >= 0, got -1"),
    "rng-gaussians": (lambda: CounterRng(7).gaussians(-1), "draw count must be >= 0, got -1"),
    "config-n_speakers": (lambda: _config(n_speakers=0), "n_speakers must be >= 1, got 0"),
    "config-utts_per_speaker": (lambda: _config(utts_per_speaker=0),
                                "utts_per_speaker must be >= 1, got 0"),
    "config-dim": (lambda: _config(dim=0), "dim must be >= 1, got 0"),
    "sweep_row-n_target": (lambda: SweepRow("primary", 1, 2, "+", 10.0, -1, 4),
                           "n_target must be >= 0, got -1"),
    "sweep_row-n_nontarget": (lambda: SweepRow("primary", 1, 2, "+", 10.0, 3, -1),
                              "n_nontarget must be >= 0, got -1"),
    # each field's range is checked as that field is converted
    "spec-start-before-size": (lambda: SubspaceSpec(0, 2.5, "+"),
                               "subspace start must be >= 1, got 0"),
    "config-n_speakers-before-seed": (lambda: _config(n_speakers=0, seed="x"),
                                      "n_speakers must be >= 1, got 0"),
}


@pytest.mark.parametrize("call, message", BELOW_LEAST.values(), ids=BELOW_LEAST.keys())
def test_integer_below_its_least_value_is_a_data_error(call, message):
    assert_raises_exactly(call, DataError, message)


def test_numpy_integers_are_integers():
    spec = SubspaceSpec(np.int64(2), np.uint8(1), "+")
    assert (type(spec.start), type(spec.size)) == (int, int)
    assert resolve_indices(spec, np.int32(6)) == (2,)
    rows = run_sweep(SPACE, EMB, TRIALS, "primary", np.arange(2)).rows
    assert [(type(row.size), row.size) for row in rows] == [(int, 0), (int, 1)]


NON_REAL_CALLS = {
    "detect_turning-tol-str": lambda: detect_turning(delta_spectrum(SPACE), oscillation_tol="a"),
    "detect_turning-tol-bool": lambda: detect_turning(delta_spectrum(SPACE), oscillation_tol=True),
    "delta_spectrum-floor-str": lambda: DeltaSpectrum([-0.5, -0.25], "x"),
    "delta_spectrum-floor-none": lambda: DeltaSpectrum([-0.5, -0.25], None),
    "sweep_row-eer-str": lambda: SweepRow("primary", 1, 2, "+", "10", 3, 4),
}


@pytest.mark.parametrize("call", NON_REAL_CALLS.values(), ids=NON_REAL_CALLS.keys())
def test_non_real_argument_is_a_data_error(call):
    with pytest.raises(DataError, match="must be a real number, got"):
        call()


@pytest.mark.parametrize("value", [float("nan"), float("inf"), 10**400])
def test_non_finite_real_argument_is_a_data_error(value):
    with pytest.raises(DataError, match="oscillation tolerance must be finite, got"):
        detect_turning(delta_spectrum(SPACE), oscillation_tol=value)


def test_numpy_floats_are_reals():
    deltas = DeltaSpectrum([-0.5, -0.25], np.float64(1e-12))
    assert type(deltas.floor_epsilon) is float and deltas.floor_epsilon == 1e-12
    spectrum = delta_spectrum(SPACE)
    assert detect_turning(spectrum, window=2, oscillation_tol=np.float32(0.25)) == detect_turning(
        spectrum, window=2, oscillation_tol=0.25
    )


# values that hold float or bool arrays: each call builds a new one, equal in content
ARRAY_HOLDERS = {
    "EmbeddingSet": lambda: EmbeddingSet(EMB.utt_ids, EMB.spk_ids, EMB.vectors),
    "VariabilitySpace": lambda: VariabilitySpace(SPACE.mean, SPACE.basis, SPACE.eigenvalues),
    "DeltaSpectrum": lambda: DeltaSpectrum([-0.5, -0.25], 1e-12),
    "ScoredTrials": lambda: ScoredTrials([0.5, -0.5], [True, False]),
    "PopulationConfig": _config,
}


@pytest.mark.parametrize("build", ARRAY_HOLDERS.values(), ids=ARRAY_HOLDERS.keys())
def test_array_holding_values_compare_by_identity(build):
    a, b = build(), build()
    assert a == a
    assert a != b
    assert len({a, b, a}) == 2
