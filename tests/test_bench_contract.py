"""The benchmark's traced mode binds varispace functions and their parameter
names (``perfbench/spans.py``, ``TARGETS``). A tiny pipeline runs through
every target under its ``Tracer``, so renaming a bound function or
parameter fails here and not only in a traced benchmark run."""

import importlib.util
from pathlib import Path

import varispace as vs

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"

CONFIG = """\
n_speakers=4
utts_per_speaker=5
dim=16
between=0.9x4,0.0x12
within=0.1x16
seed=11
"""


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _pipeline(tmp_path):
    """Every target once, called through the package attributes that the
    tracer replaces."""
    emb = vs.generate(vs.parse_population_config(CONFIG))
    vs.save_embeddings(emb, tmp_path / "emb.csv")
    emb = vs.load_embeddings(tmp_path / "emb.csv")
    space = vs.fit(emb)
    vs.save_space(space, tmp_path / "space.vsp")
    space = vs.load_space(tmp_path / "space.vsp")
    vs.detect_turning(vs.delta_spectrum(space))
    modified = vs.modify_batch(space, emb, vs.SubspaceSpec(1, 2, "+"))
    vs.save_trials(vs.make_trials(emb, 10, seed=3), tmp_path / "trials.txt")
    trials = vs.load_trials(tmp_path / "trials.txt")
    enrollments = {s: vs.build_enrollment(modified, s) for s in modified.speakers()}
    vs.compute_eer(vs.score_trials(enrollments, modified, trials))
    vs.run_sweep(space, emb, trials, "primary", [0, 2])


def test_every_target_records_a_span_with_its_sizes(tmp_path):
    spans = _load_spans()
    original = vs.fit
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert vs.fit is not original
        _pipeline(tmp_path)
    finally:
        tracer.uninstall()
    assert vs.fit is original
    recorded = {}
    for span in tracer.spans:
        recorded.setdefault(span["name"], []).append(span)
    for module_name, func_name, sizes in spans.TARGETS:
        name = f"{module_name}.{func_name}"
        assert name in recorded, name
        for span in recorded[name]:
            assert span["end"] >= span["start"], name
            if sizes is not None:
                assert span["attrs"], name
                assert all(value >= 0 for value in span["attrs"].values()), (name, span)
    assert recorded["linalg.covariance"][0]["attrs"] == {"rows": 20}
    assert recorded["scoring.run_sweep"][0]["attrs"] == {"rows": 2}

