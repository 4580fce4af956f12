"""In-memory span recorder for the benchmark's traced runs.

A span records a name, start and end (``time.perf_counter``, a system-wide
monotonic clock, so spans written by CLI child processes line up with the
parent's), the span that was open when it started, and size attributes.

``Tracer.install`` replaces the batch-level public functions of varispace
with recording wrappers in every loaded ``varispace`` module that binds
them, so calls made inside the package (``fit`` -> ``eig_sym``,
``run_sweep`` -> ``modify_batch``) are recorded too. Per-row functions
(``modify``, ``project``, ``cosine``) are left alone: wrapping them would
swamp the operations being measured.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from contextlib import contextmanager

import numpy as np


def _file_bytes(param):
    def sizes(bound, result):
        return {"bytes": os.path.getsize(bound.arguments[param])}
    return sizes


def _rows(bound, result):
    return {"rows": len(result)}


def _eig_diagnostics(bound, result):
    matrix = np.asarray(bound.arguments["matrix"], dtype=np.float64)
    basis, lam = result
    d = lam.size
    return {
        "d": d,
        "residual": float(np.max(np.abs(matrix @ basis - basis * lam))),
        "orth_err": float(np.max(np.abs(basis.T @ basis - np.eye(d)))),
    }


# (module, function, sizes) for every wrapped layer boundary. ``sizes`` gets
# the bound call arguments and the result, and runs after the span has closed.
TARGETS = (
    ("linalg", "covariance", lambda b, r: {"rows": len(b.arguments["vectors"])}),
    ("linalg", "eig_sym", _eig_diagnostics),
    ("space", "fit", lambda b, r: {"rows": len(b.arguments["embeddings"])}),
    ("space", "save_space", None),
    ("space", "load_space", None),
    ("space", "delta_spectrum", None),
    ("space", "detect_turning", None),
    ("subspace", "modify_batch", _rows),
    ("scoring", "build_enrollment", None),
    ("scoring", "score_trials", lambda b, r: {"trials": len(r)}),
    ("scoring", "compute_eer", None),
    ("scoring", "run_sweep", lambda b, r: {"rows": len(r.rows)}),
    ("embeddings", "load_embeddings", lambda b, r: {**_file_bytes("source")(b, r), "rows": len(r)}),
    ("embeddings", "save_embeddings", _file_bytes("destination")),
    ("embeddings", "load_trials", lambda b, r: {"trials": len(r)}),
    ("synth", "generate", _rows),
    ("synth", "make_trials", lambda b, r: {"trials": len(r)}),
)


class Tracer:
    """Collects spans in memory; ``spans`` is a list of plain dicts."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._restore: list[tuple[object, str, object]] = []

    def _open(self, name: str, attrs: dict) -> dict:
        span = {
            "id": len(self.spans),
            "parent": self._stack[-1]["id"] if self._stack else None,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "attrs": attrs,
        }
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, **attrs):
        span = self._open(name, attrs)
        try:
            yield span
        finally:
            self._close(span)

    def adopt(self, child_spans: list[dict], parent: dict) -> None:
        """Attach spans recorded by another process under ``parent``."""
        offset = len(self.spans)
        for span in child_spans:
            span = dict(span)
            span["id"] += offset
            span["parent"] = parent["id"] if span["parent"] is None else span["parent"] + offset
            self.spans.append(span)

    def _wrap(self, name, fn, sizes):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name, {})
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if sizes is not None:
                span["attrs"].update(sizes(signature.bind(*args, **kwargs), result))
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every target wherever a loaded varispace module binds it."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "varispace" or n.startswith("varispace.")]
        for module_name, func_name, sizes in TARGETS:
            original = getattr(sys.modules[f"varispace.{module_name}"], func_name)
            wrapper = self._wrap(f"{module_name}.{func_name}", original, sizes)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._restore.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()
