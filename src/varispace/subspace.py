"""Subspace specifications and pseudo-speaker embedding modification.

A subspace is a contiguous block of basis dimensions named by a 1-based
start index, a size, and a span direction. Modification zeroes the
embedding's coefficients inside the block: with the block's orthonormal
basis columns ``B_S``, it subtracts ``(x B_S) B_S^T``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .embeddings import EmbeddingSet
from .errors import DataError
from .linalg import as_array, as_int, check_finite, parse_int
from .space import VariabilitySpace

FORWARD = "+"
BACKWARD = "-"
SWEEP_FAMILIES = ("primary", "secondary", "residual")
FAMILIES = (*SWEEP_FAMILIES, "custom")

_SPEC_GRAMMAR = "[family:]<start>:<size>:<+|->"


@dataclass(frozen=True)
class SubspaceSpec:
    """Block of basis dimensions: ``size`` dimensions from ``start``
    (1-based) in the given direction. ``family`` is metadata only."""

    start: int
    size: int
    direction: str
    family: str = "custom"

    def __post_init__(self):
        object.__setattr__(self, "start", as_int(self.start, "subspace start", 1))
        object.__setattr__(self, "size", as_int(self.size, "subspace size", 0))
        if self.direction not in (FORWARD, BACKWARD):
            raise DataError(f"subspace direction must be '+' or '-', got '{self.direction}'")
        if self.family not in FAMILIES:
            raise DataError(f"unknown subspace family '{self.family}'")

    def __str__(self) -> str:
        return f"{self.family}:{self.start}:{self.size}:{self.direction}"


def parse_spec(text: str) -> SubspaceSpec:
    """Parse the CLI/config form ``[family:]<start>:<size>:<+|->``."""
    parts = text.split(":")
    if len(parts) == 3:
        family, rest = "custom", parts
    elif len(parts) == 4:
        family, rest = parts[0], parts[1:]
    else:
        raise DataError(f"bad subspace spec '{text}': expected {_SPEC_GRAMMAR}")
    try:
        start, size = parse_int(rest[0], "subspace start"), parse_int(rest[1], "subspace size")
        return SubspaceSpec(start=start, size=size, direction=rest[2], family=family)
    except DataError as exc:
        raise DataError(f"bad subspace spec '{text}': {exc} ({_SPEC_GRAMMAR})") from None


def resolve_indices(spec: SubspaceSpec, dim: int) -> tuple[int, ...]:
    """Expand a spec into the ordered 1-based dimension indices it covers.

    Forward spans cover start..start+size-1, backward spans
    start-size+1..start. Empty for size 0.
    """
    dim = as_int(dim, "dimension", 1)
    if spec.start > dim:
        raise DataError(
            f"subspace start {spec.start} exceeds dimension {dim}"
        )
    if spec.size == 0:
        return ()
    if spec.direction == FORWARD:
        first, last = spec.start, spec.start + spec.size - 1
        if last > dim:
            raise DataError(
                f"subspace end {last} exceeds dimension {dim} "
                f"(start {spec.start}, size {spec.size}, forward)"
            )
    else:
        first, last = spec.start - spec.size + 1, spec.start
        if first < 1:
            raise DataError(
                f"subspace start {first} falls below dimension 1 "
                f"(start {spec.start}, size {spec.size}, backward)"
            )
    return tuple(range(first, last + 1))


# Finite inputs can overflow float64 in the products below; the kernel rejects
# non-finite rows and non-finite removed energies.
@np.errstate(over="ignore", invalid="ignore")
def _remove_block(
    space: VariabilitySpace, rows: np.ndarray, indices: tuple[int, ...]
) -> tuple[np.ndarray, np.ndarray]:
    """The one modification kernel: ``rows - (rows B_S) B_S^T`` for an (N, D)
    matrix, where ``B_S`` holds the basis columns at ``indices``. Returns the
    modified rows and each row's removed energy; NumericalError if either
    overflows float64. An empty block subtracts exact zeros, which returns
    the rows bit for bit."""
    block = space.basis[:, [i - 1 for i in indices]]
    # einsum sums each coefficient in the same order whatever the row count
    # (a matmul would switch between gemv and gemm), so a one-row call
    # reproduces its row of a batch call bit for bit
    coeff = np.einsum("nd,dk->nk", rows, block)
    modified = coeff @ block.T
    np.subtract(rows, modified, out=modified)
    check_finite("modified embeddings overflow float64", modified)
    removed = np.einsum("nk,nk->n", coeff, coeff)
    check_finite("removed energy overflows float64", removed)
    return modified, removed


def modify(space: VariabilitySpace, x, spec: SubspaceSpec) -> tuple[np.ndarray, float]:
    """Zero the spec's coefficients of ``x`` in the variability basis: a
    one-row call of the batch kernel behind :func:`modify_batch`.

    Returns the modified embedding, not re-normalized, and the coefficient
    energy removed. A size-0 spec returns an exact copy of the input.
    """
    indices = resolve_indices(spec, space.dim)
    vec = as_array(x, "embedding", 1)
    space.check_dim(vec.size)
    rows, removed = _remove_block(space, vec[np.newaxis], indices)
    return rows[0], float(removed[0])


def modify_batch(
    space: VariabilitySpace, embeddings: EmbeddingSet, spec: SubspaceSpec
) -> EmbeddingSet:
    """:func:`modify` applied to every row of a set at once; ids and order
    are preserved."""
    return modify_batch_with_energy(space, embeddings, spec)[0]


def modify_batch_with_energy(
    space: VariabilitySpace, embeddings: EmbeddingSet, spec: SubspaceSpec
) -> tuple[EmbeddingSet, np.ndarray]:
    """:func:`modify_batch` plus each row's removed energy."""
    indices = resolve_indices(spec, space.dim)
    space.check_dim(embeddings.dim)
    rows, removed = _remove_block(space, embeddings.vectors, indices)
    rows.setflags(write=False)  # locked and unshared: the set keeps it
    return EmbeddingSet(embeddings.utt_ids, embeddings.spk_ids, rows), removed
