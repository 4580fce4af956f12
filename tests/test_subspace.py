import numpy as np
import pytest

from helpers import assert_raises_exactly
from varispace import (
    DataError,
    EmbeddingSet,
    NumericalError,
    SubspaceSpec,
    VariabilitySpace,
    fit,
    modify,
    modify_batch,
    modify_batch_with_energy,
    parse_spec,
    project,
    reconstruct,
    resolve_indices,
    subspace,
)


def _identity_space(d, lam=None):
    if lam is None:
        lam = np.arange(d, 0, -1, dtype=float)
    return VariabilitySpace(mean=np.zeros(d), basis=np.eye(d), eigenvalues=np.asarray(lam, float))


def _fitted_space(rng, d):
    data = rng.standard_normal((3 * d, d)) * rng.uniform(0.2, 2.0, d)
    return fit(
        EmbeddingSet(
            tuple(f"u{i}" for i in range(3 * d)),
            tuple("s%d" % (i % 4) for i in range(3 * d)),
            data,
        )
    )


def _random_spec(rng, d):
    start = int(rng.integers(1, d + 1))
    direction = "+" if rng.integers(2) else "-"
    room = d - start + 1 if direction == "+" else start
    size = int(rng.integers(0, room + 1))
    return SubspaceSpec(start=start, size=size, direction=direction)


class TestSpecParsing:
    def test_full_form(self):
        spec = parse_spec("secondary:200:45:-")
        assert (spec.family, spec.start, spec.size, spec.direction) == (
            "secondary", 200, 45, "-",
        )

    def test_family_optional(self):
        spec = parse_spec("3:2:+")
        assert (spec.family, spec.start, spec.size, spec.direction) == ("custom", 3, 2, "+")

    @pytest.mark.parametrize(
        "text", ["", "1:2", "a:b:+", "primary:1:2:*", "x:1:2:3:+", "primary:0:2:+", "1:-1:+"]
    )
    def test_bad_specs_rejected_with_grammar_hint(self, text):
        with pytest.raises(DataError) as err:
            parse_spec(text)
        assert "<start>:<size>:<+|->" in str(err.value)


class TestResolveIndices:
    def test_forward_block(self):
        assert resolve_indices(SubspaceSpec(1, 3, "+"), 5) == (1, 2, 3)

    def test_backward_block(self):
        assert resolve_indices(SubspaceSpec(200, 45, "-"), 256) == tuple(range(156, 201))

    def test_empty_block(self):
        assert resolve_indices(SubspaceSpec(5, 0, "-"), 5) == ()

    def test_forward_overflow_names_endpoint(self):
        with pytest.raises(DataError) as err:
            resolve_indices(SubspaceSpec(1, 300, "+"), 256)
        assert "300" in str(err.value)

    def test_backward_underflow_names_endpoint(self):
        with pytest.raises(DataError) as err:
            resolve_indices(SubspaceSpec(3, 5, "-"), 8)
        assert "-1" in str(err.value)

    def test_start_beyond_dimension(self):
        with pytest.raises(DataError):
            resolve_indices(SubspaceSpec(9, 0, "+"), 8)

    def test_full_cover(self):
        assert resolve_indices(SubspaceSpec(1, 8, "+"), 8) == tuple(range(1, 9))
        assert resolve_indices(SubspaceSpec(8, 8, "-"), 8) == tuple(range(1, 9))


class TestModify:
    def test_size_zero_is_exact_identity(self):
        rng = np.random.default_rng(60)
        space = _fitted_space(rng, 6)
        x = rng.standard_normal(6)
        x[2] = -0.0
        out, removed = modify(space, x, SubspaceSpec(1, 0, "+"))
        # bit for bit, the sign of the zero included
        assert out.tobytes() == x.tobytes()
        assert not np.shares_memory(out, x)
        assert removed == 0.0

    def test_full_cover_zeroes_embedding(self):
        rng = np.random.default_rng(61)
        space = _fitted_space(rng, 5)
        x = rng.standard_normal(5)
        out, removed = modify(space, x, SubspaceSpec(1, 5, "+"))
        assert np.max(np.abs(out)) <= 1e-9
        assert removed == pytest.approx(float(x @ x), rel=1e-9)

    def test_identity_basis_hand_case(self):
        space = _identity_space(3)
        out, removed = modify(space, np.array([3.0, 4.0, 12.0]), SubspaceSpec(3, 1, "-"))
        assert np.array_equal(out, [3.0, 4.0, 0.0])
        assert type(removed) is float
        assert removed == pytest.approx(144.0)
        assert np.linalg.norm(out) == pytest.approx(5.0)

    def test_idempotent(self):
        rng = np.random.default_rng(62)
        for d in (3, 7, 12):
            space = _fitted_space(rng, d)
            spec = _random_spec(rng, d)
            x = rng.standard_normal(d) * 10
            once, _ = modify(space, x, spec)
            twice, _ = modify(space, once, spec)
            assert np.max(np.abs(twice - once)) <= 1e-9

    def test_untouched_coefficients_preserved(self):
        rng = np.random.default_rng(63)
        space = _fitted_space(rng, 9)
        spec = SubspaceSpec(4, 3, "+")
        x = rng.standard_normal(9)
        out, _ = modify(space, x, spec)
        before = project(space, x)
        after = project(space, out)
        zeroed = np.array(resolve_indices(spec, 9)) - 1
        kept = np.setdiff1d(np.arange(9), zeroed)
        assert np.max(np.abs(after[kept] - before[kept])) <= 1e-9
        assert np.max(np.abs(after[zeroed])) <= 1e-9

    def test_energy_identity(self):
        rng = np.random.default_rng(64)
        for _ in range(50):
            d = int(rng.integers(2, 14))
            space = _fitted_space(rng, d)
            spec = _random_spec(rng, d)
            x = rng.standard_normal(d) * rng.uniform(0.1, 100)
            out, removed = modify(space, x, spec)
            lhs = np.linalg.norm(x) ** 2 - np.linalg.norm(out) ** 2
            tol = 1e-9 * max(1.0, np.linalg.norm(x) ** 2)
            assert abs(lhs - removed) <= tol

    def test_disjoint_specs_commute(self):
        rng = np.random.default_rng(65)
        space = _fitted_space(rng, 10)
        first = SubspaceSpec(1, 3, "+")
        second = SubspaceSpec(10, 4, "-")
        assert not set(resolve_indices(first, 10)) & set(resolve_indices(second, 10))
        x = rng.standard_normal(10)
        ab = modify(space, modify(space, x, first)[0], second)[0]
        ba = modify(space, modify(space, x, second)[0], first)[0]
        assert np.max(np.abs(ab - ba)) <= 1e-9

    def test_norm_never_increases(self):
        rng = np.random.default_rng(66)
        for _ in range(30):
            d = int(rng.integers(2, 10))
            space = _fitted_space(rng, d)
            spec = _random_spec(rng, d)
            x = rng.standard_normal(d)
            out, _ = modify(space, x, spec)
            assert np.linalg.norm(out) <= np.linalg.norm(x) + 1e-12

    def test_out_of_range_spec_propagates(self):
        space = _identity_space(4)
        with pytest.raises(DataError):
            modify(space, np.ones(4), SubspaceSpec(1, 5, "+"))


class TestModifyBatch:
    def _batch(self, rng, n, d):
        return EmbeddingSet(
            tuple(f"u{i}" for i in range(n)),
            tuple(f"s{i % 3}" for i in range(n)),
            rng.standard_normal((n, d)),
        )

    def test_batch_of_one_equals_single(self):
        rng = np.random.default_rng(68)
        space = _fitted_space(rng, 4)
        batch = self._batch(rng, 1, 4)
        spec = SubspaceSpec(2, 2, "+")
        out = modify_batch(space, batch, spec)
        single, _ = modify(space, batch.vectors[0], spec)
        assert np.array_equal(out.vectors[0], single)

    def test_size_zero_returns_equal_set(self):
        rng = np.random.default_rng(69)
        space = _fitted_space(rng, 5)
        base = self._batch(rng, 7, 5)
        # negative zeros in place of the negative entries
        signed_zeros = np.where(base.vectors > 0, base.vectors, -0.0)
        batch = EmbeddingSet(base.utt_ids, base.spk_ids, signed_zeros)
        out = modify_batch(space, batch, SubspaceSpec(1, 0, "+"))
        assert out.vectors.tobytes() == batch.vectors.tobytes()
        assert out.utt_ids == batch.utt_ids
        assert out.spk_ids == batch.spk_ids

    def test_elementwise_agreement(self):
        rng = np.random.default_rng(70)
        space = _fitted_space(rng, 16)
        batch = self._batch(rng, 10, 16)
        spec = SubspaceSpec(12, 5, "-")
        out, removed = modify_batch_with_energy(space, batch, spec)
        assert removed.shape == (10,)
        assert np.array_equal(out.vectors, modify_batch(space, batch, spec).vectors)
        for i in range(10):
            single, energy = modify(space, batch.vectors[i], spec)
            assert np.max(np.abs(out.vectors[i] - single)) <= 1e-12
            assert removed[i] == energy

    @pytest.mark.parametrize("size", [0, 3])
    def test_result_keeps_the_kernel_rows_and_the_lookups(self, size, monkeypatch):
        rng = np.random.default_rng(72)
        space = _fitted_space(rng, 6)
        batch = self._batch(rng, 9, 6)
        made = []
        kernel = subspace._remove_block

        def spy(*args):
            rows, removed = kernel(*args)
            made.append(rows)
            return rows, removed

        monkeypatch.setattr(subspace, "_remove_block", spy)
        out = modify_batch(space, batch, SubspaceSpec(2, size, "+"))
        # the set keeps the kernel's rows, read-only, without a copy
        assert out.vectors is made[0]
        assert not out.vectors.flags.writeable and out.vectors.flags.owndata
        assert not np.shares_memory(out.vectors, batch.vectors)
        assert (out.utt_ids, out.spk_ids) == (batch.utt_ids, batch.spk_ids)
        assert out.speakers() == batch.speakers()
        names = list(batch.utt_ids) + ["nope"]
        assert out.rows_of(batch.utt_ids).tolist() == list(range(9))
        assert out.rows_of(names).tolist() == batch.rows_of(names).tolist()
        for spk in batch.speakers() + ("nope",):
            assert out.speaker_rows(spk).tolist() == batch.speaker_rows(spk).tolist()

    def test_dimension_mismatch_message(self):
        # every row shares the dimension, so the message names no row
        rng = np.random.default_rng(71)
        space = _fitted_space(rng, 4)
        batch = self._batch(rng, 3, 5)
        for call in (modify_batch, modify_batch_with_energy):
            assert_raises_exactly(
                lambda: call(space, batch, SubspaceSpec(1, 1, "+")),
                DataError, "embedding dimension 5 != space dimension 4",
            )


class TestOverflow:
    def _rotated_space(self):
        basis = np.array([[0.6, -0.8], [0.8, 0.6]])
        return VariabilitySpace(mean=np.zeros(2), basis=basis, eigenvalues=[2.0, 1.0])

    def test_modify_report(self):
        with pytest.raises(NumericalError, match="removed energy overflows float64"):
            modify(_identity_space(2), [1e200, -1e200], SubspaceSpec(1, 1, "+"))

    def test_large_kept_coefficient_is_not_an_overflow(self):
        # the kept coefficient's square overflows, but nothing computes it
        out, removed = modify(_identity_space(2), [1.0, 1e200], SubspaceSpec(1, 1, "+"))
        assert (out.tolist(), removed) == ([0.0, 1e200], 1.0)

    def test_batch_report(self):
        batch = EmbeddingSet(("u1", "u2"), ("a", "a"), [[1e200, -1e200], [1.0, 2.0]])
        with pytest.raises(NumericalError, match="removed energy overflows float64"):
            modify_batch_with_energy(_identity_space(2), batch, SubspaceSpec(1, 1, "+"))
        # the kernel checks the energy, so the set-only call fails the same way
        with pytest.raises(NumericalError, match="removed energy overflows float64"):
            modify_batch(_identity_space(2), batch, SubspaceSpec(1, 1, "+"))

    @pytest.mark.parametrize("call", [modify, lambda space, x, spec: modify_batch(
        space, EmbeddingSet(("u",), ("a",), [x]), spec)], ids=["modify", "modify_batch"])
    def test_modified_rows(self, call):
        with pytest.raises(NumericalError, match="modified embeddings overflow"):
            call(self._rotated_space(), [1.7e308, -1.7e308], SubspaceSpec(1, 1, "+"))

    @pytest.mark.parametrize("call", [project, reconstruct])
    def test_projection_near_the_largest_float(self, call):
        with pytest.raises(NumericalError, match="overflows float64"):
            call(self._rotated_space(), [1.7e308, 1.7e308])


class TestSpecValidation:
    def test_negative_size(self):
        with pytest.raises(DataError):
            SubspaceSpec(1, -1, "+")

    def test_zero_start(self):
        with pytest.raises(DataError):
            SubspaceSpec(0, 1, "+")

    def test_bad_direction(self):
        with pytest.raises(DataError):
            SubspaceSpec(1, 1, "forward")

    def test_bad_family(self):
        with pytest.raises(DataError):
            SubspaceSpec(1, 1, "+", family="tertiary")

    def test_text_round_trip(self):
        spec = SubspaceSpec(200, 45, "-", family="secondary")
        assert parse_spec(str(spec)) == spec


# each raise branch no other test reaches: the call, its error, its message
RAISES = {
    "resolve-dim-below-one": (lambda: resolve_indices(SubspaceSpec(1, 1, "+"), 0), DataError,
                              "dimension must be >= 1, got 0"),
}


@pytest.mark.parametrize("call, error, message", RAISES.values(), ids=RAISES.keys())
def test_raise_branch_message(call, error, message):
    assert_raises_exactly(call, error, message)
