import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from opframe.errors import EmptySpan, InvalidDimension
from opframe.hilbert import (
    HilbertModel,
    Subspace,
    interval_grid,
    l2_truncation,
    orthonormalize,
    window_grid,
)

from conftest import random_matrix, random_vector, random_weighted_model, violation


class TestInner:
    """The HilbertModel weight checks that ``inner`` relies on; the oracle's self-tests are in
    test_oracles.py."""

    def test_weights_must_be_positive(self):
        with pytest.raises(InvalidDimension):
            HilbertModel(2, [1.0, 0.0])

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_weights_must_be_finite(self, bad):
        with pytest.raises(InvalidDimension):
            HilbertModel(2, [1.0, bad])


class TestIntervalGrid:
    @pytest.mark.parametrize("x0, x1", [(1.0, 0.0), (0.5, 0.5), (0.0, np.nan)])
    def test_reversed_or_empty_interval_is_refused_naming_x1(self, x0, x1):
        with pytest.raises(InvalidDimension, match="'x1'"):
            interval_grid(8, x0, x1)

    @pytest.mark.parametrize("x0, x1", [(1.0, 1.00000000000001), (1e15, 1e15 + 1),
                                        (-1e308, 1e308)])
    def test_collapsing_nodes_or_an_overflowing_step_are_refused_naming_x1(self, x0, x1):
        with pytest.raises(InvalidDimension, match="'x1'"):
            interval_grid(256, x0, x1)
        with pytest.raises(InvalidDimension, match="'x1'"):
            window_grid(256, x0, x1)


class TestOrthonormalize:
    def test_identity_columns_unchanged(self):
        m = l2_truncation(3)
        sub = orthonormalize(np.eye(3, dtype=complex), m)
        np.testing.assert_allclose(sub.basis, np.eye(3), atol=1e-14)

    def test_two_vector_gram_schmidt(self):
        m = l2_truncation(2)
        sub = orthonormalize(np.array([[1, 1], [0, 1]], dtype=complex), m)
        np.testing.assert_allclose(sub.basis, np.eye(2), atol=1e-14)

    def test_rank_deficient_reduced(self):
        m = l2_truncation(2)
        sub = orthonormalize(np.array([[1, 2], [0, 0]], dtype=complex), m)
        assert sub.rank == 1
        np.testing.assert_allclose(sub.basis[:, 0], [1, 0], atol=1e-14)

    def test_all_zero_raises(self):
        m = l2_truncation(2)
        with pytest.raises(EmptySpan):
            orthonormalize(np.zeros((2, 2)), m)

    def test_weighted_orthonormality(self, rng):
        m = random_weighted_model(rng, 8)
        sub = orthonormalize(random_matrix(rng, 8, 5), m)
        w = m.weights
        gram = sub.basis.conj().T @ (w[:, None] * sub.basis)
        np.testing.assert_allclose(gram, np.eye(5), atol=1e-10)

    def test_idempotent(self, rng):
        m = random_weighted_model(rng, 8)
        first = orthonormalize(random_matrix(rng, 8, 4), m)
        second = orthonormalize(first.basis, m)
        np.testing.assert_allclose(second.basis, first.basis, atol=1e-10)

    @settings(max_examples=40, deadline=None)
    @given(d=st.integers(1, 24), cols=st.integers(1, 12), dependent=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    @example(d=11, cols=11, dependent=False, seed=927120179)  # 1.87e-14 apart at kappa 218
    def test_real_input_gets_a_real_basis(self, d, cols, dependent, seed):
        """Real QRs for real vectors, with the drop rule and Gram-Schmidt's signs of the complex
        path (a dependent column exercises the drop).  The two bases are Householder QRs of the
        same k kept columns A = W^(1/2) V[:, :k], rounded apart: each is exact for A + dA with
        ||dA||_F <= d k eps ||A||_F <= d k eps sqrt(k) ||A||_2, and to first order
        ||dQ||_F <= sqrt2 kappa_2(A) ||dA||_F / ||A||_2 (Sun's QR perturbation bound), so they
        differ by at most twice that, times max 1 / sqrt(w) for the basis V = W^(-1/2) Q."""
        r = np.random.default_rng(seed)
        m = random_weighted_model(r, d)
        v = r.standard_normal((d, cols))
        if dependent and cols > 1:
            v[:, -1] = v[:, 0] - 2.0 * v[:, -2]
        real, cplx = orthonormalize(v, m), orthonormalize(v.astype(complex), m)
        assert real.basis.dtype == np.float64 and cplx.basis.dtype == np.complex128
        assert real.rank == cplx.rank
        k = real.rank
        kappa = np.linalg.cond(m.sqrt_weights[:, None] * v[:, :k])
        bound = 2 * np.sqrt(2) * kappa * d * k * np.sqrt(k) * np.finfo(float).eps
        assert np.max(np.abs(real.basis - cplx.basis)) <= bound / np.min(m.sqrt_weights)
        assert orthonormalize(np.arange(1, d + 1), m).basis.dtype == np.float64


def _gram_schmidt(vectors, model, drop_tol=1e-10):
    """The reference basis: Gram-Schmidt with two projection sweeps, one column
    at a time, dropping each column whose residual is below drop_tol times the
    largest input column norm."""
    v = np.asarray(vectors, dtype=complex)
    w = model.weights
    scale = max((float(np.sqrt(np.sum(w * np.abs(v[:, j]) ** 2))) for j in range(v.shape[1])),
                default=0.0)
    if scale <= 0.0:
        raise EmptySpan("all input columns are zero")
    kept = []
    for j in range(v.shape[1]):
        x = v[:, j].copy()
        for _ in range(2):
            for q in kept:
                x = x - q * np.sum(w * x * np.conj(q))
        nx = float(np.sqrt(np.sum(w * np.abs(x) ** 2)))
        if nx >= drop_tol * scale:
            kept.append(x / nx)
    if not kept:
        raise EmptySpan("input columns are numerically zero")
    return np.column_stack(kept)


def _planned_columns(rng, d, plan):
    """d x len(plan): "new" is the next of d well-conditioned columns (a random
    one once they are used up), "dep" a combination of the "new" columns so
    far (zero before the first), "zero" a zero column."""
    u, _ = np.linalg.qr(random_matrix(rng, d, d))
    pool = u @ (np.eye(d) + 0.2 * random_matrix(rng, d, d) / np.sqrt(d))  # kappa below 4
    cols, used = [], 0
    for kind in plan:
        if kind == "new":
            cols.append(pool[:, used] if used < d else random_matrix(rng, d, 1)[:, 0])
            used += 1
        elif kind == "dep" and used:
            cols.append(pool[:, :min(used, d)] @ random_matrix(rng, min(used, d), 1)[:, 0])
        else:
            cols.append(np.zeros(d, dtype=complex))
    return np.column_stack(cols)


class TestOrthonormalizeAgainstGramSchmidt:
    @settings(max_examples=60, deadline=None)
    @given(d=st.integers(1, 12), weighted=st.booleans(), seed=st.integers(0, 2**32 - 1),
           plan=st.lists(st.sampled_from(["new", "dep", "zero"]), min_size=1, max_size=20))
    def test_matches_the_reference(self, d, weighted, seed, plan):
        rng = np.random.default_rng(seed)
        model = random_weighted_model(rng, d) if weighted else l2_truncation(d)
        v = _planned_columns(rng, d, plan)
        try:
            expected = _gram_schmidt(v, model)
        except EmptySpan:
            with pytest.raises(EmptySpan):
                orthonormalize(v, model)
            return
        basis = orthonormalize(v, model).basis
        assert basis.shape == expected.shape == (d, min(d, plan.count("new")))
        assert np.max(np.abs(basis - expected)) <= 1e-12

    def test_a_dropped_column_between_two_kept_ones(self, rng):
        # the QR's direction for the dropped copy of e_0 is e_1, which would
        # absorb the third column if every small residual dropped at once
        m = random_weighted_model(rng, 3)
        v = np.array([[1, 1, 0], [0, 0, 1], [0, 0, 0]], dtype=complex)
        basis = orthonormalize(v, m).basis
        np.testing.assert_allclose(basis, _gram_schmidt(v, m), rtol=0, atol=1e-12)
        assert basis.shape == (3, 2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_is_refused(self, rng, bad):
        v = random_matrix(rng, 6, 3)
        v[4, 1] = bad
        with pytest.raises(InvalidDimension):
            orthonormalize(v, random_weighted_model(rng, 6))

    def test_dense_drops_qr_each_column_about_twice(self, rng, linalg_calls):
        # each column followed by its copy: refactoring every column after each drop would
        # QR 6240 columns at d = 128
        d = 128
        m = random_weighted_model(rng, d)
        v = np.repeat(random_matrix(rng, d, d // 2), 2, axis=1)
        calls = linalg_calls("qr")
        basis = orthonormalize(v, m).basis
        assert sum(args[0].shape[1] for args, _ in calls) <= 2 * d
        np.testing.assert_allclose(basis, _gram_schmidt(v, m), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("shape", [(24, 10), (6, 9)])
    def test_full_rank_input_takes_one_qr(self, rng, linalg_calls, shape):
        m = random_weighted_model(rng, shape[0])
        v = random_matrix(rng, *shape)
        calls = linalg_calls("qr")
        assert orthonormalize(v, m).rank == min(shape)
        assert len(calls) == 1


class TestSubspace:
    def test_full_subspace_is_cheap_identity(self, rng):
        m = l2_truncation(5)
        sub = Subspace.full(m)
        f = random_vector(rng, 5)
        np.testing.assert_allclose(sub.project(f), f)
        assert violation(sub, f) == 0.0
        assert sub.rank == 5

    def test_coords_and_project_leave_a_real_basis_unchanged(self, rng):
        # conj() of a real array is the array itself, so weighting it in place would scale it
        m = random_weighted_model(rng, 6)
        sub = Subspace(m, orthonormalize(rng.standard_normal((6, 3)), m).basis.real.copy())
        before = sub.basis.copy()
        for f in (random_matrix(rng, 6, 2), rng.standard_normal((6, 2)), random_vector(rng, 6)):
            inside = sub.basis @ sub.coords(f)
            np.testing.assert_allclose(sub.project(inside), inside, atol=1e-13)
        assert sub.basis.dtype == np.float64 and sub.basis.tobytes() == before.tobytes()
        assert sub.coords(rng.standard_normal((6, 2))).dtype == np.float64
