import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opframe._linalg import thin_svd
from opframe.errors import GridTooCoarse, InvalidDimension, InvalidProbe
from opframe.hilbert import (
    HilbertModel, Subspace, interval_grid, l2_truncation, norm,
)
from opframe.opmodel import (
    DIFF_VARIANTS,
    OperatorModel,
    _graph_solve,
    block_multiplier,
    diagonal_operator,
    diff_operator,
    dirichlet_subspace,
    self_adjoint_gap,
)
from opframe.scenarios import CHECKS

from conftest import (
    adjoint,
    factor_of,
    graph_inner,
    identity_operator,
    inner,
    random_matrix,
    random_vector,
    random_weighted_model,
)


class TestAdjoint:
    def test_diagonal_self_adjoint(self):
        m = l2_truncation(3)
        a = diagonal_operator(m, [1, 2, 3])
        np.testing.assert_allclose(adjoint(a).matrix, a.matrix)

    def test_unit_weights_conjugate_transpose(self, rng):
        m = l2_truncation(5)
        a = OperatorModel(random_matrix(rng, 5, 5), m, m)
        np.testing.assert_allclose(adjoint(a).matrix, a.matrix.conj().T)

    def test_pairing_oracle_weighted(self, rng):
        m_in = random_weighted_model(rng, 6)
        m_out = random_weighted_model(rng, 4)
        a = OperatorModel(random_matrix(rng, 4, 6), m_in, m_out)
        astar = adjoint(a)
        for _ in range(100):
            f = random_vector(rng, 6)
            u = random_vector(rng, 4)
            lhs = inner(m_out, a.apply(f), u)
            rhs = inner(m_in, f, astar.apply(u))
            assert lhs == pytest.approx(rhs, rel=1e-11, abs=1e-11)

    def test_diff_adjoint_gets_dirichlet_domain(self):
        grid = interval_grid(64)
        a = diff_operator(grid, "minus_i_ddx_H1")
        astar = adjoint(a)
        assert astar.domain is not None
        assert astar.domain.rank == 62  # zero boundary values

    def test_double_adjoint_returns_operator(self, rng):
        m_in = random_weighted_model(rng, 5)
        m_out = random_weighted_model(rng, 5)
        a = OperatorModel(random_matrix(rng, 5, 5), m_in, m_out)
        np.testing.assert_allclose(adjoint(adjoint(a)).matrix, a.matrix, atol=1e-10)


class TestPseudoInverse:
    """The Moore-Penrose inverse is the minimum-norm factor of the identity."""

    @staticmethod
    def pinv(mat):
        mat = np.asarray(mat, dtype=complex)
        return factor_of(mat, 1e-10).solve(np.eye(mat.shape[0]))[1]

    def test_diagonal(self):
        np.testing.assert_allclose(self.pinv(np.diag([2.0, 0.0])), np.diag([0.5, 0.0]), atol=1e-14)

    def test_identity(self):
        np.testing.assert_allclose(self.pinv(np.eye(4)), np.eye(4), atol=1e-14)

    def test_rank_deficient_penrose(self, rng):
        # oracle: numpy's SVD-based pinv
        w = random_matrix(rng, 8, 3) @ random_matrix(rng, 3, 5)
        wp = self.pinv(w)
        np.testing.assert_allclose(wp, np.linalg.pinv(w), atol=1e-9)
        assert np.linalg.norm(w @ wp @ w - w) <= 1e-9 * np.linalg.norm(w)
        assert np.linalg.norm(wp @ w @ wp - wp) <= 1e-9 * np.linalg.norm(wp)
        assert np.linalg.norm(w @ wp - (w @ wp).conj().T) <= 1e-10
        assert np.linalg.norm(wp @ w - (wp @ w).conj().T) <= 1e-10

    def test_lemma_properties(self, rng):
        # N(W+) = R(W)^perp and W W+ f = f on R(W)
        w = random_matrix(rng, 7, 3) @ random_matrix(rng, 3, 5)
        wp = self.pinv(w)
        q, _ = np.linalg.qr(w)  # columns span R(W)
        u = random_vector(rng, 7)
        u_perp = u - q @ (q.conj().T @ u)
        assert np.linalg.norm(wp @ u_perp) <= 1e-9 * np.linalg.norm(u_perp)
        f = w @ random_vector(rng, 5)
        assert np.linalg.norm(w @ (wp @ f) - f) <= 1e-9 * np.linalg.norm(f)

    def test_weighted_penrose_identities(self, rng):
        # the weighted identities hold as plain ones of the whitened operator
        m_in = random_weighted_model(rng, 5)
        m_out = random_weighted_model(rng, 6)
        a = OperatorModel(random_matrix(rng, 6, 4) @ random_matrix(rng, 4, 5), m_in, m_out)
        y = a.whitened()
        yy = y @ self.pinv(y)
        np.testing.assert_allclose(yy.conj().T, yy, atol=1e-9)
        assert np.linalg.norm(yy @ y - y) <= 1e-9 * np.linalg.norm(y)

    @settings(max_examples=25, deadline=None)
    @given(
        rows=st.integers(2, 7), cols=st.integers(2, 7), seed=st.integers(0, 2**16)
    )
    def test_penrose_property(self, rows, cols, seed):
        w = random_matrix(np.random.default_rng(seed), rows, cols)
        assert np.linalg.norm(w @ self.pinv(w) @ w - w) <= 1e-9 * np.linalg.norm(w)


class TestGraphAdjoint:
    """``_graph_solve`` returns the graph-space representers k_n, with
    graph_inner(f, k_n) = x_n f on D(A), that ``a_dual_graph`` is built from."""

    def test_identity_halves(self):
        m = l2_truncation(3)
        ks = _graph_solve(identity_operator(m), np.eye(3))
        np.testing.assert_allclose(ks, 0.5 * np.eye(3), atol=1e-12)

    def test_diagonal_components(self):
        # the rows of A as functionals give the graph adjoint (I + A^H A)^-1 A^H
        a = diagonal_operator(l2_truncation(2), [0.0, 3.0])
        np.testing.assert_allclose(_graph_solve(a, a.dense()), np.diag([0.0, 0.3]), atol=1e-12)

    def test_defining_identity_random(self, rng):
        m = random_weighted_model(rng, 6)
        a = OperatorModel(random_matrix(rng, 6, 6), m, m)
        x = random_matrix(rng, 4, 6)
        ks = _graph_solve(a, x)
        for _ in range(100):
            f = random_vector(rng, 6)
            for n in range(4):
                lhs = x[n] @ f
                assert abs(graph_inner(a, f, ks[:, n]) - lhs) <= 1e-10 * max(1.0, abs(lhs))

    def test_restricted_domain_identity(self, rng):
        m = l2_truncation(5)
        dom = Subspace(m, np.eye(5, dtype=complex)[:, :3])
        a = OperatorModel(random_matrix(rng, 5, 5), m, m, domain=dom)
        x = random_matrix(rng, 4, 5)
        ks = _graph_solve(a, x)
        for _ in range(20):
            f = dom.project(random_vector(rng, 5))
            for n in range(4):
                lhs = x[n] @ f
                assert abs(graph_inner(a, f, ks[:, n]) - lhs) <= 1e-10 * max(1.0, abs(lhs))


class TestDiffOperator:
    def test_symbolic_derivative_oracle(self):
        grid = interval_grid(512)
        a = diff_operator(grid, "minus_i_ddx_H1")
        f = np.exp(2j * np.pi * grid.points)
        expected = 2 * np.pi * f  # -i d/dx e^{2 pi i x} = 2 pi e^{2 pi i x}
        err = norm(grid, a.apply(f) - expected) / norm(grid, expected)
        assert err <= 1e-3

    def test_constant_interior(self):
        grid = interval_grid(128)
        a = diff_operator(grid, "minus_i_ddx_H1")
        out = a.apply(np.ones(128))
        assert np.max(np.abs(out[1:-1])) <= 1e-10

    def test_adjoint_pairing_exact(self, rng):
        # the pairing against the weighted adjoint holds to machine precision
        grid = interval_grid(64)
        a = diff_operator(grid, "minus_i_ddx_H1")
        astar = adjoint(a)
        f = np.sin(np.pi * grid.points) ** 2
        u = astar.domain.project(np.sin(2 * np.pi * grid.points).astype(complex))
        lhs = inner(grid, a.apply(f), u)
        rhs = inner(grid, f, astar.apply(u))
        assert abs(lhs - rhs) <= 1e-6 * max(1.0, abs(lhs))

    def test_restriction_action_matches_on_interior(self):
        # same differential action, smaller domain
        grid = interval_grid(64)
        a = diff_operator(grid, "minus_i_ddx_H1")
        a0 = diff_operator(grid, "minus_i_ddx_H10")
        u = dirichlet_subspace(grid).project(
            (grid.points * (1 - grid.points)).astype(complex)
        )
        np.testing.assert_allclose(a0.apply(u), a.apply(u), atol=1e-10)

    def test_periodic_exactly_self_adjoint(self):
        grid = interval_grid(128, -8.0, 8.0)
        a = diff_operator(grid, "minus_i_ddx_periodic")
        gap = a.dense() - adjoint(a).matrix
        assert np.linalg.norm(gap) == 0.0

    @pytest.mark.parametrize(
        "variant", ["minus_i_ddx_H1", "minus_i_ddx_H10", "ddx_periodic"]
    )
    def test_self_adjoint_gap_check_matches_two_copy_oracle(self, variant):
        a = diff_operator(interval_grid(96, -2.0, 3.0), variant)
        gap = a.whitened() - adjoint(a).whitened()
        oracle = np.linalg.svd(gap, compute_uv=False)[0]
        _, check = CHECKS["self_adjoint_gap"]
        assert check({"op": a}, None) == pytest.approx(oracle, rel=1e-10)
        assert oracle > 1.0

    def test_too_coarse(self):
        with pytest.raises(GridTooCoarse):
            diff_operator(interval_grid(8), "minus_i_ddx_H1")

    def test_unknown_variant(self):
        with pytest.raises(InvalidProbe):
            diff_operator(interval_grid(64), "nonsense")


def _dense_twin(op):
    return OperatorModel(op.dense(), op.input_model, op.codomain, domain=op.domain,
                         adjoint_domain=op.adjoint_domain, name=op.name)


def _assert_close(a, b):
    np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12 * max(np.abs(b).max(), 1.0))


def _two_copy_gap(op):
    gap = op.whitened() - adjoint(op).whitened()
    return float(np.linalg.svd(gap, compute_uv=False)[0])


class TestStencil:
    @pytest.mark.parametrize("d", [16, 17, 96])
    @pytest.mark.parametrize("variant", DIFF_VARIANTS)
    def test_diff_operator_agrees_with_dense_twin(self, rng, variant, d):
        op = diff_operator(interval_grid(d, -2.0, 3.0), variant)
        twin = _dense_twin(op)
        assert op.matrix is None and op.stencil[0].shape == (d, 3)
        f = random_vector(rng, d)
        fs = random_matrix(rng, d, 4)
        _assert_close(op.apply(f), twin.apply(f))
        _assert_close(op.apply_columns(fs), twin.apply_columns(fs))
        _assert_close(op.effective_matrix(), twin.effective_matrix())
        _assert_close(op.whitened(), twin.whitened())
        _assert_close(thin_svd(op.whitened())[1], thin_svd(twin.whitened())[1])
        a_op, a_twin = adjoint(op), adjoint(twin)
        _assert_close(a_op.matrix, a_twin.matrix)
        assert (a_op.domain is None) == (a_twin.domain is None)
        assert (a_op.adjoint_domain is None) == (a_twin.adjoint_domain is None)

    def test_dense_is_a_new_array_each_call(self):
        op = diff_operator(interval_grid(16), "ddx_periodic")
        first = op.dense()
        first[:] = 0.0
        assert np.any(op.dense())

    def test_weighted_stencil_agrees_with_dense_twin(self, rng):
        # a plain-Hermitian band is not self-adjoint under non-uniform weights,
        # so a gap that skipped the whitening would read 0.0
        d = 12
        model = random_weighted_model(rng, d)
        cols = (np.arange(d)[:, None] + (-1, 0, 1)) % d
        h = random_matrix(rng, d, d)
        h = h + h.conj().T
        op = OperatorModel(None, model, model, stencil=(cols, np.take_along_axis(h, cols, 1)))
        twin = _dense_twin(op)
        fs = random_matrix(rng, d, 3)
        _assert_close(op.apply_columns(fs), twin.apply_columns(fs))
        _assert_close(op.whitened(), twin.whitened())
        gap = self_adjoint_gap(op)
        assert gap == self_adjoint_gap(twin)
        assert gap == pytest.approx(_two_copy_gap(op), rel=1e-10)
        assert gap > 0.1

    def test_weighted_zero_gap_skips_dense_path(self, rng, monkeypatch):
        # weights 4**k have exact square roots, so M = W^-1/2 H W^1/2 with H
        # Hermitian whitens back to H exactly and the gap is exactly zero
        d = 12
        sw = 2.0 ** rng.integers(-2, 3, d)
        model = HilbertModel(d, sw**2, "powers of four")
        cols = (np.arange(d)[:, None] + (-1, 0, 1)) % d
        h = random_matrix(rng, d, d)
        h = h + h.conj().T
        m = np.take_along_axis(h, cols, 1) * sw[cols] / sw[:, None]
        op = OperatorModel(None, model, model, stencil=(cols, m))
        assert self_adjoint_gap(_dense_twin(op)) == 0.0
        assert _two_copy_gap(op) < 1e-12
        monkeypatch.setattr(OperatorModel, "whitened", None)
        assert self_adjoint_gap(op) == 0.0

    def test_gap_matches_two_copy_oracle(self):
        grid = interval_grid(96, -2.0, 3.0)
        exact = diff_operator(grid, "minus_i_ddx_periodic")
        assert self_adjoint_gap(exact) == 0.0
        assert _two_copy_gap(exact) == 0.0
        real = diff_operator(grid, "ddx_periodic")
        assert self_adjoint_gap(real) == self_adjoint_gap(_dense_twin(real))
        assert self_adjoint_gap(real) == pytest.approx(_two_copy_gap(real), rel=1e-10)
        assert self_adjoint_gap(real) > 1.0

    model = l2_truncation(4)
    cols = np.array([[0, 1], [1, 2], [2, 3], [3, 0]])
    vals = np.ones((4, 2), dtype=complex)

    @pytest.mark.parametrize("bad_col", [-1, 4])
    def test_column_out_of_range(self, bad_col):
        cols = self.cols.copy()
        cols[2, 1] = bad_col
        with pytest.raises(InvalidDimension):
            OperatorModel(None, self.model, self.model, stencil=(cols, self.vals))

    def test_repeated_column_in_a_row(self):
        cols = self.cols.copy()
        cols[1] = (2, 2)
        with pytest.raises(InvalidDimension):
            OperatorModel(None, self.model, self.model, stencil=(cols, self.vals))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_values_must_be_finite(self, bad):
        vals = self.vals.copy()
        vals[0, 1] = bad
        with pytest.raises(InvalidDimension):
            OperatorModel(None, self.model, self.model, stencil=(self.cols, vals))

    @pytest.mark.parametrize("cols, vals", [
        (np.zeros((4, 2), dtype=int), np.ones((4, 3))),
        (np.zeros((3, 2), dtype=int), np.ones((3, 2))),
        (np.zeros(4, dtype=int), np.ones(4)),
        (np.zeros((4, 2)), np.ones((4, 2))),
    ])
    def test_shapes_and_types(self, cols, vals):
        cols = cols + np.arange(cols.shape[-1])  # distinct in each row
        with pytest.raises(InvalidDimension):
            OperatorModel(None, self.model, self.model, stencil=(cols, vals))

    @pytest.mark.parametrize("other", [
        {"matrix": np.eye(4)},
        {"matrix": None, "projection": Subspace.full(model)},
    ])
    def test_two_forms_at_once(self, other):
        with pytest.raises(InvalidDimension):
            OperatorModel(input_model=self.model, codomain=self.model,
                          stencil=(self.cols, self.vals), **other)


class TestBlockMultiplier:
    def test_unit_alphas_copy_structure(self, rng):
        a = block_multiplier([1.0, 1.0], 8)
        f = random_vector(rng, 32)
        out = a.apply(f)
        np.testing.assert_allclose(out[:8], f[:8])
        np.testing.assert_allclose(out[8:16], f[:8])  # second half copies first
        np.testing.assert_allclose(out[16:24], f[16:24])

    def test_scaling_indicator(self):
        a = block_multiplier([1.0, 2.0], 4)
        f = np.zeros(16)
        f[8:12] = 1.0  # first half of cell 1
        out = a.apply(f)
        np.testing.assert_allclose(out[8:12], 2.0)
        np.testing.assert_allclose(out[12:16], 2.0)
        np.testing.assert_allclose(out[:8], 0.0)

    def test_range_is_fold_symmetric(self, rng):
        a = block_multiplier(rng.uniform(1, 2, 3) * np.exp(2j * np.pi * rng.random(3)), 8)
        f = random_vector(rng, 48)
        out = a.apply(f)
        for k in range(3):
            first = out[16 * k : 16 * k + 8]
            second = out[16 * k + 8 : 16 * k + 16]
            np.testing.assert_allclose(second, first)

