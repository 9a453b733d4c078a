"""Self-tests of the test oracles in conftest.py: the paper's literal definitions that the
package applies only in factored form.  Nothing here covers the package beyond the calls an
oracle makes into it (``Subspace.project``, ``hilbert.norm``, ``OperatorModel.apply``) and the
operators built to feed them."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opframe.errors import InvalidDimension
from opframe.hilbert import Subspace, interval_grid, l2_truncation, norm
from opframe.opmodel import diagonal_operator, diff_operator

from conftest import (
    DomainViolation,
    contains,
    graph_inner,
    identity_operator,
    inner,
    random_matrix,
    random_vector,
    random_weighted_model,
    require_member,
)


class TestMembership:
    def test_membership_tolerance(self):
        m = l2_truncation(4)
        sub = Subspace(m, np.eye(4, dtype=complex)[:, :2])
        inside = np.array([1.0, 2.0, 0, 0])
        assert contains(sub, inside)
        assert not contains(sub, inside + np.array([0, 0, 1e-4, 0]))

    def test_outside_adjoint_domain_raises(self):
        # the decomposition holds on D(A*), the Dirichlet subspace here,
        # which the constant function misses
        A = diff_operator(interval_grid(64), "minus_i_ddx_H1")
        with pytest.raises(DomainViolation):
            require_member(A.adjoint_domain_subspace, np.ones(64), "u")


class TestInner:
    """Self-tests of conftest's ``inner`` oracle."""

    def test_orthogonal_basis_vectors(self):
        m = l2_truncation(2)
        assert inner(m, [1, 0], [0, 1]) == 0

    def test_norm_squared_of_complex_vector(self):
        m = l2_truncation(2)
        assert inner(m, [1, 1j], [1, 1j]) == pytest.approx(2.0)

    def test_quadrature_of_constant_on_unit_interval(self):
        # independent value: the exact integral of 1 over (0,1)
        grid = interval_grid(100)
        one = np.ones(100)
        assert inner(grid, one, one) == pytest.approx(1.0, abs=1e-12)

    def test_dimension_mismatch(self):
        m = l2_truncation(3)
        with pytest.raises(InvalidDimension):
            inner(m, [1, 0], [0, 1, 0])

    def test_cauchy_schwarz_1000_trials(self, rng):
        m = random_weighted_model(rng, 17)
        for _ in range(1000):
            f = random_vector(rng, 17)
            g = random_vector(rng, 17)
            lhs = abs(inner(m, f, g))
            rhs = norm(m, f) * norm(m, g)
            assert lhs <= rhs * (1 + 1e-12)

    @settings(max_examples=30, deadline=None)
    @given(dim=st.integers(2, 8), seed=st.integers(0, 2**16))
    def test_conjugate_symmetry(self, dim, seed):
        r = np.random.default_rng(seed)
        m = random_weighted_model(r, dim)
        f, g = random_vector(r, dim), random_vector(r, dim)
        assert inner(m, f, g) == pytest.approx(np.conj(inner(m, g, f)))

    def test_positive_definite(self, rng):
        m = random_weighted_model(rng, 9)
        for _ in range(50):
            f = random_vector(rng, 9)
            assert inner(m, f, f).real > 0
        assert norm(m, np.zeros(9)) == 0.0


class TestGraphInner:
    """Self-tests of conftest's ``graph_inner`` oracle, not coverage of the package."""

    def test_zero_operator_reduces_to_ambient(self, rng):
        m = l2_truncation(4)
        z = diagonal_operator(m, np.zeros(4))
        f, g = random_vector(rng, 4), random_vector(rng, 4)
        assert graph_inner(z, f, g) == pytest.approx(inner(m, f, g))

    def test_identity_doubles_the_form(self):
        m = l2_truncation(2)
        ident = identity_operator(m)
        assert graph_inner(ident, [1, 0], [1, 0]) == pytest.approx(2.0)

    def test_diagonal_example(self):
        m = l2_truncation(3)
        a = diagonal_operator(m, [1, 2, 3])
        e3 = np.array([0, 0, 1.0])
        assert graph_inner(a, e3, e3) == pytest.approx(10.0)

    def test_outside_domain_raises(self):
        m = l2_truncation(3)
        dom = Subspace(m, np.eye(3, dtype=complex)[:, :2])
        a = diagonal_operator(m, [1, 2, 3])
        a = type(a)(a.matrix, m, m, domain=dom)
        with pytest.raises(DomainViolation):
            graph_inner(a, [0, 0, 1.0], [1, 0, 0])

    def test_is_an_inner_product_on_domain(self, rng):
        m = random_weighted_model(rng, 6)
        a = type(identity_operator(m))(
            random_matrix(rng, 6, 6), m, m, name="random"
        )
        for _ in range(50):
            f, g = random_vector(rng, 6), random_vector(rng, 6)
            assert graph_inner(a, f, f).real > 0
            assert graph_inner(a, f, g) == pytest.approx(np.conj(graph_inner(a, g, f)))
