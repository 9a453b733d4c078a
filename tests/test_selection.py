"""Selection-form subspaces (implied basis e_i / sqrt(w_i)) against the
dense-basis subspaces of their materialized bases."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opframe.errors import InvalidDimension
from opframe.hilbert import HilbertModel, Subspace
from opframe.opmodel import diff_operator, dirichlet_subspace
from opframe.seqops import FrameSequence
from opframe.weakframes import weak_a_dual, weak_aframe_bound

from conftest import contains, random_matrix, violation

RTOL = 1e-10


def _rel(a, b):
    return float(np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300))


def _grid(rng, d):
    """A grid model with non-uniform weights; diff_operator reads only the
    spacing of its points."""
    return HilbertModel(d, 0.25 + rng.random(d), "weighted grid",
                        points=np.linspace(0.0, 1.0, d))


def _twin(sub):
    return Subspace(sub.ambient, sub.dense())


def _dense_twin(op):
    """The same stencil operator with every selection subspace materialized."""
    return dataclasses.replace(
        op,
        domain=None if op.domain is None else _twin(op.domain),
        adjoint_domain=None if op.adjoint_domain is None else _twin(op.adjoint_domain),
    )


@settings(max_examples=40, deadline=None)
@given(d=st.integers(3, 64), seed=st.integers(0, 2**32 - 1))
def test_selection_agrees_with_dense_basis(d, seed):
    rng = np.random.default_rng(seed)
    model = HilbertModel(d, 0.25 + rng.random(d))
    index = np.flatnonzero(rng.random(d) < 0.6)
    sel = Subspace.selection(model, index)
    twin = _twin(sel)
    assert sel.rank == twin.rank == index.size
    assert twin.basis.shape == (d, index.size)
    # the materialized basis is weighted-orthonormal
    gram = twin.basis.conj().T @ (model.weights[:, None] * twin.basis)
    np.testing.assert_allclose(gram, np.eye(index.size), atol=1e-14)

    f, fs = random_matrix(rng, d, 1)[:, 0], random_matrix(rng, d, 4)
    for x in (f, fs):
        np.testing.assert_allclose(sel.coords(x), twin.coords(x), rtol=1e-14, atol=1e-14)
        np.testing.assert_allclose(sel.project(x), twin.project(x), rtol=1e-14, atol=1e-14)
    assert violation(sel, f) == pytest.approx(violation(twin, f), rel=1e-12, abs=1e-14)
    assert contains(sel, sel.project(f))

    # the same seed draws the same coordinates of random members
    a = sel.sample_coords(np.random.default_rng(seed), 7)
    b = twin.sample_coords(np.random.default_rng(seed), 7)
    assert a.shape == b.shape == (index.size, 7)
    np.testing.assert_array_equal(a, b)


@settings(max_examples=25, deadline=None)
@given(d=st.integers(16, 64), variant=st.sampled_from(["minus_i_ddx_H1", "minus_i_ddx_H10"]),
       seed=st.integers(0, 2**32 - 1))
def test_weak_bound_and_dual_agree_with_dense_basis(d, variant, seed):
    rng = np.random.default_rng(seed)
    grid = _grid(rng, d)
    op = diff_operator(grid, variant)
    assert (op.adjoint_domain or op.domain).index is not None
    twin = _dense_twin(op)
    seq = FrameSequence(grid, random_matrix(rng, d, d + 3))

    b_sel, b_twin = weak_aframe_bound(seq, op), weak_aframe_bound(seq, twin)
    assert b_sel.kind == b_twin.kind
    assert b_sel.alpha == pytest.approx(b_twin.alpha, rel=RTOL)
    assert b_sel.beta == pytest.approx(b_twin.beta, rel=RTOL)

    dual_sel, dual_twin = weak_a_dual(seq, op), weak_a_dual(seq, twin)
    assert _rel(dual_sel.vectors, dual_twin.vectors) <= RTOL
    assert dual_sel.certificate_residual <= 1e-8
    assert dual_twin.certificate_residual <= 1e-8


def test_dirichlet_subspace_is_a_selection():
    grid = HilbertModel(20, np.full(20, 0.05), points=np.arange(20) / 20)
    sub = dirichlet_subspace(grid)
    assert sub.basis is None
    np.testing.assert_array_equal(sub.index, np.arange(1, 19))
    np.testing.assert_allclose(sub.dense()[1:-1], np.diag(np.full(18, 0.05 ** -0.5)))
    assert not np.any(sub.dense()[[0, -1]])


@pytest.mark.parametrize("index", [
    [[1, 2]],  # not 1-d
    [0.0, 1.0],  # not integers
    [2, 1],  # not increasing
    [1, 1],  # repeated
    [-1, 2],  # out of range
    [0, 5],  # out of range
])
def test_invalid_selection_raises(index):
    with pytest.raises(InvalidDimension):
        Subspace.selection(HilbertModel(5, np.ones(5)), index)


def test_basis_and_index_are_exclusive():
    model = HilbertModel(3, np.ones(3))
    with pytest.raises(InvalidDimension):
        Subspace(model, np.eye(3)[:, :2], np.array([0, 1]))
