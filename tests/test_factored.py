"""Operators held in factored form against their materialized dense twins.

A projection P onto a subspace V is held by V alone: P = V (W V)^H is never
formed, and ``apply`` is ``Subspace.project``.  Its twin is the dense matrix
from ``dense()``, the one materializing accessor.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opframe._linalg import thin_svd
from opframe.errors import InvalidDimension
from opframe.hilbert import HilbertModel, Subspace, interval_grid, orthonormalize
from opframe.opmodel import OperatorModel, diff_operator
from opframe.relframes import aframe_bounds_graph, kframe_bounds, range_inclusion
from opframe.seqops import FrameSequence
from opframe.weakframes import weak_aframe_bound

from conftest import identity_operator, random_matrix, random_weighted_model, reproduce

RTOL = 1e-10
FORMS = ("basis", "selection", "full")


def _rel(a, b):
    return float(np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300))


def _alpha_rtol(op):
    """Relative tolerance for alpha: the pencil loses up to ~eps kappa^2 of op."""
    s = thin_svd(op.whitened())[1]
    s = s[s > 1e-12 * s[0]]
    return max(RTOL, 1e-12 * (s[0] / s[-1]) ** 2)


def _subspace(rng, model, form):
    """A random subspace of about half the model in the given form."""
    d = model.dim
    r = max(1, d // 2)
    if form == "basis":
        return orthonormalize(random_matrix(rng, d, r), model)
    if form == "selection":
        return Subspace.selection(model, np.sort(rng.choice(d, size=r, replace=False)))
    return Subspace.full(model)


def _pair(rng, d, form, domain_rank=None):
    """A projection on a randomly weighted model and its dense twin."""
    model = random_weighted_model(rng, d)
    dom = None
    if domain_rank is not None:
        dom = orthonormalize(random_matrix(rng, d, domain_rank), model)
    proj = OperatorModel(None, model, model, domain=dom,
                         projection=_subspace(rng, model, form))
    return proj, OperatorModel(proj.dense(), model, model, domain=dom)


@settings(max_examples=40, deadline=None)
@given(d=st.integers(2, 64), form=st.sampled_from(FORMS), seed=st.integers(0, 2**32 - 1))
def test_factored_agrees_with_dense_twin(d, form, seed):
    rng = np.random.default_rng(seed)
    proj, twin = _pair(rng, d, form)
    model = proj.input_model

    fs = random_matrix(rng, d, 5)
    assert _rel(proj.apply_columns(fs), twin.apply_columns(fs)) <= RTOL
    assert _rel(proj.apply(fs[:, 0]), twin.apply(fs[:, 0])) <= RTOL
    # the bounds read the singular vectors off the subspace: its whitened
    # basis, with unit singular values, spans the range of the whitened twin
    u = proj.projection.whitened_basis()
    assert _rel(u.conj().T @ u, np.eye(proj.projection.rank)) <= RTOL
    assert _rel(u @ u.conj().T, twin.whitened()) <= RTOL

    frame = FrameSequence(model, random_matrix(rng, d, d + 3))
    kb_proj, kb_twin = kframe_bounds(frame, proj), kframe_bounds(frame, twin)
    assert kb_proj.kind == kb_twin.kind
    assert kb_proj.alpha == pytest.approx(kb_twin.alpha, rel=RTOL)
    assert kb_proj.beta == pytest.approx(kb_twin.beta, rel=RTOL)

    # a family spanning less than the model, so the residual is not roundoff
    thin = FrameSequence(model, random_matrix(rng, d, max(1, d // 2)))
    inc_proj, res_proj = range_inclusion(proj, thin)
    inc_twin, res_twin = range_inclusion(twin, thin)
    assert inc_proj == inc_twin
    assert res_proj == pytest.approx(res_twin, rel=RTOL)


@settings(max_examples=20, deadline=None)
@given(d=st.integers(3, 32), form=st.sampled_from(FORMS), seed=st.integers(0, 2**32 - 1))
def test_factored_domain_agrees_with_dense_twin(d, form, seed):
    rng = np.random.default_rng(seed)
    proj, twin = _pair(rng, d, form, domain_rank=d - 1)
    fs = random_matrix(rng, d, 4)
    assert _rel(proj.apply_columns(fs), twin.apply_columns(fs)) <= RTOL
    assert _rel(proj.effective_matrix(), twin.effective_matrix()) <= RTOL
    frame = FrameSequence(proj.input_model, random_matrix(rng, d, d + 3))
    kb_proj, kb_twin = kframe_bounds(frame, proj), kframe_bounds(frame, twin)
    assert kb_proj.alpha == pytest.approx(kb_twin.alpha, rel=_alpha_rtol(twin))


@settings(max_examples=30, deadline=None)
@given(d=st.integers(3, 64), form=st.sampled_from(FORMS), with_domain=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_graph_and_weak_bounds_agree_with_dense_twin(d, form, with_domain, seed):
    rng = np.random.default_rng(seed)
    proj, twin = _pair(rng, d, form, domain_rank=d - 1 if with_domain else None)
    model = proj.input_model
    frame = FrameSequence(model, random_matrix(rng, d, d + 3))
    v = orthonormalize(random_matrix(rng, d, d - 1), model)
    cases = [
        (aframe_bounds_graph, proj, twin),
        (weak_aframe_bound, proj, twin),
        # the weak bound over a declared adjoint domain
        (weak_aframe_bound, dataclasses.replace(proj, adjoint_domain=v),
         dataclasses.replace(twin, adjoint_domain=v)),
    ]
    for bound, a_proj, a_twin in cases:
        b_proj, b_twin = bound(frame, a_proj), bound(frame, a_twin)
        assert b_proj.kind == b_twin.kind
        assert b_proj.alpha == pytest.approx(b_twin.alpha, rel=_alpha_rtol(twin))
        assert b_proj.beta == pytest.approx(b_twin.beta, rel=RTOL)


@settings(max_examples=30, deadline=None)
@given(d=st.integers(2, 48), seed=st.integers(0, 2**32 - 1))
def test_bound_metamorphic_relations(d, seed):
    rng = np.random.default_rng(seed)
    model = random_weighted_model(rng, d)
    A = OperatorModel(random_matrix(rng, d, d), model, model)
    frame = FrameSequence(model, random_matrix(rng, d, d + 3))
    # with no adjoint domain the weak bound quantifies over all of H
    assert weak_aframe_bound(frame, A).alpha == kframe_bounds(frame, A).alpha

    # alpha(c K) = alpha(K) / |c|^2
    c = 10.0 ** rng.uniform(-1.0, 1.0) * np.exp(2j * np.pi * rng.random())
    v = orthonormalize(random_matrix(rng, d, max(1, d - 1)), model)
    A_v = dataclasses.replace(A, adjoint_domain=v)
    for bound, op in [(kframe_bounds, A), (weak_aframe_bound, A_v)]:
        scaled = dataclasses.replace(op, matrix=c * op.matrix)
        assert bound(frame, scaled).alpha == pytest.approx(
            bound(frame, op).alpha / abs(c) ** 2, rel=_alpha_rtol(A)
        )


def test_pw_quarter_stays_small():
    """The bundled d = 4096 quarter-band scenario never forms a d x d array."""
    reproduce("multiplier")  # finish lazy imports before measuring
    tracemalloc.start()
    try:
        report = reproduce("pw_quarter")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.all_passed
    assert peak < 64 * 2**20


@pytest.mark.parametrize("name", ["wavelet", "exm2"])
def test_stencil_scenarios_stay_small(name):
    """The d = 2048 and d = 1024 derivative scenarios keep A as a stencil:
    a dense d x d complex matrix alone would take 64 MB and 16 MB."""
    reproduce("multiplier")  # finish lazy imports before measuring
    tracemalloc.start()
    try:
        report = reproduce(name)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.all_passed
    assert peak < 16 * 2**20


def test_dirichlet_operator_stays_small():
    """The interval operators hold their Dirichlet subspace as an index
    selection: a dense d x (d - 2) basis alone would take 256 MB at d = 4096."""
    diff_operator(interval_grid(64), "minus_i_ddx_H1")  # finish lazy imports
    tracemalloc.start()
    try:
        op = diff_operator(interval_grid(4096), "minus_i_ddx_H1")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert op.adjoint_domain.rank == 4094
    assert peak < 2**20


def test_identity_operator_stays_small():
    """The identity is the projection onto the whole space: building it on a
    d = 4096 grid and applying it stores no 256 MB d x d matrix."""
    identity_operator(interval_grid(64)).apply(np.ones(64))  # finish lazy imports
    f = np.ones(4096, dtype=complex)
    tracemalloc.start()
    try:
        op = identity_operator(interval_grid(4096))
        out = op.apply(f)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(out, f)
    assert peak < 2**20


class TestBoundaryValidation:
    model = HilbertModel(3, np.ones(3))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_matrix_must_be_finite(self, bad):
        m = np.eye(3, dtype=complex)
        m[1, 2] = bad
        with pytest.raises(InvalidDimension):
            OperatorModel(m, self.model, self.model)

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_projection_basis_must_be_finite(self, bad):
        basis = np.ones((3, 1), dtype=complex) / np.sqrt(3.0)
        basis[1, 0] = bad
        with pytest.raises(InvalidDimension):
            OperatorModel(None, self.model, self.model, projection=Subspace(self.model, basis))

    @pytest.mark.parametrize("models", [
        (HilbertModel(4, np.ones(4)), model, model),  # subspace of another model
        (model, model, HilbertModel(2, np.ones(2))),  # a rectangular map
        (model, model, HilbertModel(3, np.full(3, 2.0))),  # codomain weights differ
        (None, model, model),  # a matrix, not a Subspace
    ], ids=["ambient_dim", "codomain_dim", "codomain_weights", "not_a_subspace"])
    def test_projection_models_must_match(self, models):
        ambient, model_in, model_out = models
        sub = np.eye(3, dtype=complex) if ambient is None else Subspace.full(ambient)
        with pytest.raises(InvalidDimension):
            OperatorModel(None, model_in, model_out, projection=sub)

    def test_exactly_one_form(self):
        f = np.ones((3, 1), dtype=complex)
        with pytest.raises(InvalidDimension):
            OperatorModel(None, self.model, self.model)
        with pytest.raises(InvalidDimension):
            OperatorModel(f @ f.T, self.model, self.model,
                          projection=Subspace.full(self.model))

    def test_projection_applies(self):
        model = HilbertModel(3, np.array([0.5, 2.0, 1.0]))
        f = np.array([1.0, 5.0, 2.0], dtype=complex)
        # V = span{(1, 1, 0)}: P f = (1, 1, 0) (0.5 f_0 + 2 f_1) / 2.5
        line = Subspace(model, np.array([[1.0], [1.0], [0.0]]) / np.sqrt(2.5))
        cases = [(line, [4.2, 4.2, 0.0]), (Subspace.selection(model, [2]), [0.0, 0.0, 2.0]),
                 (Subspace.full(model), f)]
        for sub, expected in cases:
            op = OperatorModel(None, model, model, projection=sub)
            np.testing.assert_allclose(op.apply(f), expected, rtol=1e-15)
            np.testing.assert_allclose(op.dense() @ f, expected, rtol=1e-15, atol=1e-15)
        assert op.apply(f) is not f  # the whole-space projection returns a new array
