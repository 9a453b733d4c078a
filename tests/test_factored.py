"""Factored operators M = L R^H against their materialized dense twins."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opframe import serialize
from opframe.errors import InvalidDimension
from opframe.hilbert import HilbertModel, interval_grid, orthonormalize
from opframe.opmodel import OperatorModel, diff_operator
from opframe.relframes import aframe_bounds_graph, kframe_bounds, range_inclusion
from opframe.seqops import FrameSequence
from opframe.weakframes import weak_aframe_bound

from conftest import random_matrix, random_weighted_model, reproduce

RTOL = 1e-10


def _rel(a, b):
    return float(np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300))


def _alpha_rtol(op):
    """Relative tolerance for alpha: the pencil loses up to ~eps kappa^2 of op."""
    _, s = op.whitened_svd()
    s = s[s > 1e-12 * s[0]]
    return max(RTOL, 1e-12 * (s[0] / s[-1]) ** 2)


def _pair(rng, d, q, domain_rank=None):
    """A factored operator on a randomly weighted model and its dense twin."""
    model = random_weighted_model(rng, d)
    dom = None
    if domain_rank is not None:
        dom = orthonormalize(random_matrix(rng, d, domain_rank), model)
    fac = OperatorModel(
        None, model, model, domain=dom,
        factor=(random_matrix(rng, d, q), random_matrix(rng, d, q)),
    )
    return fac, OperatorModel(fac.dense(), model, model, domain=dom)


@settings(max_examples=40, deadline=None)
@given(d=st.integers(2, 64), q=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
def test_factored_agrees_with_dense_twin(d, q, seed):
    rng = np.random.default_rng(seed)
    fac, twin = _pair(rng, d, q)
    model = fac.input_model

    fs = random_matrix(rng, d, 5)
    assert _rel(fac.apply_columns(fs), twin.apply_columns(fs)) <= RTOL

    frame = FrameSequence(model, random_matrix(rng, d, d + 3))
    kb_fac, kb_twin = kframe_bounds(frame, fac), kframe_bounds(frame, twin)
    assert kb_fac.alpha == pytest.approx(kb_twin.alpha, rel=RTOL)
    assert kb_fac.beta == pytest.approx(kb_twin.beta, rel=RTOL)

    # a family spanning less than the model, so the residual is not roundoff
    thin = FrameSequence(model, random_matrix(rng, d, max(1, d // 2)))
    inc_fac, res_fac = range_inclusion(fac, thin)
    inc_twin, res_twin = range_inclusion(twin, thin)
    assert inc_fac == inc_twin
    assert res_fac == pytest.approx(res_twin, rel=RTOL)

    back = serialize.loads(serialize.dumps(fac, "operator"), "operator")
    assert back.factor is None
    assert _rel(back.dense(), twin.dense()) <= RTOL


@settings(max_examples=20, deadline=None)
@given(d=st.integers(3, 32), q=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
def test_factored_domain_agrees_with_dense_twin(d, q, seed):
    rng = np.random.default_rng(seed)
    fac, twin = _pair(rng, d, q, domain_rank=d - 1)
    fs = random_matrix(rng, d, 4)
    assert _rel(fac.apply_columns(fs), twin.apply_columns(fs)) <= RTOL
    assert _rel(fac.effective_matrix(), twin.effective_matrix()) <= RTOL
    frame = FrameSequence(fac.input_model, random_matrix(rng, d, d + 3))
    kb_fac, kb_twin = kframe_bounds(frame, fac), kframe_bounds(frame, twin)
    assert kb_fac.alpha == pytest.approx(kb_twin.alpha, rel=RTOL)


@settings(max_examples=30, deadline=None)
@given(d=st.integers(3, 64), q=st.integers(1, 8), with_domain=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_graph_and_weak_bounds_agree_with_dense_twin(d, q, with_domain, seed):
    rng = np.random.default_rng(seed)
    fac, twin = _pair(rng, d, q, domain_rank=d - 1 if with_domain else None)
    model = fac.input_model
    frame = FrameSequence(model, random_matrix(rng, d, d + 3))
    v = orthonormalize(random_matrix(rng, d, d - 1), model)
    cases = [
        (aframe_bounds_graph, fac, twin),
        (weak_aframe_bound, fac, twin),
        # the weak bound over a declared adjoint domain
        (weak_aframe_bound, dataclasses.replace(fac, adjoint_domain=v),
         dataclasses.replace(twin, adjoint_domain=v)),
    ]
    for bound, a_fac, a_twin in cases:
        b_fac, b_twin = bound(frame, a_fac), bound(frame, a_twin)
        assert b_fac.kind == b_twin.kind
        assert b_fac.alpha == pytest.approx(b_twin.alpha, rel=_alpha_rtol(twin))
        assert b_fac.beta == pytest.approx(b_twin.beta, rel=RTOL)


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


class TestBoundaryValidation:
    model = HilbertModel(3, np.ones(3))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_matrix_must_be_finite(self, bad):
        m = np.eye(3, dtype=complex)
        m[1, 2] = bad
        with pytest.raises(InvalidDimension):
            OperatorModel(m, self.model, self.model)

    @pytest.mark.parametrize("side", [0, 1])
    def test_factor_must_be_finite(self, side):
        factor = [np.ones((3, 2), dtype=complex), np.ones((3, 2), dtype=complex)]
        factor[side][0, 1] = np.nan
        with pytest.raises(InvalidDimension):
            OperatorModel(None, self.model, self.model, factor=tuple(factor))

    @pytest.mark.parametrize("shapes", [((4, 2), (3, 2)), ((3, 2), (2, 2)),
                                        ((3, 2), (3, 1)), ((3,), (3,))])
    def test_factor_shapes_must_match_models(self, shapes):
        left, right = (np.ones(s, dtype=complex) for s in shapes)
        with pytest.raises(InvalidDimension):
            OperatorModel(None, self.model, self.model, factor=(left, right))

    def test_exactly_one_form(self):
        f = np.ones((3, 1), dtype=complex)
        with pytest.raises(InvalidDimension):
            OperatorModel(None, self.model, self.model)
        with pytest.raises(InvalidDimension):
            OperatorModel(f @ f.T, self.model, self.model, factor=(f, f))

    def test_rectangular_factor_applies(self):
        out = HilbertModel(2, np.array([0.5, 2.0]))
        left = np.array([[1.0], [2.0]], dtype=complex)
        right = np.array([[1.0], [0.0], [1j]], dtype=complex)
        op = OperatorModel(None, self.model, out, factor=(left, right))
        np.testing.assert_allclose(op.dense(), left @ right.conj().T)
        f = np.array([1.0, 5.0, 2.0], dtype=complex)
        np.testing.assert_allclose(op.apply(f), left[:, 0] * (1.0 - 2j))
