"""The operator bounds (kframe_bounds, weak_aframe_bound, aframe_bounds_graph)
against closed forms, and what they ask LAPACK for.

The closed forms are derived in the docstrings of ``weak_aframe_bound`` and
``aframe_bounds_graph``; the oracle is the formula, never an earlier output.
"""

import sys
import tracemalloc

import numpy as np
import pytest

from opframe import _linalg, seqops
from opframe.constructions import exponential_system, pw_example
from opframe.errors import DegenerateOperator
from opframe.hilbert import Subspace, interval_grid, l2_truncation, orthonormalize, window_grid
from opframe.opmodel import OperatorModel, diff_operator
from opframe.relframes import aframe_bounds_graph, kframe_bounds
from opframe.seqops import FRAME_TOL, FrameSequence, frame_bounds
from opframe.weakframes import weak_aframe_bound

from conftest import random_frame, random_matrix, random_weighted_model


# -- closed forms ---------------------------------------------------------


@pytest.mark.parametrize("d", [64, 128])
def test_graph_bound_of_periodic_exponentials_is_exact(d):
    """b = 1, |n| <= d/2: alpha = 1 + h^2 and beta = 2 at every d."""
    grid = interval_grid(d)
    seq = exponential_system(1.0, d // 2, grid)
    fb = aframe_bounds_graph(seq, diff_operator(grid, "minus_i_ddx_periodic"))
    assert fb.alpha == pytest.approx(1.0 + 1.0 / d**2, rel=1e-13, abs=0.0)
    assert fb.beta == pytest.approx(2.0, rel=1e-13, abs=0.0)
    assert fb.kind == "graph_a_frame"


@pytest.mark.parametrize("b", [0.5, 0.25])
def test_weak_bound_of_exm1_converges_to_one_over_b(b):
    """label_range = d / (2b): alpha - 1/b falls as h^2, and one Richardson
    step from d = 128 and 256 lands within 1e-6 relative of 1/b."""
    alpha = {}
    for d in (64, 128, 256):
        grid = interval_grid(d)
        seq = exponential_system(b, int(d / (2 * b)), grid, derivative=True)
        alpha[d] = weak_aframe_bound(seq, diff_operator(grid, "minus_i_ddx_H1")).alpha
    order = np.log2((alpha[64] - alpha[128]) / (alpha[128] - alpha[256]))
    assert 1.9 <= order <= 2.1
    limit = (4.0 * alpha[256] - alpha[128]) / 3.0
    assert abs(limit - 1.0 / b) <= 1e-6 / b


# -- degeneracy and classification -------------------------------------------


def _scaled_operator(rng, d, norm):
    """A dense operator whose whitened matrix has sigma_max = norm."""
    model = random_weighted_model(rng, d)
    kt = random_matrix(rng, d, d)
    kt *= norm / np.linalg.svd(kt, compute_uv=False)[0]
    mat = (kt / model.sqrt_weights[:, None]) * model.sqrt_weights[None, :]
    v = Subspace.selection(model, np.arange(1, d - 1))
    return OperatorModel(mat, model, model, adjoint_domain=v)


@pytest.mark.parametrize("norm, degenerate", [(1e-15, True), (1e-13, False)])
def test_degenerate_operator_threshold(rng, norm, degenerate):
    """sigma_max <= 1e-14 raises in both bounds; the certified path is tried
    only above that scale, so it never hides a numerically zero operator."""
    A = _scaled_operator(rng, 8, norm)
    seq = random_frame(rng, 8, 12, model=A.input_model)
    for bound in (weak_aframe_bound, kframe_bounds):
        if degenerate:
            with pytest.raises(DegenerateOperator):
                bound(seq, A)
        else:
            assert bound(seq, A).alpha > 0.0


def test_operator_bound_kind_never_reads_beta(rng, monkeypatch):
    """kind follows the absolute rule alpha > FRAME_TOL; beta stays unread."""
    pencil = seqops.pencil_lower_bound

    def unread_beta(*args):
        alpha, _ = pencil(*args)

        def beta():
            raise AssertionError("beta was read")

        return alpha, beta

    monkeypatch.setattr(seqops, "pencil_lower_bound", unread_beta)
    seq = random_frame(rng, 6, 9)
    K = OperatorModel(random_matrix(rng, 6, 6), seq.model, seq.model)
    fb = kframe_bounds(seq, K)
    assert fb.kind == "k_frame" and fb.alpha > 1e-8
    # alpha scales with |c|^2: the family scaled to alpha = FRAME_TOL / 2 is Bessel-only
    scaled = FrameSequence(seq.model, seq.vectors * np.sqrt(0.5 * FRAME_TOL / fb.alpha))
    small = kframe_bounds(scaled, K)
    assert small.kind == "bessel_only" and small.alpha == pytest.approx(0.5 * FRAME_TOL, rel=1e-9)


# -- kernel counts ------------------------------------------------------------


class TestKernelCounts:
    """What the bounds ask LAPACK for, counted by wrapping numpy.linalg."""

    def test_certified_weak_bound_computes_beta_on_demand(self, linalg_calls, monkeypatch):
        # exm1 at d = 64: the certified R^-1 of the restricted operator proves
        # full rank, so alpha is one values-only SVD and nothing is solved
        grid = interval_grid(64)
        seq = exponential_system(0.5, 64, grid, derivative=True)
        A = diff_operator(grid, "minus_i_ddx_H1")
        monkeypatch.setattr(_linalg, "thin_svd", None)  # factor's SVD path is not taken
        svd, solve = linalg_calls("svd"), linalg_calls("solve")
        fb = weak_aframe_bound(seq, A)
        assert fb.kind == "weak_a_frame" and fb.alpha > 0.0
        assert not solve
        assert len(svd) == 1 and svd[0][1].get("compute_uv") is False
        beta = fb.beta
        assert len(svd) == 2 and svd[1][1].get("compute_uv") is False
        assert fb.beta == beta and len(svd) == 2

    def test_projection_bound_runs_one_qr(self, linalg_calls):
        # the band basis is orthonormal by construction: the one QR is the
        # pencil's row reduction of the family restricted to ker(P)
        phi, _, P = pw_example(window_grid(512, -8.0, 8.0))
        qr, solve = linalg_calls("qr"), linalg_calls("solve")
        assert kframe_bounds(phi, P).alpha > 1e-8
        assert len(qr) == 1 and not solve

    def test_projection_bound_runs_its_qr_real(self, linalg_calls):
        # the generators are real (an even profile over conjugate columns -n, n), and so is
        # gram_form's basis of the conjugate-closed band: the one QR runs in real arithmetic
        phi, psi, P = pw_example(window_grid(512, -8.0, 8.0))
        assert not np.any(phi.vectors.imag) and not np.any(psi.vectors.imag)
        qr = linalg_calls("qr")
        assert kframe_bounds(phi, P).alpha > 1e-8
        assert len(qr) == 1 and qr[0][0][0].dtype == np.float64

    def test_pw_bounds_form_no_complex_family_copy(self):
        # traced peaks against the d x N family's size stored complex, 16 bytes an entry (the
        # family is stored real now, in half that): real working arrays are half of it, and the
        # pencil reduces its family in place (1.81 with the restriction as a second array)
        phi, _, P = pw_example(window_grid(1024, -32.0, 32.0))
        complex_bytes = 16 * phi.vectors.size
        for bound, ceiling in ((lambda: kframe_bounds(phi, P).alpha, 1.5),
                               (lambda: frame_bounds(phi), 1.0)):
            tracemalloc.start()
            try:
                bound()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= ceiling * complex_bytes

    def test_bounds_leave_the_family_and_subspaces_unchanged(self, rng):
        # the pencil overwrites the family it is given, which must be a copy of the caller's:
        # gram_form's z over all of H, Subspace.coords over a basis
        phi, _, P = pw_example(window_grid(512, -8.0, 8.0))
        held = phi.vectors.copy(), P.projection.basis.copy()
        assert kframe_bounds(phi, P).alpha > 1e-8
        assert all(map(np.array_equal, (phi.vectors, P.projection.basis), held))
        # a rank-4 operator on a rank-9 adjoint domain and 12 columns: Y (9 x 12) is reduced in
        # place, and beta, read from Y, is taken before
        model = random_weighted_model(rng, 24)
        v = orthonormalize(random_matrix(rng, 24, 9), model)
        A = OperatorModel(random_matrix(rng, 24, 4) @ random_matrix(rng, 4, 24), model, model,
                          adjoint_domain=v)
        seq = random_frame(rng, 24, 12, model=model)
        held = seq.vectors.copy(), v.basis.copy()
        beta = weak_aframe_bound(seq, A).beta
        assert all(map(np.array_equal, (seq.vectors, v.basis), held))
        assert beta == pytest.approx(np.linalg.svd(v.coords(seq.vectors))[1][0] ** 2, rel=1e-12)

    @pytest.mark.parametrize("case", ["uncertified", "rank_deficient"])
    def test_uncertified_bound_runs_one_thin_svd(self, rng, linalg_calls, monkeypatch, case):
        # kappa_F > 1e6 at full rank, or rank 4 of 8: one thin_svd of the
        # whitened M gives the support, with no values-only rank test first
        u, _ = np.linalg.qr(random_matrix(rng, 8, 8))
        v, _ = np.linalg.qr(random_matrix(rng, 8, 8))
        s = np.logspace(0.0, -8.0, 8) if case == "uncertified" else np.r_[np.ones(4), np.zeros(4)]
        model = l2_truncation(8)
        K = OperatorModel((u * s) @ v.conj().T, model, model)
        seq = FrameSequence(model, random_matrix(rng, 8, 12))
        thin, svd_of = [], _linalg.thin_svd

        def recorded(m):  # factor's calls; the pencil calls thin_svd directly, not counted
            if sys._getframe(1).f_code is _linalg.factor.__code__:
                thin.append(m)
            return svd_of(m)

        monkeypatch.setattr(_linalg, "thin_svd", recorded)
        svd, solve = linalg_calls("svd"), linalg_calls("solve")
        assert kframe_bounds(seq, K).alpha > 0.0
        assert len(thin) == 1 and np.array_equal(thin[0], K.whitened())
        assert svd[0][1].get("compute_uv") is not False and not solve
