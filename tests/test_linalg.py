import dataclasses

import numpy as np
import pytest

from opframe._linalg import max_column_gap, orthonormal_range, pencil_lower_bound
from opframe.hilbert import HilbertModel, orthonormalize
from opframe.opmodel import OperatorModel, identity_operator
from opframe.relframes import kframe_bounds
from opframe.scenarios import CHECKS
from opframe.seqops import FrameSequence
from opframe.weakframes import weak_aframe_bound

from conftest import random_matrix, random_weighted_model


class TestMaxColumnGap:
    w = np.array([1.0, 4.0])

    def test_weighted_relative_gap(self):
        ref = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex)
        approx = ref + np.array([[0.1, 0.0], [0.0, 0.1]])
        # column norms 1 and 2, gaps 0.1 and 0.2: both relative gaps are 0.1
        assert max_column_gap(approx, ref, self.w) == pytest.approx(0.1)

    def test_zero_reference_column_is_skipped(self):
        ref = np.array([[0.0, 2.0], [0.0, 0.0]], dtype=complex)
        approx = np.array([[5.0, 2.0], [0.0, 1.0]], dtype=complex)
        assert max_column_gap(approx, ref, self.w) == pytest.approx(1.0)

    def test_all_columns_dead(self):
        ref = np.zeros((2, 3), dtype=complex)
        assert max_column_gap(np.ones((2, 3)), ref, self.w) == 0.0


def test_psi_in_range_with_zero_column():
    model = HilbertModel(3, np.array([0.5, 1.0, 2.0]))
    psi = FrameSequence(model, np.array([[1.0, 0.0], [2.0, 0.0], [0.0, 0.0]]))
    ctx = {"psi": psi, "op": identity_operator(model)}
    _, check = CHECKS["psi_in_range"]
    with np.errstate(all="raise"):
        assert check(ctx, {}, None) == 0.0


def _unitary(rng, d):
    q, _ = np.linalg.qr(random_matrix(rng, d, d))
    return q


def _extended_alpha(seq, K, basis=None):
    """min ||X f||^2 / ||T f||^2 as a clongdouble Rayleigh quotient.

    X = G~^H and T = K~^H are the whitened family and adjoint operator,
    formed from the model data in extended precision and restricted to the
    weighted-orthonormal ``basis`` when one is given.  The minimizer
    f = R^-1 v, with T = Q R and v the last right singular vector of X R^-1,
    comes from float64; the quotient is second order in the error of f, so
    it is accurate far below the eps * kappa^2 that the normal equations
    lose.
    """
    ld = np.clongdouble
    sw = np.sqrt(seq.model.weights.astype(np.longdouble))
    x = (sw[:, None] * seq.vectors.astype(ld)).conj().T
    t = ((sw[:, None] * K.matrix.astype(ld)) / sw[None, :]).conj().T
    if basis is not None:
        vw = sw[:, None] * basis.astype(ld)
        x, t = x @ vw, t @ vw
    x64 = x.astype(complex)
    r64 = np.linalg.qr(t.astype(complex), mode="r")
    _, _, vh = np.linalg.svd(np.linalg.solve(r64.T, x64.T).T)  # X R^-1
    f = np.linalg.solve(r64, vh[-1].conj()).astype(ld)
    return np.sum(np.abs(x @ f) ** 2) / np.sum(np.abs(t @ f) ** 2)


@pytest.mark.parametrize("kappa", [1e3, 3e4])
@pytest.mark.parametrize("seed", range(4))
def test_kframe_alpha_matches_extended_precision_oracle(kappa, seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(8, 49))
    model = random_weighted_model(rng, d)
    sw = model.sqrt_weights
    # whitened K has condition number kappa exactly
    kt = _unitary(rng, d) @ np.diag(np.geomspace(1.0, 1.0 / kappa, d)) @ _unitary(rng, d)
    K = OperatorModel(kt / sw[:, None] * sw[None, :], model, model)
    seq = FrameSequence(model, random_matrix(rng, d, d + 5))
    oracle = _extended_alpha(seq, K)
    alpha = kframe_bounds(seq, K).alpha
    assert float(abs(alpha - oracle) / oracle) <= 1e-10
    # the weak bound over a declared adjoint domain on which K* is injective,
    # so the pencil runs on the triangular factor of the restricted operator
    v = orthonormalize(random_matrix(rng, d, d - 3), model)
    oracle = _extended_alpha(seq, K, v.basis)
    alpha = weak_aframe_bound(seq, dataclasses.replace(K, adjoint_domain=v)).alpha
    assert float(abs(alpha - oracle) / oracle) <= 1e-10


def test_wide_factor_range_matches_direct_svd():
    """A wide X (rows <= columns / 2) with nontrivial ker(B): the QR-reduced
    range of X restricted to ker(B) spans the projector of the direct SVD."""
    rng = np.random.default_rng(7)
    m, r, q = 12, 40, 30
    x = random_matrix(rng, m, 9) @ random_matrix(rng, 9, r)  # rank 9 < m
    u, _ = np.linalg.qr(random_matrix(rng, r, q))
    xk = x - (x @ u) @ u.conj().T
    scale = float(np.linalg.svd(x, compute_uv=False)[0])
    basis = orthonormal_range(xk, scale=scale)
    ud, sd, _ = np.linalg.svd(xk, full_matrices=False)
    direct = ud[:, : int(np.sum(sd > 1e-12 * scale))]
    assert basis.shape == direct.shape == (m, 9)
    gap = basis @ basis.conj().T - direct @ direct.conj().T
    assert np.linalg.norm(gap, 2) <= 1e-12
    # the projected factor has m = 12 < q rows, so alpha is 0 by a rank count
    alpha, beta = pencil_lower_bound(x, u, np.diag(1.0 + rng.random(q)))
    assert alpha == 0.0
    assert beta == pytest.approx(scale**2, rel=1e-12)
