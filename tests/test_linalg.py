import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opframe._linalg import (
    certified_row_factor_inverse,
    max_column_gap,
    orthonormal_range,
    pencil_lower_bound,
    pinv_weighted,
    thin_svd,
    triangular_inverse,
)
from opframe.hilbert import HilbertModel, l2_truncation, orthonormalize
from opframe.opmodel import OperatorModel, identity_operator
from opframe.relframes import a_dual_graph, k_dual, kframe_bounds, range_inclusion
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


def _rel(a, b):
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


@settings(max_examples=40, deadline=None)
@given(d=st.integers(4, 32), wide=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_range_and_pinv_cuts_from_one_svd(d, wide, seed):
    """One thin SVD of the whitened D, two cuts: a singular value planted at
    1e-11 sigma_0 is kept by the range basis (cut 1e-12 sigma_0) and dropped
    by the pseudo-inverse (cut 1e-10 sigma_0).  D is tall (N = d/2) or wide
    (N >= 2d, so the SVD runs on the row-reduced R^H)."""
    rng = np.random.default_rng(seed)
    model = random_weighted_model(rng, d)
    sw = model.sqrt_weights
    n = 2 * d + int(rng.integers(0, 8)) if wide else d // 2
    k = min(d, n)
    u, _ = np.linalg.qr(random_matrix(rng, d, k))
    v, _ = np.linalg.qr(random_matrix(rng, n, k))
    s = np.geomspace(1.0, 0.1, k)
    s[-1] = 1e-11
    y = (u * s) @ v.conj().T  # the whitened synthesis matrix
    seq = FrameSequence(model, y / sw[:, None])

    for mat in (y, y.real, 1j * y.real):
        uu, ss, vh = thin_svd(mat)
        assert _rel((uu * ss) @ vh, mat) <= 1e-12
        assert np.linalg.norm(vh @ vh.conj().T - np.eye(vh.shape[0])) <= 1e-12

    # For a wide D, K spans every direction of R(D) = C^d, the planted one
    # included.  For a tall D the planted left singular vector is only known
    # to eps / 1e-11 (its gap to the null space is its own singular value),
    # so K stays on the other ones; D+ K then shows whether the planted one
    # was dropped, since keeping it would amplify that error 1e11 times.
    q = int(rng.integers(1, 5))
    kt = u[:, : k if wide else k - 1] @ random_matrix(rng, k if wide else k - 1, q)
    K = OperatorModel(kt / sw[:, None], l2_truncation(q), model)
    basis = orthonormal_range(seq.whitened())
    assert basis.shape[1] == k
    for target in (kt, kt + random_matrix(rng, d, q)):
        op = OperatorModel(target / sw[:, None], K.input_model, model)
        oracle = max_column_gap(basis @ (basis.conj().T @ target), target, np.ones(d))
        assert abs(range_inclusion(op, seq)[1] - oracle) <= 1e-10 * max(oracle, 1.0)

    # K = D M with the minimum-norm M = D+ K; the dual vectors are M^H
    m = k_dual(seq, K).vectors.conj().T
    assert _rel(m, np.linalg.pinv(y, rcond=1e-10) @ kt) <= 1e-10
    pinv = pinv_weighted(seq.vectors, model.weights, np.ones(n))
    assert _rel(pinv, np.linalg.pinv(y, rcond=1e-10) * sw[None, :]) <= 1e-10
    zero = pinv_weighted(np.zeros((d, n)), model.weights, np.ones(n))
    assert zero.shape == (n, d) and not np.any(zero)


@settings(max_examples=60, deadline=None)
@given(
    d=st.integers(1, 48),
    shape=st.sampled_from(["tall", "square", "wide"]),
    kind=st.sampled_from(["complex", "real", "imaginary"]),
    decades=st.floats(1.0, 9.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_coefficient_factor_matches_svd_oracles(d, shape, kind, decades, seed):
    """Both paths of the coefficient factor against SVD oracles.

    sigma_min / sigma_max of the whitened D is planted between 1e-1 and
    1e-9, so a family of full row rank falls on both sides of the
    triangular-factor certificate (kappa_F <= 1e6).  The oracle
    ``numpy.linalg.pinv`` is itself accurate only to about eps * kappa of the
    singular values it keeps, so M is held to max(1e-10, 10 eps kappa).
    """
    rng = np.random.default_rng(seed)
    model = random_weighted_model(rng, d)
    sw = model.sqrt_weights
    n = {"tall": max(1, d // 2), "square": d + int(rng.integers(0, d)),
         "wide": 2 * d + int(rng.integers(0, 8))}[shape]
    k = min(d, n)
    draw = random_matrix if kind == "complex" else (lambda g, a, b: g.standard_normal((a, b)))
    u, _ = np.linalg.qr(draw(rng, d, k))
    v, _ = np.linalg.qr(draw(rng, n, k))
    s = np.geomspace(1.0, 10.0**-decades, k)
    y = (u * s) @ v.conj().T * (1j if kind == "imaginary" else 1.0)
    seq = FrameSequence(model, y / sw[:, None])
    y = seq.whitened()
    q = int(rng.integers(1, 5))
    kt = y @ random_matrix(rng, n, q)  # in R(D) whatever the shape
    if n >= d:
        kt = kt + random_matrix(rng, d, q)
    K = OperatorModel(kt / sw[:, None], l2_truncation(q), model)
    kt = sw[:, None] * K.dense()

    for rcond in (1e-10, 1e-3):
        if np.min(np.abs(np.log10(s / rcond))) < 1e-2:
            continue  # a singular value on the cut: either rank is right
        kappa = 1.0 / s[s > rcond][-1]
        m = k_dual(seq, K, rcond=rcond).vectors.conj().T
        tol = max(1e-10, 10 * np.finfo(float).eps * kappa)
        assert _rel(m, np.linalg.pinv(y, rcond=rcond) @ kt) <= tol

    kappa = s[0] / s[-1]
    basis = orthonormal_range(y)
    for target in (kt, kt + random_matrix(rng, d, q)):
        op = OperatorModel(target / sw[:, None], K.input_model, model)
        oracle = max_column_gap(basis @ (basis.conj().T @ target), target, np.ones(d))
        tol = max(1e-10, 10 * np.finfo(float).eps * kappa) * max(oracle, 1.0)
        assert abs(range_inclusion(op, seq)[1] - oracle) <= tol

    A = OperatorModel((y @ random_matrix(rng, n, d)) / sw[:, None], model, model)
    assert a_dual_graph(seq, A).certificate_residual <= 1e-9


@pytest.mark.parametrize("d", [1, 63, 64, 65, 200])
@pytest.mark.parametrize("is_complex", [False, True])
def test_triangular_inverse_matches_inv(d, is_complex):
    rng = np.random.default_rng(d)
    mat = random_matrix(rng, 2 * d, d) if is_complex else rng.standard_normal((2 * d, d))
    r = np.linalg.qr(mat, mode="r")
    r_inv = triangular_inverse(r)
    assert r_inv.dtype == r.dtype
    assert not np.any(np.tril(r_inv, -1))
    assert _rel(r_inv, np.linalg.inv(r)) <= 1e-13


def test_singular_factor_takes_the_svd_path(rng, linalg_calls):
    """A zero row of the whitened D makes R exactly singular: the certified
    factor declines it and the dual comes from the SVD, without raising."""
    model = random_weighted_model(rng, 5)
    vectors = random_matrix(rng, 5, 8)
    vectors[2] = 0.0
    seq = FrameSequence(model, vectors)
    assert certified_row_factor_inverse(seq.whitened(), 1e-10) is None
    K = OperatorModel(vectors @ random_matrix(rng, 8, 3), l2_truncation(3), model)
    svd = linalg_calls("svd")
    assert k_dual(seq, K).certificate_residual <= 1e-10
    assert range_inclusion(K, seq)[0]
    assert len(svd) == 2
