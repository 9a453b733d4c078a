"""K-frames and atomic systems for bounded K between two models, and the
graph-norm specialization to a closed operator A viewed as a bounded map
from its graph space into H.

The lower constant is the optimal one over the whole space,

    alpha = inf { sum_n |inner(f, g_n)|^2 / ||K* f||^2 : K* f != 0 },

computed by minimizing out the ker(K*) components (Schur complement in
factored form).  Restricting the quotient to closure R(K) alone would
overestimate alpha whenever the frame operator couples R(K) to its
complement, breaking the equivalence with the K-dual construction; the
Schur reduction restores it.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from ._linalg import (
    adjoint_matrix,
    hermitize,
    max_column_gap,
    pencil_lower_bound,
    pinv_weighted,
)
from .errors import DegenerateOperator, InvalidDimension, RangeNotIncluded
from .opmodel import OperatorModel
from .seqops import FRAME_TOL, FrameBounds, FrameSequence
from .weakframes import DualSequence, _domain_samples

#: projection residual above this fails the range-inclusion test
RANGE_TOL = 1e-8

_DEGENERATE_TOL = 1e-14


def _check_models(seq: FrameSequence, K: OperatorModel):
    if K.codomain.dim != seq.model.dim:
        raise InvalidDimension("operator codomain must match the sequence model")


def kframe_bounds(
    seq: FrameSequence, K: OperatorModel, frame_tol: float = FRAME_TOL
) -> FrameBounds:
    """Optimal constants for alpha ||K* f||^2 <= sum |inner(f,g_n)|^2 <= beta ||f||^2."""
    _check_models(seq, K)
    x = seq.whitened().conj().T  # N x d; S-form = ||x f~||^2
    u, sv = K.whitened_svd()
    if sv.size == 0 or sv[0] <= _DEGENERATE_TOL:
        raise DegenerateOperator("K* is numerically zero")
    q = int(np.sum(sv > 1e-12 * sv[0]))
    alpha, beta = pencil_lower_bound(x, u[:, :q], np.diag(sv[:q] ** 2))
    kind = "k_frame" if alpha > frame_tol else "bessel_only"
    return FrameBounds(alpha, beta, kind)


def range_inclusion(K: OperatorModel, seq: FrameSequence, tol: float = RANGE_TOL):
    """Project the columns of K onto the range of the synthesis operator.

    Returns (included, residual) with residual the maximum relative
    projection gap over nonzero columns.
    """
    _check_models(seq, K)
    from ._linalg import orthonormal_range

    y = seq.whitened()
    kt = K.whitened()
    u = orthonormal_range(y)
    proj = u @ (u.conj().T @ kt)
    residual = max_column_gap(proj, kt, np.ones(kt.shape[0]))
    return residual <= tol, residual


def _certificate(seq, K, k_vectors, trials=100, seed=0):
    """max_f ||K f - sum_n inner(f, k_n)_J g_n|| / ||K f|| over J samples."""
    rng = np.random.default_rng(seed)
    J = K.input_model
    from .hilbert import Subspace

    fs = _domain_samples(Subspace.full(J), rng, trials)
    kf = K.apply_columns(fs)
    coeffs = k_vectors.conj().T @ (J.weights[:, None] * fs)  # N x q
    return max_column_gap(seq.vectors @ coeffs, kf, seq.model.weights)


def k_dual(
    seq: FrameSequence, K: OperatorModel, rcond: float = 1e-10, tol: float = RANGE_TOL
) -> DualSequence:
    """Minimum-norm K-dual {k_n} = {M* e_n} with M = D+ K (so K = D M)."""
    _check_models(seq, K)
    if np.linalg.norm(K.whitened()) <= _DEGENERATE_TOL:
        raise DegenerateOperator("K is numerically zero")
    included, residual = range_inclusion(K, seq, tol)
    if not included:
        raise RangeNotIncluded(
            f"R(K) is not contained in R(D): projection residual {residual:.3e}"
        )
    ones = np.ones(seq.n_vectors)
    d_pinv = pinv_weighted(seq.vectors, seq.model.weights, ones, rcond)
    m = d_pinv @ K.effective_matrix()  # N x dim_J
    k_vecs = adjoint_matrix(m, ones, K.input_model.weights)  # dim_J x N
    cert = _certificate(seq, K, k_vecs)
    return DualSequence(K.input_model, k_vecs, "k_dual_thm", cert)


def aframe_bounds_graph(
    seq: FrameSequence, A: OperatorModel, frame_tol: float = FRAME_TOL
) -> FrameBounds:
    """Bounds for alpha ||A# f||_A^2 <= sum |inner(f,g_n)|^2 <= beta ||f||^2.

    The graph-norm form of A# h has the closed factorization
    ||A# h||_A^2 = h~^H At (I + At^H At)^-1 At^H h~ with At the whitened
    domain-restricted matrix, so its support and Gram come straight from
    the SVD of At.
    """
    _check_models(seq, A)
    at = A.domain_whitened()
    u, sv, _ = np.linalg.svd(at, full_matrices=False)
    if sv.size == 0 or sv[0] <= _DEGENERATE_TOL:
        raise DegenerateOperator("operator is numerically zero")
    q = int(np.sum(sv > 1e-12 * sv[0]))
    u = u[:, :q]
    b_gram = np.diag(sv[:q] ** 2 / (1.0 + sv[:q] ** 2))
    x = seq.whitened().conj().T
    alpha, beta = pencil_lower_bound(x, u, b_gram)
    kind = "graph_a_frame" if alpha > frame_tol else "bessel_only"
    return FrameBounds(alpha, beta, kind)


def a_dual_graph(
    seq: FrameSequence, A: OperatorModel, rcond: float = 1e-10, tol: float = RANGE_TOL
) -> DualSequence:
    """Graph-space dual {k_n} with A f = sum_n inner(f, k_n)_A g_n on D(A).

    M = D+ A on the domain; each k_n solves (I + A*A) k_n = M* e'_n in
    domain coordinates, which realizes the adjoint into the graph space.
    """
    _check_models(seq, A)
    if np.linalg.norm(A.whitened()) <= _DEGENERATE_TOL:
        raise DegenerateOperator("operator is numerically zero")
    included, residual = range_inclusion(A, seq, tol)
    if not included:
        raise RangeNotIncluded(
            f"R(A) is not contained in R(D): projection residual {residual:.3e}"
        )
    w = seq.model.weights
    ones = np.ones(seq.n_vectors)
    m = pinv_weighted(seq.vectors, w, ones, rcond) @ A.effective_matrix()  # N x d
    dom = A.domain_subspace
    if dom.basis is None:
        mb = m / np.sqrt(w)[None, :]  # M in whitened full coordinates
        at = A.whitened()
    else:
        mb = m @ dom.basis
        at = A.domain_whitened()
    r = mb.shape[1]
    gram = hermitize(at.conj().T @ at)
    y = scipy.linalg.solve(np.eye(r) + gram, mb.conj().T, assume_a="pos")  # r x N
    if dom.basis is None:
        k_vecs = y / np.sqrt(w)[:, None]
    else:
        k_vecs = dom.basis @ y
    # independent certificate of the graph-inner expansion on domain samples
    rng = np.random.default_rng(0)
    fs = _domain_samples(dom, rng, 100)
    af = A.apply_columns(fs)
    # inner(f, k_n)_A = y_n^H (I + gram) c_f in domain coordinates
    if dom.basis is None:
        cf = np.sqrt(w)[:, None] * fs
    else:
        cf = dom.basis.conj().T @ (w[:, None] * fs)
    coeffs = ((np.eye(r) + gram) @ y).conj().T @ cf  # N x q
    cert = max_column_gap(seq.vectors @ coeffs, af, w)
    return DualSequence(seq.model, k_vecs, "k_dual_thm", cert, graph_space=True)
