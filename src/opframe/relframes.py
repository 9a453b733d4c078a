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

from ._linalg import (
    _DEGENERATE_TOL,
    _RANK_TOL,
    adjoint_matrix,
    certified_row_factor_inverse,
    max_column_gap,
    pencil_lower_bound,  # noqa: F401 - an import site perfbench's tracer tests wrap
    rank_cut,
    thin_svd,
    whiten_matrix,
)
from .errors import DegenerateOperator, InvalidDimension, RangeNotIncluded
from .hilbert import Subspace
from .opmodel import OperatorModel, _graph_solve
from .seqops import FRAME_TOL, FrameBounds, FrameSequence, _operator_bounds
from .weakframes import DualSequence

#: projection residual above this fails the range-inclusion test
RANGE_TOL = 1e-8


def kframe_bounds(
    seq: FrameSequence, K: OperatorModel, frame_tol: float = FRAME_TOL
) -> FrameBounds:
    """Optimal constants for alpha ||K* f||^2 <= sum |inner(f,g_n)|^2 <= beta ||f||^2."""
    return _operator_bounds(seq, K, "k_frame", frame_tol)


def range_inclusion(K: OperatorModel, seq: FrameSequence, tol: float = RANGE_TOL):
    """Project the columns of K onto the range of the synthesis operator D.

    Returns (included, residual) with residual the maximum relative
    projection gap over nonzero columns, from ``_coefficient_factor``.
    """
    residual, _ = _coefficient_factor(seq, K)
    return residual <= tol, residual


def _coefficient_factor(seq: FrameSequence, K: OperatorModel, rcond=None, tol=RANGE_TOL):
    """(residual, M) from one factorization of the whitened synthesis matrix D~.

    By Douglas' lemma R(K) lies in R(D) exactly when K = D M; M = D+ K
    (N x dim_in, times W_in^(1/2); None without rcond) is the minimum-norm
    one.  A certified R of D~^H = Q R gives D~^H R^-1 R^-H K~, corrected
    once, and the gap of D~ M to K~; else one SVD D~ = U S V^H gives the gap
    to U above _RANK_TOL sigma_max and V S^-1 U^H K~ above rcond sigma_max.
    """
    if K.codomain.dim != seq.model.dim:
        raise InvalidDimension("operator codomain must match the sequence model")
    w_in = K.input_model.weights
    kt = whiten_matrix(K.effective_matrix(), seq.model.weights, w_in)
    y = seq.whitened()
    r_inv = certified_row_factor_inverse(y, _RANK_TOL if rcond is None else rcond)
    if r_inv is not None:  # the seminormal solve, then one corrective step
        m = proj = 0.0
        for _ in range(2):
            m = m + y.conj().T @ (r_inv @ (r_inv.conj().T @ (kt - proj)))
            proj = y @ m
    else:
        u, s, vh = thin_svd(y)
        r = rank_cut(s, _RANK_TOL)
        p = 0 if rcond is None else rank_cut(s, rcond)  # no M for range_inclusion
        c = u[:, :max(r, p)].conj().T @ kt
        proj, m = u[:, :r] @ c[:r], vh[:p].conj().T @ (c[:p] / s[:p, None])
    residual = max_column_gap(proj, kt, np.ones(kt.shape[0]))
    if rcond is None:
        return residual, None
    if np.linalg.norm(kt) <= _DEGENERATE_TOL:
        raise DegenerateOperator("operator is numerically zero")
    if residual > tol:
        raise RangeNotIncluded(f"R(K) is not contained in R(D): projection residual {residual:.3e}")
    return residual, m * np.sqrt(w_in)[None, :]


def _expansion_certificate(seq, K, k_vecs, sub: Subspace, graph=False) -> float:
    """max_f ||K f - sum_n inner(f, k_n) g_n|| / ||K f|| over the basis of sub and
    100 seeded random members; inner is K's graph inner product if ``graph``."""
    fs = sub.samples(np.random.default_rng(0), 100)
    kf = K.apply_columns(fs)
    coeffs = k_vecs.conj().T @ (K.input_model.weights[:, None] * fs)  # N x samples
    if graph:
        ak = K.apply_columns(k_vecs)
        coeffs = coeffs + ak.conj().T @ (K.codomain.weights[:, None] * kf)
    return max_column_gap(seq.vectors @ coeffs, kf, seq.model.weights)


def k_dual(
    seq: FrameSequence, K: OperatorModel, rcond: float = 1e-10, tol: float = RANGE_TOL
) -> DualSequence:
    """Minimum-norm K-dual {k_n} = {M* e_n} with M = D+ K (so K = D M).

    One factorization of D (``_coefficient_factor``) decides R(K) in R(D)
    (residual at most tol) and gives D+ K without forming D+.
    """
    _, m = _coefficient_factor(seq, K, rcond, tol)  # N x dim_J
    J = K.input_model
    k_vecs = adjoint_matrix(m, np.ones(seq.n_vectors), J.weights)  # dim_J x N
    cert = _expansion_certificate(seq, K, k_vecs, Subspace.full(J))
    return DualSequence(J, k_vecs, "k_dual_thm", cert)


def aframe_bounds_graph(
    seq: FrameSequence, A: OperatorModel, frame_tol: float = FRAME_TOL
) -> FrameBounds:
    """Bounds for alpha ||A# f||_A^2 <= sum |inner(f,g_n)|^2 <= beta ||f||^2.

    The graph-norm form of A# h has the closed factorization
    ||A# h||_A^2 = h~^H At (I + At^H At)^-1 At^H h~ with At the whitened
    domain-restricted matrix, so its support and Gram come straight from
    the SVD of At: sigma^2 / (1 + sigma^2) on its left singular vectors.
    """
    return _operator_bounds(seq, A, "graph_a_frame", frame_tol, graph=True)


def a_dual_graph(
    seq: FrameSequence, A: OperatorModel, rcond: float = 1e-10, tol: float = RANGE_TOL
) -> DualSequence:
    """Graph-space dual {k_n} with A f = sum_n inner(f, k_n)_A g_n on D(A).

    M = D+ A on the domain, from the one factorization of D that also
    decides R(A) in R(D), as in ``k_dual``; k_n is the graph-space
    representer of f -> (M f)_n, the adjoint of M into the graph space.
    """
    k_vecs = _graph_solve(A, _coefficient_factor(seq, A, rcond, tol)[1])
    cert = _expansion_certificate(seq, A, k_vecs, A.domain_subspace, graph=True)
    return DualSequence(seq.model, k_vecs, "k_dual_thm", cert, graph_space=True)
