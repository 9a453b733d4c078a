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
    _DUAL_RCOND,
    _real_matmul,
    adjoint_matrix,
    factor,
    max_column_gap,
    pencil_lower_bound,  # noqa: F401 - an import site perfbench's tracer tests wrap
    whiten_matrix,
)
from .errors import DegenerateOperator, InvalidDimension, RangeNotIncluded
from .opmodel import OperatorModel, _graph_solve
from .seqops import FrameBounds, FrameSequence, _operator_bounds
from .weakframes import DualSequence

#: projection residual above this fails the range-inclusion test
RANGE_TOL = 1e-8


def kframe_bounds(seq: FrameSequence, K: OperatorModel) -> FrameBounds:
    """Optimal constants for alpha ||K* f||^2 <= sum |inner(f,g_n)|^2 <= beta ||f||^2."""
    return _operator_bounds(seq, K, "k_frame")


def range_inclusion(K: OperatorModel, seq: FrameSequence):
    """Project the columns of K onto the range of the synthesis operator D.

    Returns (included, residual) with residual the maximum relative
    projection gap over nonzero columns, from ``_coefficient_factor``.
    """
    residual, _ = _coefficient_factor(seq, K)
    return residual <= RANGE_TOL, residual


def _coefficient_factor(seq: FrameSequence, K: OperatorModel, rcond=None):
    """(residual, M) from one factorization of the whitened synthesis matrix D~.

    By Douglas' lemma R(K) lies in R(D) exactly when K = D M; M = D+ K
    (N x dim_in, times W_in^(1/2); None without rcond) is the minimum-norm
    one, from ``factor``'s record, and residual is the gap of the projection
    of K~ onto R(D~) to K~.  D~ is passed as D and W^(1/2), unformed under parity.
    """
    if K.codomain.dim != seq.model.dim:
        raise InvalidDimension("operator codomain must match the sequence model")
    w_in = K.input_model.weights
    kt = whiten_matrix(K.effective_matrix(), seq.model.weights, w_in)
    proj, m = factor(seq.vectors, seq._structure, rcond, scale=seq.model.sqrt_weights).solve(kt)
    residual = max_column_gap(proj - kt, kt, np.ones(kt.shape[0]))
    if rcond is None:
        return residual, None
    if np.linalg.norm(kt) <= _DEGENERATE_TOL:
        raise DegenerateOperator("operator is numerically zero")
    if residual > RANGE_TOL:
        raise RangeNotIncluded(f"R(K) is not contained in R(D): projection residual {residual:.3e}")
    return residual, m * np.sqrt(w_in)[None, :]


def _expansion_certificate(seq, K, k_vecs, graph=False) -> float:
    """max_f ||K f - sum_n inner(f, k_n) g_n|| / ||K f|| over f in V [I | R] (V the basis of
    D(K), R 100 seeded coordinates; inner K's graph inner product if ``graph``), read
    off D = W^(1/2) (G c0 - K V), c0 the coefficients of V, against W^(1/2) K V, block by
    block (``max_column_gap`` with coeffs R)."""
    sub, kv = K.domain_subspace, K.domain_whitened()  # kv: d_out x r
    coeffs = sub.sample_coords(np.random.default_rng(0), 100)
    c0 = sub.coords(k_vecs).conj().T  # N x r
    if graph:
        ak = K.apply_columns(k_vecs)
        c0 = c0 + ((K.codomain.sqrt_weights[:, None] * kv).conj().T @ ak).conj().T
    defect = seq.model.sqrt_weights[:, None] * _real_matmul(seq.vectors, c0) - kv
    return max_column_gap(defect, kv, np.ones(kv.shape[0]), coeffs)


def k_dual(seq: FrameSequence, K: OperatorModel) -> DualSequence:
    """Minimum-norm K-dual {k_n} = {M* e_n} with M = D+ K (so K = D M).

    One factorization of D (``_coefficient_factor``) decides R(K) in R(D)
    (residual at most RANGE_TOL) and gives D+ K without forming D+.
    """
    _, m = _coefficient_factor(seq, K, _DUAL_RCOND)  # N x dim_J
    J = K.input_model
    k_vecs = adjoint_matrix(m, np.ones(seq.n_vectors), J.weights)  # dim_J x N
    cert = _expansion_certificate(seq, K, k_vecs)
    return DualSequence(J, k_vecs, "k_dual_thm", cert)


def aframe_bounds_graph(seq: FrameSequence, A: OperatorModel) -> FrameBounds:
    """Bounds for alpha ||A# f||_A^2 <= sum |inner(f,g_n)|^2 <= beta ||f||^2.

    The graph-norm form of A# h has the closed factorization
    ||A# h||_A^2 = h~^H At (I + At^H At)^-1 At^H h~ with At the whitened
    domain-restricted matrix, so its support and Gram come straight from
    the SVD of At: sigma^2 / (1 + sigma^2) on its left singular vectors.

    Closed form, exact at every d (b = 1, |n| <= d/2, ``minus_i_ddx_periodic``
    on d points of [0, 1), h = 1/d): the distinct exponentials e_k are an
    orthonormal eigenbasis of A, sigma_k = |sin(2 pi k/d)| / h, and n = +-d/2
    alias to one vector, held twice.  The family's form is sum_k c_k |f_k|^2,
    c_k in {1, 2} (beta = 2), the graph form sum_k sigma_k^2/(1 + sigma_k^2)
    |f_k|^2, so alpha = min_k c_k (1 + 1/sigma_k^2) = 1 + h^2 at k = d/4.
    """
    return _operator_bounds(seq, A, "graph_a_frame", graph=True)


def a_dual_graph(seq: FrameSequence, A: OperatorModel) -> DualSequence:
    """Graph-space dual {k_n} with A f = sum_n inner(f, k_n)_A g_n on D(A).

    M = D+ A on the domain, from the one factorization of D that also
    decides R(A) in R(D), as in ``k_dual``; k_n is the graph-space
    representer of f -> (M f)_n, the adjoint of M into the graph space.
    """
    k_vecs = _graph_solve(A, _coefficient_factor(seq, A, _DUAL_RCOND)[1])
    cert = _expansion_certificate(seq, A, k_vecs, graph=True)
    return DualSequence(seq.model, k_vecs, "k_dual_thm", cert, graph_space=True)
