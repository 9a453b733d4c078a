"""Weak frame inequalities and constructive weak duals for densely defined
operators, at finite truncation.

The lower bound quantifies only over the declared adjoint domain V = D(A*):

    alpha = inf { sum_n |inner(f, g_n)|^2 / ||A* f||^2 : f in V, A* f != 0 }.

The infimum is taken over all of V, so components of f in ker(A*) are
minimized out (a Schur complement in factored form, see
:func:`opframe._linalg.pencil_lower_bound`).  The constructive dual follows
the minimum-norm factorization: restrict the analysis operator to V, extend
its adjoint by the full synthesis matrix, and solve A = B* M for the
minimum-norm M.  A strong expansion may still fail to converge; that is
measured, never raised (see the ``strong_residual_min`` check), and only a
failed *weak* factorization raises.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from ._linalg import (
    adjoint_matrix,
    as_complex_vector,
    hermitize,
    max_column_gap,
    pencil_lower_bound,  # noqa: F401 - an import site perfbench's tracer tests wrap
    pinv_weighted,
    thin_svd,
)
from .errors import FactorizationFailed, InvalidDimension, NotSurjective
from .hilbert import HilbertModel
from .opmodel import OperatorModel, adjoint
from .seqops import FRAME_TOL, FrameBounds, FrameSequence, _operator_bounds, analysis

PRODUCERS = ("weak_a_dual_thm", "k_dual_thm", "interchange_thm", "canonical", "user")

#: weak factorization residual beyond this (relative) raises FactorizationFailed
FACTORIZATION_TOL = 1e-8


@dataclass(frozen=True)
class DualSequence:
    """A constructed companion family, tagged with its producing theorem.

    ``bessel_bound`` is computed on first access and cached; constructing a
    dual computes no spectrum.
    """

    model: HilbertModel
    vectors: np.ndarray
    producer: str
    certificate_residual: float
    graph_space: bool = False

    def __post_init__(self):
        if self.producer not in PRODUCERS:
            raise InvalidDimension(f"unknown producer {self.producer!r}")
        v = np.asarray(self.vectors, dtype=complex)
        if v.ndim != 2 or v.shape[0] != self.model.dim:
            raise InvalidDimension("dual vectors must be model.dim x N")
        if not np.isfinite(v).all():
            raise InvalidDimension("dual vectors hold a non-finite entry")
        object.__setattr__(self, "vectors", v)

    @functools.cached_property
    def bessel_bound(self) -> float:
        """The optimal Bessel bound lambda_max of the Gram of the dual."""
        y = self.whitened()
        if not y.size:
            return 0.0
        return float(np.linalg.eigvalsh(hermitize(y.conj().T @ y))[-1])

    @property
    def n_vectors(self) -> int:
        return self.vectors.shape[1]

    def whitened(self) -> np.ndarray:
        return self.model.sqrt_weights[:, None] * self.vectors

    def as_frame_sequence(self) -> FrameSequence:
        return FrameSequence(self.model, self.vectors)


def user_dual(model: HilbertModel, vectors, certificate_residual=float("nan")):
    return DualSequence(model, vectors, "user", certificate_residual)


# -- bound ----------------------------------------------------------------


def weak_aframe_bound(
    seq: FrameSequence, A: OperatorModel, frame_tol: float = FRAME_TOL
) -> FrameBounds:
    """Optimal weak lower constant over D(A*); beta is diagnostic only.

    beta reports lambda_max of the frame operator restricted to D(A*); a
    weak frame carries no global upper-bound requirement.
    """
    return _operator_bounds(seq, A, "weak_a_frame", frame_tol, subspace=A.adjoint_domain)


# -- constructive dual -----------------------------------------------------


def weak_a_dual(seq: FrameSequence, A: OperatorModel, rcond=1e-10) -> DualSequence:
    """Construct the Bessel weak dual {t_n} = {M* e_n} of a weak frame.

    M is the minimum-norm solution of P_V (G M - A) = 0, where V = D(A*).
    Raises FactorizationFailed when even this projected (weak) equation
    cannot be met, which signals that the weak lower bound was spurious.
    """
    w = seq.model.weights
    ones = np.ones(seq.n_vectors)
    v = A.adjoint_domain_subspace
    # P_V applied to columns: a row mask for a selection subspace
    g_v, a_v = v.project(seq.vectors), v.project(A.effective_matrix())
    m = pinv_weighted(g_v, w, ones, rcond) @ a_v
    wt = np.sqrt(w)[:, None]
    weak_res = np.linalg.norm(wt * (g_v @ m - a_v))
    weak_scale = np.linalg.norm(wt * a_v)
    if weak_res > FACTORIZATION_TOL * max(weak_scale, 1e-300):
        raise FactorizationFailed(
            f"projected factorization residual {weak_res:.3e} exceeds "
            f"{FACTORIZATION_TOL:.1e} * {weak_scale:.3e}"
        )
    t = adjoint_matrix(m, ones, w)  # d x N
    dual = DualSequence(seq.model, t, "weak_a_dual_thm", float("nan"))
    return replace(dual, certificate_residual=verify_weak_duality(seq, dual, A))


# -- verification ----------------------------------------------------------


def verify_weak_duality(
    seq: FrameSequence,
    dual: DualSequence,
    A: OperatorModel,
    trials: int = 100,
    seed: int = 0,
    hs: Optional[np.ndarray] = None,
    us: Optional[np.ndarray] = None,
) -> float:
    """Max normalized residual of the weak duality identity.

    Over sampled h in D(A) and u in D(A*) (domain basis vectors plus
    `trials` random members, unless explicit columns hs/us are supplied):

        |inner(Ah, u) - sum_n inner(h, t_n) inner(g_n, u)|
        --------------------------------------------------
                     (||Ah|| ||u|| + eps)
    """
    rng = np.random.default_rng(seed)
    hs = A.domain_subspace.samples(rng, trials) if hs is None else np.asarray(hs, dtype=complex)
    if us is None:
        us = A.adjoint_domain_subspace.samples(rng, trials)
    else:
        us = np.asarray(us, dtype=complex).reshape(seq.model.dim, -1)
        us = A.adjoint_domain_subspace.project(us)
    w = seq.model.weights
    wh = np.sqrt(w)
    ah = A.apply_columns(hs)
    lhs = (wh[:, None] * us).conj().T @ (wh[:, None] * ah)  # nu x nh
    ch = dual.whitened().conj().T @ (wh[:, None] * hs)  # N x nh: inner(h, t_n)
    cg = seq.whitened().conj().T @ (wh[:, None] * us)  # N x nu: inner(u, g_n)
    rhs = cg.conj().T @ ch  # sum_n inner(h,t_n) inner(g_n,u)
    n_ah = np.sqrt(np.sum(w[:, None] * np.abs(ah) ** 2, axis=0))
    n_u = np.sqrt(np.sum(w[:, None] * np.abs(us) ** 2, axis=0))
    den = np.outer(n_u, n_ah) + 1e-300
    return float(np.max(np.abs(lhs - rhs) / den))


def adjoint_decomposition(seq: FrameSequence, dual: DualSequence, A: OperatorModel, u):
    """sum_n inner(u, g_n) t_n and its relative error against A* u."""
    v = A.adjoint_domain_subspace
    v.require_member(u, "u")
    u = as_complex_vector(u, seq.model.dim)
    vec = dual.vectors @ analysis(seq, u)
    ref = adjoint(A).apply(u)
    w = seq.model.weights
    num = np.sqrt(np.sum(w * np.abs(vec - ref) ** 2))
    den = np.sqrt(np.sum(w * np.abs(ref) ** 2))
    return vec, float(num / den) if den > 0 else float(num)


def interchange_dual(
    seq: FrameSequence, dual: DualSequence, A: OperatorModel, sigma_tol: float = 1e-8
) -> DualSequence:
    """h_n = (A+)* t_n; reconstructs every u in D(A*) when A is surjective,
    which fails (NotSurjective) when sigma_min <= sigma_tol * sigma_max."""
    if A.codomain.dim != seq.model.dim or A.input_model.dim != seq.model.dim:
        raise InvalidDimension("interchange dual expects an endomorphism model")
    at = A.domain_whitened()
    if at.shape[1] < at.shape[0]:
        raise NotSurjective(f"operator not surjective: dim D(A) = {at.shape[1]} < {at.shape[0]}")
    u, s, vh = thin_svd(at)
    if s[-1] <= sigma_tol * s[0]:
        raise NotSurjective(f"operator is not surjective (sigma_min={s[-1]:.3e}, "
                            f"sigma_max={s[0]:.3e})")
    # (A+)* = W_out^(-1/2) U S^-1 V^H Bw^H W_in^(1/2) from at = U S V^H, with
    # Bw the whitened domain basis
    t = A.domain_subspace.whitened_coords(A.input_model.sqrt_weights[:, None] * dual.vectors)
    h = ((u / s) @ (vh @ t)) / A.codomain.sqrt_weights[:, None]
    # certificate: reconstruct the adjoint-domain basis through {h_n}
    basis = A.adjoint_domain_subspace.samples()
    coeffs = seq.whitened().conj().T @ (seq.model.sqrt_weights[:, None] * basis)
    cert = max_column_gap(h @ coeffs, basis, seq.model.weights)
    return DualSequence(seq.model, h, "interchange_thm", cert)
