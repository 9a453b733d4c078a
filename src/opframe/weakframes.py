"""Weak frame inequalities and constructive weak duals for densely defined
operators, at finite truncation.

The lower bound quantifies only over the declared adjoint domain V = D(A*):

    alpha = inf { sum_n |inner(f, g_n)|^2 / ||A* f||^2 : f in V, A* f != 0 }.

The infimum is taken over all of V, so components of f in ker(A*) are
minimized out (a Schur complement in factored form, see
:func:`opframe._linalg.pencil_lower_bound`).  The constructive dual is the
K-dual's minimum-norm factorization (:func:`opframe._linalg.factor`)
taken in orthonormal coordinates of V: it solves P_V G M = P_V A for the
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
    _DUAL_RCOND,
    _classify,
    _real_matmul,
    adjoint_matrix,
    factor,
    max_column_gap,
    pencil_lower_bound,  # noqa: F401 - an import site perfbench's tracer tests wrap
    real_or_complex,
    sample_blocks,
)
from .errors import FactorizationFailed, InvalidDimension, NotSurjective
from .hilbert import HilbertModel
from .opmodel import OperatorModel
from .seqops import FrameBounds, FrameSequence, _operator_bounds, _whitened_spectrum

PRODUCERS = ("weak_a_dual_thm", "k_dual_thm", "interchange_thm", "user")

#: weak factorization residual beyond this (relative) raises FactorizationFailed
FACTORIZATION_TOL = 1e-8

#: ``interchange_dual`` calls A surjective when sigma_min > SURJECTIVITY_TOL * sigma_max
SURJECTIVITY_TOL = 1e-8


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
        v = real_or_complex(self.vectors)
        if v.ndim != 2 or v.shape[0] != self.model.dim:
            raise InvalidDimension("dual vectors must be model.dim x N")
        if not np.isfinite(v).all():
            raise InvalidDimension("dual vectors hold a non-finite entry")
        object.__setattr__(self, "vectors", v)

    _structure = FrameSequence._structure  # the record of the whitened dual, as a sequence's

    @functools.cached_property
    def bessel_bound(self) -> float:
        """The optimal Bessel bound lambda_max of the dual's Gram, sup over f in H
        of sum_n |inner(f, t_n)|^2 / ||f||^2.  A ``graph_space`` dual
        (``a_dual_graph``) gets it in H's geometry too, not over D(A) in the
        graph norm ||f||_A, so its alpha * bessel_bound is not 1 as in the
        K-frame and weak forms (0.5990 * 0.3579 = 0.214 at ``not_frame``)."""
        return float(_whitened_spectrum(self)[-1])

    @property
    def n_vectors(self) -> int:
        return self.vectors.shape[1]

    def as_frame_sequence(self) -> FrameSequence:
        return FrameSequence(self.model, self.vectors)


def user_dual(model: HilbertModel, vectors, certificate_residual=float("nan")):
    return DualSequence(model, vectors, "user", certificate_residual)


# -- bound ----------------------------------------------------------------


def weak_aframe_bound(seq: FrameSequence, A: OperatorModel) -> FrameBounds:
    """Optimal weak lower constant over D(A*); beta is diagnostic only.

    beta, computed on its first read, is lambda_max of the frame operator
    restricted to D(A*); a weak frame needs no global upper bound.

    Closed form (exm1): {e_nb(x) = exp(2 pi i n b x)}, b <= 1, is a tight
    frame for L^2(0, 1) with bound 1/b and g_n = A e_nb (A = -i d/dx), so for
    f in D(A*) sum_n |inner(f, g_n)|^2 = sum_n |inner(A* f, e_nb)|^2 =
    ||A* f||^2 / b: alpha = 1/b.  On d points with ``minus_i_ddx_H1`` and
    |n| <= d / (2b) (fewer labels miss directions), alpha - 1/b is about
    13.2 h^2 / b: order 2.006 from d = 64, 128, 256, and the Richardson
    (4 alpha_256 - alpha_128) / 3 is within 3.5e-7 relative of 1/b.
    """
    return _operator_bounds(seq, A, "weak_a_frame", subspace=A.adjoint_domain)


# -- constructive dual -----------------------------------------------------


def weak_a_dual(seq: FrameSequence, A: OperatorModel) -> DualSequence:
    """Construct the Bessel weak dual {t_n} = {M* e_n} of a weak frame.

    M is the minimum-norm solution of P_V (G M - A) = 0, where V = D(A*).
    In orthonormal coordinates of V (row slices for a selection subspace)
    that is y M = kt with y and kt the restricted whitened family and
    operator, solved by ``factor``'s record as the K-dual factorization is.
    Raises FactorizationFailed when even this projected (weak) equation
    cannot be met, which signals that the weak lower bound was spurious.
    """
    v = A.adjoint_domain_subspace
    y, kt = v.coords(seq.vectors), v.coords(A.effective_matrix())  # r x N, r x d
    # coordinates on a basis are a new family; scaled or selected rows keep the family's record
    structure = _classify(y) if v.basis is not None else seq._structure.rows(v.index, seq.model.dim)
    fac = factor(y, structure, _DUAL_RCOND)
    proj, m = fac.solve(kt)
    ym = proj if fac.s is None else y @ m  # y M, unless the SVD's proj projects onto R(y)
    weak_res, weak_scale = np.linalg.norm(ym - kt), np.linalg.norm(kt)
    del y, kt, proj, ym, fac  # freed before the certificate
    if weak_res > FACTORIZATION_TOL * max(weak_scale, 1e-300):
        raise FactorizationFailed(
            f"projected factorization residual {weak_res:.3e} exceeds "
            f"{FACTORIZATION_TOL:.1e} * {weak_scale:.3e}"
        )
    t = adjoint_matrix(m, np.ones(seq.n_vectors), seq.model.weights)  # d x N
    del m  # freed before the certificate
    dual = DualSequence(seq.model, t, "weak_a_dual_thm", float("nan"))
    return replace(dual, certificate_residual=verify_weak_duality(seq, dual, A))


# -- verification ----------------------------------------------------------


def verify_weak_duality(
    seq: FrameSequence,
    dual: DualSequence,
    A: OperatorModel,
    trials: int = 100,
    hs: Optional[np.ndarray] = None,
    us: Optional[np.ndarray] = None,
) -> float:
    """Max normalized residual of the weak duality identity.

    Over sampled h in D(A) and u in D(A*) (domain basis vectors plus
    `trials` random members from default_rng(0), unless explicit columns hs/us are supplied):

        |inner(Ah, u) - sum_n inner(h, t_n) inner(g_n, u)|
        --------------------------------------------------
                     (||Ah|| ||u|| + eps)

    Samples are V [I | R] (V the basis, R from ``Subspace.sample_coords``),
    or the probes; the defect D = Vu^H W A Vh - (Vu^H W G)(Vh^H W T)^H is formed
    once, from the dual's vectors, and read block by block: rows [I | Ru]^H
    times columns [I | Rh] (``sample_blocks``), no block concatenated.
    """
    rng, dom, adom = np.random.default_rng(0), A.domain_subspace, A.adjoint_domain_subspace
    if hs is None:
        rh, ah, th = dom.sample_coords(rng, trials), A.domain_whitened(), dom.coords(dual.vectors)
    else:  # the probes act as the basis, with no random members
        hs, w = real_or_complex(hs), seq.model.weights
        rh, ah = None, seq.model.sqrt_weights[:, None] * A.apply_columns(hs)
        th = _real_matmul((w[:, None] * hs).conj().T, dual.vectors)
    defect = adom.whitened_coords(ah) - _real_matmul(adom.coords(seq.vectors), th.conj().T)
    n_ah = [np.linalg.norm(block, axis=0) for block in sample_blocks(ah, rh)]
    del th, ah  # freed before the blocks are read
    if us is None:
        ru = adom.sample_coords(rng, trials)
        rows = [(None, np.ones(adom.rank)), (ru.conj().T, np.linalg.norm(ru, axis=0))]
    else:  # u = Vu cu, us projected onto D(A*)
        cu = adom.coords(real_or_complex(us).reshape(seq.model.dim, -1))
        rows = [(cu.conj().T, np.linalg.norm(cu, axis=0))]
    worst = []
    for block, n_col in zip(sample_blocks(defect, rh), n_ah):
        for left, n_u in rows:
            res = block if left is None else _real_matmul(left, block)
            if res.size:  # no trials, or a zero-rank domain, leaves a block empty
                worst.append(np.max(np.abs(res) / (np.outer(n_u, n_col) + 1e-300)))
    if not worst:  # no h or no u: a zero-rank domain and no trials, or probes without columns
        raise InvalidDimension(f"the weak duality sample is empty: {sum(map(len, n_ah))} h in "
                               f"D(A) and {sum(len(n_u) for _, n_u in rows)} u in D(A*)")
    return float(np.max(worst))


def interchange_dual(seq: FrameSequence, dual: DualSequence, A: OperatorModel) -> DualSequence:
    """h_n = (A+)* t_n; reconstructs every u in D(A*) when A is surjective,
    which fails (NotSurjective) when sigma_min <= SURJECTIVITY_TOL * sigma_max.

    With At the whitened A on orthonormal coordinates of D(A), (A+)* t_n is W^(-1/2) (At^H)+ t_n,
    the minimum-norm solve of At^H h = t_n by ``factor``'s record.  A certified record (s None)
    needs no sigma_min: sigma_min / sigma_max >= 1 / kappa_F > SURJECTIVITY_TOL is what
    ``factor`` certifies with rcond = SURJECTIVITY_TOL; else s decides."""
    if A.codomain.dim != seq.model.dim or A.input_model.dim != seq.model.dim:
        raise InvalidDimension("interchange dual expects an endomorphism model")
    ath = A.domain_whitened().conj().T  # At^H: dim D(A) x dim
    if ath.shape[0] < ath.shape[1]:
        raise NotSurjective(f"operator not surjective: dim D(A) = {ath.shape[0]} < {ath.shape[1]}")
    fac = factor(ath, _classify(ath), SURJECTIVITY_TOL)
    if fac.s is not None and fac.s[-1] <= SURJECTIVITY_TOL * fac.s[0]:
        raise NotSurjective(f"operator is not surjective (sigma_min={fac.s[-1]:.3e}, "
                            f"sigma_max={fac.s[0]:.3e})")
    t = A.domain_subspace.coords(dual.vectors)
    h = fac.solve(t)[1] / A.codomain.sqrt_weights[:, None]
    # certificate: rebuild the whitened basis Vw of D(A*) from (Vw^H Yw)^H
    sub, vw = A.adjoint_domain_subspace, A.adjoint_domain_subspace.whitened_basis()
    rec = seq.model.sqrt_weights[:, None] * (h @ sub.coords(seq.vectors).conj().T)
    cert = max_column_gap(rec - vw, vw, np.ones(seq.model.dim))
    return DualSequence(seq.model, h, "interchange_thm", cert)
