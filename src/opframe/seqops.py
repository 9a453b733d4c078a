"""Sequence-level operator machinery: analysis, synthesis, frame operator,
optimal bounds, canonical duals, reconstruction, partial sums.

A :class:`FrameSequence` stores the family {g_n} as the columns of a
dim x N complex matrix over a weighted model.  All spectra are computed on
the whitened Hermitian forms, so self-adjointness is exact under quadrature
weights: with Y = W^(1/2) G, the frame operator and the Gram matrix share
their nonzero spectrum through Y Y^H and Y^H Y.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ._linalg import (
    _DEGENERATE_TOL,
    _RANK_TOL,
    _row_reduced,
    as_complex_vector,
    certified_row_factor_inverse,
    hermitize,
    max_column_gap,
    pencil_lower_bound,
    rank_cut,
    thin_svd,
)
from .errors import DegenerateOperator, InvalidDimension, InvalidIndex, NotAFrame
from .hilbert import HilbertModel, Subspace
from .opmodel import OperatorModel

#: frame vs bessel_only: ``frame_bounds`` needs alpha > FRAME_TOL * beta
#: (relative); the operator bounds need alpha > FRAME_TOL (absolute, no beta)
FRAME_TOL = 1e-8

BOUND_KINDS = ("frame", "bessel_only", "k_frame", "weak_a_frame", "graph_a_frame")


def _is_label(k) -> bool:
    """A Python or numpy integer: a bool is none, and a float or string is not truncated to one."""
    return isinstance(k, (int, np.integer)) and not isinstance(k, bool)


@dataclass(frozen=True)
class FrameSequence:
    """An indexed finite family stored as matrix columns."""

    model: HilbertModel
    vectors: np.ndarray  # dim x N
    index_labels: Optional[Sequence[int]] = None

    def __post_init__(self):
        v = np.asarray(self.vectors, dtype=complex)
        if v.ndim != 2 or v.shape[0] != self.model.dim:
            raise InvalidDimension("vectors must be a model.dim x N matrix")
        if v.shape[1] < 1:
            raise InvalidDimension("a sequence needs at least one column")
        norms = np.sqrt(self.model.weights @ (np.abs(v) ** 2))
        if not np.all(np.isfinite(norms)):
            raise InvalidDimension("sequence columns must have finite norm")
        # individual zero columns are legal (e.g. a zeroed mode); an all-zero
        # family is not a sequence worth analyzing
        if not np.any(norms > 0.0):
            raise InvalidDimension("all sequence columns are zero")
        object.__setattr__(self, "vectors", v)
        labels = range(v.shape[1]) if self.index_labels is None else self.index_labels
        if isinstance(labels, np.ndarray) and labels.ndim == 1 and labels.dtype.kind in "iu":
            labels = tuple(labels.tolist())
        elif isinstance(labels, range) or np.iterable(labels) and all(
                map(_is_label, labels := tuple(labels))):  # one pass, so a generator works
            labels = tuple(map(int, labels))
        else:
            raise InvalidDimension(f"index_labels must be integers, got {labels!r:.80}")
        if len(labels) != v.shape[1]:
            raise InvalidDimension("index_labels length must equal N")
        object.__setattr__(self, "index_labels", labels)

    @property
    def n_vectors(self) -> int:
        return self.vectors.shape[1]

    def column(self, label: int) -> np.ndarray:
        try:
            j = self.index_labels.index(label if _is_label(label) else None)  # not 1.9 as 1
        except ValueError:
            raise InvalidIndex(f"label {label} not present") from None
        return self.vectors[:, j]

    def whitened(self) -> np.ndarray:
        return self.model.sqrt_weights[:, None] * self.vectors


class FrameBounds:
    """Optimal constants alpha <= beta of a frame-type inequality and the kind
    of family they make.  beta may be a zero-argument callable (the operator
    bounds pass one), run on the first read of ``beta`` and then dropped."""

    def __init__(self, alpha: float, beta, kind: str):
        if kind not in BOUND_KINDS:
            raise InvalidDimension(f"unknown bound kind {kind!r}")
        for name, value in (("alpha", alpha), ("beta", 0.0 if callable(beta) else beta)):
            if not (value >= 0.0 or np.isnan(value)):
                raise InvalidDimension(f"{name} must be nonnegative")
        self.alpha, self.kind, self._beta = alpha, kind, beta

    @property
    def beta(self) -> float:
        if callable(self._beta):
            self._beta = self._beta()
        return self._beta


def analysis(seq: FrameSequence, f) -> np.ndarray:
    """Coefficient vector (inner(f, g_1), ..., inner(f, g_N))."""
    f = as_complex_vector(f, seq.model.dim)
    return seq.vectors.conj().T @ (seq.model.weights * f)


def synthesis(seq: FrameSequence, c) -> np.ndarray:
    """Weighted column sum sum_n c_n g_n."""
    c = as_complex_vector(c, seq.n_vectors)
    return seq.vectors @ c


def gram(seq: FrameSequence) -> np.ndarray:
    y = seq.whitened()
    return y.conj().T @ y


def frame_operator(seq: FrameSequence) -> OperatorModel:
    """S = (synthesis) o (analysis); matrix G G^H W in plain coordinates."""
    s = seq.vectors @ (seq.vectors.conj().T * seq.model.weights[None, :])
    return OperatorModel(s, seq.model, seq.model, name="frame operator")


def _whitened_spectrum(y) -> np.ndarray:
    """Full spectrum of the frame operator Y Y^H of the whitened family Y
    (dim x N, zero columns allowed), via the smaller Hermitian form."""
    d, n = y.shape
    if n <= d:
        vals = np.linalg.eigvalsh(hermitize(y.conj().T @ y))
        pad = np.zeros(d - n)
        return np.sort(np.concatenate([pad, np.clip(vals, 0.0, None)]))
    vals = np.linalg.eigvalsh(hermitize(y @ y.conj().T))
    return np.sort(np.clip(vals, 0.0, None))


def frame_bounds(seq: FrameSequence, frame_tol: float = FRAME_TOL) -> FrameBounds:
    """Optimal constants alpha = lambda_min(S), beta = lambda_max(S); a frame
    when alpha > frame_tol * beta (relative; operator bounds: alpha > frame_tol)."""
    spec = _whitened_spectrum(seq.whitened())
    alpha, beta = float(spec[0]), float(spec[-1])
    kind = "frame" if alpha > frame_tol * max(beta, 1e-300) else "bessel_only"
    return FrameBounds(alpha, beta, kind)


def _operator_bounds(
    seq: FrameSequence,
    op: OperatorModel,
    kind: str,
    frame_tol: float,
    graph: bool = False,
    subspace: Optional[Subspace] = None,
) -> FrameBounds:
    """Optimal constants of alpha ||T f||^2 <= sum_n |inner(f, g_n)|^2 <= beta ||f||^2.

    T = op* with f ranging over ``subspace`` (all of H when None), or the
    graph adjoint op# (Gram sigma^2 / (1 + sigma^2)) when ``graph`` is set.
    In orthonormal coordinates of the subspace (slices for a selection) the
    family is the factor X and T is M^H, M the restricted whitened operator;
    the pencil multiplies by the inverse factor from ``_reference_factor``.
    The family is ``kind`` when alpha > frame_tol, an absolute rule that
    never reads beta; beta is computed on its first read.
    """
    if op.codomain.dim != seq.model.dim:
        raise InvalidDimension("operator codomain must match the sequence model")
    v = subspace if subspace is not None else Subspace.full(op.codomain)
    y = v.coords(seq.vectors)  # r x N; S-form = ||y^H c||^2
    alpha, beta = pencil_lower_bound(y, *_reference_factor(op, v, graph))
    return FrameBounds(alpha, beta, kind if alpha > frame_tol else "bessel_only")


def _reference_factor(op: OperatorModel, v: Subspace, graph: bool):
    """(U, L^-H) for the pencil, with U the support of T in coordinates of v
    (None for all of v) and L L^H the Gram of ||T f||^2 there: a projection's
    whitened basis with unit singular values; outside the graph bound, the
    certified R^-1 of M^H = Q R (kappa_F <= _DIRECT_COND proves full rank),
    tried only when ||M||_F > sqrt(r) _DEGENERATE_TOL so that a numerically
    zero operator still raises; else one ``thin_svd`` of M (of a wide M's R^H)
    and 1/sigma above the rank cut (sigma / sqrt(1 + sigma^2) for the graph bound)."""
    if v.is_full and op.projection is not None and op.domain is None:
        u, sv = op.whitened_svd()
    else:
        m, r = v.whitened_coords(op.whitened()), None  # r x dim_in; T = M^H
        if not graph and np.linalg.norm(m) > np.sqrt(v.rank) * _DEGENERATE_TOL:
            r, r_inv = certified_row_factor_inverse(m, _RANK_TOL)
            if r_inv is not None:
                return None, r_inv
        u, sv, _ = thin_svd(_row_reduced(m, r))
    if sv.size == 0 or sv[0] <= _DEGENERATE_TOL:
        raise DegenerateOperator("operator is numerically zero")
    q = rank_cut(sv, _RANK_TOL)
    if graph:
        sv = sv / np.sqrt(1.0 + sv**2)
    return u[:, :q], 1.0 / sv[:q]


def canonical_dual(seq: FrameSequence, frame_tol: float = FRAME_TOL) -> FrameSequence:
    """The dual family {S^-1 g_n}; requires an invertible frame operator."""
    y = seq.whitened()
    d, n = y.shape
    if n < d:
        raise NotAFrame("sequence has fewer columns than the model dimension")
    s_w = hermitize(y @ y.conj().T)
    vals = np.linalg.eigvalsh(s_w)
    if vals[0] <= frame_tol * max(vals[-1], 1e-300):
        raise NotAFrame(
            f"frame operator nearly singular (lambda_min={vals[0]:.3e}, "
            f"lambda_max={vals[-1]:.3e})"
        )
    dual_w = np.linalg.solve(s_w, y)
    return FrameSequence(
        seq.model, dual_w / seq.model.sqrt_weights[:, None], seq.index_labels
    )


def reconstruct(seq: FrameSequence, dual: FrameSequence, f):
    """sum_n inner(f, h_n) g_n and its relative error against f."""
    if dual.model.dim != seq.model.dim or dual.n_vectors != seq.n_vectors:
        raise InvalidDimension("sequence and dual must share model and length")
    f = as_complex_vector(f, seq.model.dim)
    rec = synthesis(seq, analysis(dual, f))
    return rec, max_column_gap((rec - f)[:, None], f[:, None], seq.model.weights)


def partial_synthesis(seq: FrameSequence, c, upto: int) -> np.ndarray:
    """sum_{k <= upto} c_k g_k (1-based cutoff in storage order)."""
    c = as_complex_vector(c, seq.n_vectors)
    if not 1 <= upto <= seq.n_vectors:
        raise InvalidIndex(f"upto must be in 1..{seq.n_vectors}, got {upto}")
    return seq.vectors[:, :upto] @ c[:upto]
