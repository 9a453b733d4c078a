"""Sequence-level operator machinery: analysis, synthesis, optimal bounds, reconstruction,
and the canonical dual, the K = I case of the minimum-norm duals, one ``factor`` solve.

A :class:`FrameSequence` stores the family {g_n} as the columns of a
dim x N matrix over a weighted model: float64 when the columns are given
with a real dtype (float or integer), complex128 otherwise.  The dtype
follows the input, never its values, and neither the bounds, the canonical
dual, analysis nor synthesis copies a real family to complex.  All spectra
are computed on the whitened Hermitian forms, so self-adjointness is exact
under quadrature weights: with Y = W^(1/2) G, the frame operator and the
Gram matrix share their nonzero spectrum through Y Y^H and Y^H Y.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ._linalg import (
    _DEGENERATE_TOL,
    _classify,
    _is_wide,
    _real_matmul,
    as_complex_vector,
    factor,
    gram_form,
    hermitize,
    max_column_gap,
    pencil_lower_bound,
    real_or_complex,
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
    """An indexed finite family stored as matrix columns: float64 for real-typed
    input (float or integer), complex128 for anything else."""

    model: HilbertModel
    vectors: np.ndarray  # dim x N
    index_labels: Optional[Sequence[int]] = None

    def __post_init__(self):
        v = real_or_complex(self.vectors)
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

    @functools.cached_property
    def _structure(self):
        """The ``_linalg._classify`` record of the whitened family, from its one scan."""
        return _classify(self.vectors, self.model.sqrt_weights)


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
    return _real_matmul(seq.vectors.conj().T, seq.model.weights * f)


def synthesis(seq: FrameSequence, c) -> np.ndarray:
    """Weighted column sum sum_n c_n g_n."""
    c = as_complex_vector(c, seq.n_vectors)
    return _real_matmul(seq.vectors, c)


def _whitened_spectrum(family) -> np.ndarray:
    """Full spectrum of Y Y^H for the whitened family Y (dim x N, zero columns allowed) of a
    sequence or dual, via the smaller Gram of ``gram_form``'s z, z z^T = Y Y^H: real for a
    mirrored, real or imaginary family, whose conj() is itself, not a copy of Y."""
    z = gram_form(family.vectors, family._structure, family.model.sqrt_weights)
    d, n = z.shape
    vals = np.linalg.eigvalsh(hermitize(z.conj().T @ z if n <= d else z @ z.conj().T))
    return np.sort(np.concatenate([np.zeros(max(d - n, 0)), np.clip(vals, 0.0, None)]))


def frame_bounds(seq: FrameSequence) -> FrameBounds:
    """Optimal constants alpha = lambda_min(S), beta = lambda_max(S); a frame
    when alpha > FRAME_TOL * beta (relative; operator bounds: alpha > FRAME_TOL)."""
    spec = _whitened_spectrum(seq)
    alpha, beta = float(spec[0]), float(spec[-1])
    kind = "frame" if alpha > FRAME_TOL * max(beta, 1e-300) else "bessel_only"
    return FrameBounds(alpha, beta, kind)


def _operator_bounds(
    seq: FrameSequence,
    op: OperatorModel,
    kind: str,
    graph: bool = False,
    subspace: Optional[Subspace] = None,
) -> FrameBounds:
    """Optimal constants of alpha ||T f||^2 <= sum_n |inner(f, g_n)|^2 <= beta ||f||^2.

    T = op* with f ranging over ``subspace`` (all of H when None), or the
    graph adjoint op# (Gram sigma^2 / (1 + sigma^2)) when ``graph`` is set.
    In orthonormal coordinates of the subspace the family is the factor X,
    as ``gram_form``'s z (z z^T = X^H X; real for a mirrored, real or
    imaginary family) over all of H or a selection, which only scale or slice
    its rows, and T is M^H, M the restricted whitened operator; the pencil
    multiplies by the inverse factor from ``_reference_factor`` and reduces
    X, a fresh array either way, in place.
    The family is ``kind`` when alpha > FRAME_TOL, an absolute rule that
    never reads beta; beta is computed on its first read.
    """
    if op.codomain.dim != seq.model.dim:
        raise InvalidDimension("operator codomain must match the sequence model")
    v = subspace if subspace is not None else Subspace.full(op.codomain)
    if v.basis is None:  # rows scaled or sliced keep the column mirror and the real form
        rows = slice(None) if v.index is None else v.index
        y = gram_form(seq.vectors[rows], seq._structure, seq.model.sqrt_weights[rows])
    else:
        y = v.coords(seq.vectors)  # r x N; S-form = ||y^H c||^2
        if _is_wide(y):  # the pencil row-reduces it as it is given
            y = gram_form(y, _classify(y))
    alpha, beta = pencil_lower_bound(y, *_reference_factor(op, v, graph))
    return FrameBounds(alpha, beta, kind if alpha > FRAME_TOL else "bessel_only")


def _reference_factor(op: OperatorModel, v: Subspace, graph: bool):
    """(U, L^-H) for the pencil, with U the support of T in coordinates of v (None for all of v)
    and L L^H the Gram of ||T f||^2 there: a projection's whitened basis as ``gram_form``'s z, an
    orthonormal basis of the same range (real for a real basis, such as ``pw_example``'s band
    basis, or a conjugate-closed one), with unit singular values; else, from ``factor`` of M,
    T = M^H, the certified record's dense inverse (kappa_F <= _DIRECT_COND proves full rank),
    not tried for the graph bound nor when ||M||_F <= sqrt(r) _DEGENERATE_TOL, so that a
    numerically zero operator still raises; or M's support U and 1/sigma there
    (sigma / sqrt(1 + sigma^2) for the graph bound)."""
    sub = op.projection
    if v.is_full and sub is not None and op.domain is None:
        # contiguous, as gram_form of a complex basis with zero imaginary part is its strided
        # real view, which sends the pencil's products to other BLAS kernels than the real basis
        u = np.ascontiguousarray(gram_form(sub.whitened_basis(), sub._structure))
        sv = np.ones(sub.rank)
    else:
        m = v.whitened_coords(op.whitened())  # r x dim_in
        certify = not graph and np.linalg.norm(m) > np.sqrt(v.rank) * _DEGENERATE_TOL
        fac = factor(m, _classify(m), certify=certify)
        if fac.s is None:  # the dense R^-1, or G^-1 under reflection parity
            return None, fac.inverse()
        u, sv = fac.u, fac.s
    if sv.size == 0 or sv[0] <= _DEGENERATE_TOL:
        raise DegenerateOperator("operator is numerically zero")
    if graph:
        sv = sv / np.sqrt(1.0 + sv**2)
    return u, 1.0 / sv[:u.shape[1]]


def canonical_dual(seq: FrameSequence) -> FrameSequence:
    """The dual family {S^-1 g_n}: the K = I case of the minimum-norm duals, W^(-1/2) M^H for
    M = y+ (y = W^(1/2) G) solved by ``factor``'s record against I.  NotAFrame when N < dim or
    sigma_min <= sqrt(FRAME_TOL) sigma_max, i.e. lambda_min(S) <= FRAME_TOL lambda_max(S), which
    a record certified at that cut excludes (sigma_min / sigma_max >= 1 / kappa_F)."""
    if seq.n_vectors < seq.model.dim:
        raise NotAFrame("sequence has fewer columns than the model dimension")
    cut, sqrt_w = np.sqrt(FRAME_TOL), seq.model.sqrt_weights
    fac = factor(seq.vectors, seq._structure, cut, scale=sqrt_w)
    if fac.s is not None and fac.s[-1] <= cut * fac.s[0]:
        raise NotAFrame(f"frame operator nearly singular (lambda_min={fac.s[-1]**2:.3e}, "
                        f"lambda_max={fac.s[0]**2:.3e})")
    m = fac.solve(np.eye(seq.model.dim))[1]
    return FrameSequence(seq.model, m.conj().T / sqrt_w[:, None], seq.index_labels)


def reconstruct(seq: FrameSequence, dual: FrameSequence, f):
    """sum_n inner(f, h_n) g_n and its relative error against f."""
    if dual.model.dim != seq.model.dim or dual.n_vectors != seq.n_vectors:
        raise InvalidDimension("sequence and dual must share model and length")
    f = as_complex_vector(f, seq.model.dim)
    rec = synthesis(seq, analysis(dual, f))
    return rec, max_column_gap((rec - f)[:, None], f[:, None], seq.model.weights)
