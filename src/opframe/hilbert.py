"""Finite-dimensional Hilbert-space models with quadrature weights.

A :class:`HilbertModel` is C^dim equipped with the inner product

    inner(f, g) = sum_i w_i * f_i * conj(g_i),

linear in the first slot.  Continuous spaces are modeled on uniform midpoint
grids carrying uniform weights h = (interval length) / dim, which keeps the
discrete orthogonality of sampled exponentials exact.  Domains (Dirichlet
conditions, operator domains) and projection ranges are :class:`Subspace`
values: a matrix of columns orthonormal with respect to the weighted inner
product, or, for a coordinate subspace such as the Dirichlet one, just the
selected indices, whose implied basis e_i / sqrt(w_i) is never stored.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ._linalg import _classify, _real_matmul, _Structure, as_complex_vector, real_or_complex
from .errors import EmptySpan, InvalidDimension

#: ``orthonormalize`` drops a column with residual below this times the largest column norm
_DROP_TOL = 1e-10


@dataclass(frozen=True)
class HilbertModel:
    """A weighted finite-dimensional complex inner-product space.

    points is optional grid metadata (coordinates of the quadrature nodes)
    used by the named constructions; abstract l2 truncations leave it None.
    """

    dim: int
    weights: np.ndarray
    label: str = ""
    points: Optional[np.ndarray] = field(default=None, compare=False)

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float).reshape(-1)
        if self.dim < 1:
            raise InvalidDimension("model dimension must be positive")
        if w.shape[0] != self.dim:
            raise InvalidDimension("weights length must equal dim")
        if not np.all(np.isfinite(w)):
            raise InvalidDimension("quadrature weights must be finite")
        if not np.all(w > 0.0):
            raise InvalidDimension("all quadrature weights must be strictly positive")
        object.__setattr__(self, "weights", w)
        if self.points is not None:
            p = np.asarray(self.points, dtype=float).reshape(-1)
            if p.shape[0] != self.dim:
                raise InvalidDimension("points length must equal dim")
            object.__setattr__(self, "points", p)

    @property
    def sqrt_weights(self):
        return np.sqrt(self.weights)


def l2_truncation(dim, label=None):
    """Truncated l2 model: unit weights."""
    return HilbertModel(dim, np.ones(dim), label or f"l2 truncation N={dim}")


def interval_grid(dim, x0=0.0, x1=1.0, label=None):
    """Uniform midpoint grid on [x0, x1), x1 > x0, with uniform weights h = (x1-x0)/dim, refused
    unless h and dim (2/h)^2 are finite in float64 and the nodes distinct."""
    if dim < 1:
        raise InvalidDimension("model dimension must be positive")
    if not x1 > x0:
        raise InvalidDimension(f"'x1' must exceed x0 = {x0:g}, got {x1:g}")
    h = (x1 - x0) / dim
    if not np.isfinite(h):  # x1 - x0 overflows
        raise InvalidDimension(f"'x1' - x0 must be finite, got {x1:g} - {x0:g}")
    # dim (2/h)^2 bounds the squared Frobenius norm of a first difference on the grid, and a
    # second difference's 1/h^2; either overflowing makes a stencil or its norm nonfinite
    if h < 2.0 * np.sqrt(dim) * np.finfo(np.float64).max ** -0.5:
        raise InvalidDimension(f"'x1' = {x1!r} is too close to x0 = {x0!r}: the grid step {h:g} "
                               f"has no finite {dim} (2/h)^2 in float64")
    pts = x0 + (np.arange(dim) + 0.5) * h
    if not np.all(pts[1:] > pts[:-1]):  # a step below the spacing of float64 near x0
        raise InvalidDimension(f"'x1' = {x1!r} is too close to x0 = {x0!r} for {dim} "
                               f"distinct grid nodes in float64")
    return HilbertModel(dim, np.full(dim, h),
                        label or f"L2({x0:g},{x1:g}) uniform grid d={dim}", points=pts)


def window_grid(dim, x0, x1, label=None):
    """Windowed real-line model: same layout as interval_grid, periodic use."""
    return interval_grid(dim, x0, x1, label or f"windowed R [{x0:g},{x1:g}) d={dim}")


def norm(model: HilbertModel, f) -> float:
    f = as_complex_vector(f, model.dim)
    return float(np.sqrt(np.sum(model.weights * np.abs(f) ** 2)))


@dataclass(frozen=True)
class Subspace:
    """A subspace of a model, in one of three forms.

    basis is finite and dim x r with basis^H W basis = I_r, stored as float64
    when given a real dtype (float or integer) and as complex128 otherwise:
    the input's dtype decides, never its values.  index (the selection form)
    is a strictly increasing array of r coordinates whose implied basis is
    e_i / sqrt(w_i); coords and project are then slices and scatters, and
    ``dense`` materializes the basis for the consumers that need a matrix.
    With neither, the subspace is the whole ambient space, implied basis
    e_i / sqrt(w_i) for all i (large models stay cheap).  Certificates
    sample basis @ [I | R] (``sample_coords``) in coordinates.
    """

    ambient: HilbertModel
    basis: Optional[np.ndarray]  # None == full space or selection form
    index: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.basis is not None and self.index is not None:
            raise InvalidDimension("give at most one of basis and index")
        if self.basis is not None:
            b = real_or_complex(self.basis)
            if b.ndim != 2 or b.shape[0] != self.ambient.dim:
                raise InvalidDimension("basis must be dim x r")
            if not np.all(np.isfinite(b)):
                raise InvalidDimension("basis must be finite")
            object.__setattr__(self, "basis", b)
        if self.index is not None:
            idx = np.asarray(self.index)
            if idx.ndim != 1 or (idx.size and not np.issubdtype(idx.dtype, np.integer)):
                raise InvalidDimension("index must be a 1-d integer array")
            if idx.size and (idx[0] < 0 or idx[-1] >= self.ambient.dim
                             or np.any(idx[1:] <= idx[:-1])):
                raise InvalidDimension(
                    f"index must be strictly increasing in [0, {self.ambient.dim})"
                )
            object.__setattr__(self, "index", idx.astype(np.intp))

    @classmethod
    def full(cls, model: HilbertModel) -> "Subspace":
        return cls(model, None)

    @classmethod
    def selection(cls, model: HilbertModel, index) -> "Subspace":
        """The span of the coordinate vectors e_i, i in index."""
        return cls(model, None, index)

    @property
    def is_full(self) -> bool:
        return self.basis is None and self.index is None

    @property
    def rank(self) -> int:
        if self.index is not None:
            return self.index.size
        return self.ambient.dim if self.basis is None else self.basis.shape[1]

    def dense(self) -> Optional[np.ndarray]:
        """The dim x r basis, None for the whole space; the selection form
        scatters e_i / sqrt(w_i) into a new float64 array here."""
        if self.index is None:
            return self.basis
        out = np.zeros((self.ambient.dim, self.index.size))
        out[self.index, np.arange(self.index.size)] = 1.0 / self.ambient.sqrt_weights[self.index]
        return out

    def whitened_basis(self) -> np.ndarray:
        """Vw = W^(1/2) basis (dim x r, l2-orthonormal; identity columns if implied)."""
        if self.basis is not None:
            return self.ambient.sqrt_weights[:, None] * self.basis
        pos = np.arange(self.ambient.dim)  # no dim x dim identity for a selection
        return (pos[:, None] == (pos if self.index is None else self.index)).astype(float)

    @functools.cached_property
    def _structure(self):
        """The ``_linalg._classify`` record of the whitened basis: real when it is implied."""
        b = self.basis
        return _Structure(1.0) if b is None else _classify(b, self.ambient.sqrt_weights)

    def sample_coords(self, rng, trials) -> np.ndarray:
        """Complex Gaussian coordinates (rank x trials, real parts drawn first)."""
        shape = (self.rank, trials)
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    def coords(self, f):
        """Orthonormal coordinates of the projection of f onto the subspace; real for a real
        basis and real columns."""
        f = self._as_columns_or_vector(f)
        if self.basis is not None:  # weights a new array, never the basis (a real one's conj())
            wb = self.basis.T * self.ambient.weights
            return _real_matmul(np.conjugate(wb, out=wb), f)
        sw = self.ambient.sqrt_weights
        if self.index is not None:
            sw, f = sw[self.index], f[self.index]
        return (sw if f.ndim == 1 else sw[:, None]) * f

    def whitened_coords(self, mat) -> np.ndarray:
        """Vw^H mat with Vw = W^(1/2) basis: orthonormal coordinates of the
        columns of mat, given in whitened (plain l2) coordinates.  A row
        slice for the selection form, mat itself for the whole space."""
        if self.index is not None:
            return mat[self.index]
        if self.basis is None:
            return mat
        return _real_matmul((self.ambient.sqrt_weights[:, None] * self.basis).conj().T, mat)

    def project(self, f):
        f = self._as_columns_or_vector(f)
        if self.index is not None:
            out = np.zeros_like(f)
            out[self.index] = f[self.index]
            return out
        if self.basis is None:
            return f
        return _real_matmul(self.basis, self.coords(f))

    def _as_columns_or_vector(self, f):
        """Columns keep a real dtype (``real_or_complex``); a vector is made complex."""
        f = np.asarray(f)
        if f.ndim == 2:
            f = real_or_complex(f)
            if f.shape[0] != self.ambient.dim:
                raise InvalidDimension("columns must have ambient dimension")
            return f
        return as_complex_vector(f, self.ambient.dim)


def orthonormalize(vectors, model: HilbertModel) -> Subspace:
    """Gram-Schmidt against the model inner product, as thin QRs of W^(1/2) V.

    |R_jj| is column j's residual against the columns before it.  The first
    column whose residual is below _DROP_TOL (relative to the largest input
    column norm) is dropped, as the QR gives it a roundoff direction that could
    absorb a later column Gram-Schmidt keeps; the columns after it, projected
    twice off those before it, are refactored in a window as wide as the last
    step advanced (twice that after no drop).  A full-rank input costs one QR;
    columns keep Gram-Schmidt's phase.  Real-typed vectors (``real_or_complex``)
    get a float64 basis from real QRs.
    """
    v = real_or_complex(vectors)
    if v.ndim == 1:
        v = v[:, None]
    if v.shape[0] != model.dim:
        raise InvalidDimension("vectors must have model.dim rows")
    if not np.all(np.isfinite(v)):  # LAPACK returns NaN rather than raising
        raise InvalidDimension("vectors must be finite")
    rest = model.sqrt_weights[:, None] * v
    scale = float(np.max(np.linalg.norm(rest, axis=0), initial=0.0))
    if scale <= 0.0:
        raise EmptySpan("all input columns are zero")
    basis, width = rest[:, :0], rest.shape[1]
    while rest.shape[1] and basis.shape[1] < model.dim:
        block = rest[:, :width]
        for _ in range(2 if basis.shape[1] else 0):
            block = block - basis @ (basis.conj().T @ block)
        q, r = np.linalg.qr(block)
        small = np.flatnonzero(np.abs(np.diagonal(r)) < _DROP_TOL * scale)
        keep = small[0] if small.size else q.shape[1]
        phase = np.diagonal(r)[:keep]
        basis = np.hstack([basis, q[:, :keep] * (phase / np.abs(phase))])
        rest = rest[:, keep + 1 if small.size else block.shape[1]:]
        width = min(keep + 1 if small.size else 2 * width, model.dim - basis.shape[1])
    if not basis.shape[1]:
        raise EmptySpan("input columns are numerically zero")
    return Subspace(model, basis / model.sqrt_weights[:, None])
