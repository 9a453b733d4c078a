"""Operator models with explicit domains.

An :class:`OperatorModel` is a matrix between two weighted models together
with a recorded domain subspace.  The matrix action is only trusted on the
domain: ``apply`` always projects onto it first, so what lies off the domain
is never acted on.  Adjoints are taken with respect to the weighted inner
products, and the optional ``adjoint_domain`` carries discretized boundary
conditions (e.g. the Dirichlet subspace of the -i d/dx operators).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from ._linalg import (
    _real_matmul,
    _svd,
    as_complex_vector,
    hermitize,
    real_or_complex,
    whiten_matrix,
)
from .errors import GridTooCoarse, InvalidDimension, InvalidProbe
from .hilbert import HilbertModel, Subspace, interval_grid


@dataclass(frozen=True)
class OperatorModel:
    """A linear map between models, with domain bookkeeping.

    matrix         : dim_out x dim_in matrix, or None when the operator is
                     given by ``projection`` or ``stencil``
    input_model    : model of the input space
    codomain       : model of the output space
    domain         : Subspace of input_model (None == everywhere defined)
    adjoint_domain : declared domain of the adjoint (None == full codomain)
    projection     : optional Subspace V: the weighted-orthogonal projection onto V
    stencil        : optional banded form (cols, vals), both dim_out x w:
                     row i of M holds vals[i, k] at column cols[i, k], and
                     the columns within a row are distinct

    Exactly one of ``matrix``, ``projection`` and ``stencil`` is given, and
    it must be finite and match the models' dimensions; a real-typed matrix
    or stencil is stored, and ``dense`` formed, as float64 (``real_or_complex``).
    Neither a projection nor a stencil operator stores its dim_out x dim_in matrix.
    A projection's ``apply`` and ``apply_columns`` are ``Subspace.project``,
    O(dim r) per column, and the bounds read its singular vectors off the
    whitened basis of V; a stencil operator's ``apply`` and
    ``apply_columns`` cost O(dim w) per column.  Every other consumer forms
    the matrix on demand through ``dense``, which caches nothing.
    """

    matrix: Optional[np.ndarray]
    input_model: HilbertModel
    codomain: HilbertModel
    domain: Optional[Subspace] = None
    adjoint_domain: Optional[Subspace] = None
    name: str = ""
    projection: Optional[Subspace] = None
    stencil: Optional[Tuple[np.ndarray, np.ndarray]] = None

    def __post_init__(self):
        d_out, d_in = self.codomain.dim, self.input_model.dim
        if sum(f is not None for f in (self.matrix, self.projection, self.stencil)) != 1:
            raise InvalidDimension("give exactly one of matrix, projection and stencil")
        if self.stencil is not None:
            cols, vals = np.asarray(self.stencil[0]), real_or_complex(self.stencil[1])
            if cols.ndim != 2 or cols.shape != vals.shape or cols.shape[0] != d_out:
                raise InvalidDimension(
                    f"stencil shapes {cols.shape}, {vals.shape} must both be "
                    f"({d_out}, w)"
                )
            if not np.issubdtype(cols.dtype, np.integer):
                raise InvalidDimension("stencil columns must be integers")
            if cols.size and (cols.min() < 0 or cols.max() >= d_in):
                raise InvalidDimension(f"stencil columns must lie in [0, {d_in})")
            ordered = np.sort(cols, axis=1)
            if np.any(ordered[:, 1:] == ordered[:, :-1]):
                raise InvalidDimension("stencil columns within a row must be distinct")
            if not np.all(np.isfinite(vals)):
                raise InvalidDimension("operator stencil must be finite")
            object.__setattr__(self, "stencil", (cols.astype(np.intp), vals))
            return
        if self.projection is not None:
            sub = self.projection
            if not isinstance(sub, Subspace):
                raise InvalidDimension("projection must be a Subspace")
            for m in (self.input_model, self.codomain):
                if m.dim != sub.ambient.dim or not np.array_equal(m.weights, sub.ambient.weights):
                    raise InvalidDimension("a projection maps the model of its subspace to itself")
            return
        m = real_or_complex(self.matrix)
        if m.ndim != 2:
            raise InvalidDimension("operator matrix must be 2-d")
        if m.shape != (d_out, d_in):
            raise InvalidDimension(
                f"matrix shape {m.shape} does not match models ({d_out}, {d_in})"
            )
        if not np.all(np.isfinite(m)):
            raise InvalidDimension("operator matrix must be finite")
        object.__setattr__(self, "matrix", m)

    # -- basic structure -------------------------------------------------
    @property
    def domain_subspace(self) -> Subspace:
        return self.domain if self.domain is not None else Subspace.full(self.input_model)

    @property
    def adjoint_domain_subspace(self) -> Subspace:
        if self.adjoint_domain is not None:
            return self.adjoint_domain
        return Subspace.full(self.codomain)

    def dense(self) -> np.ndarray:
        """The dim_out x dim_in matrix; a projection onto V forms V V^H W and
        a stencil operator scatters its values into a new array here."""
        if self.stencil is not None:
            cols, vals = self.stencil
            m = np.zeros((self.codomain.dim, self.input_model.dim), dtype=vals.dtype)
            np.put_along_axis(m, cols, vals, axis=1)
            return m
        if self.projection is not None:
            return self.projection.project(np.eye(self.input_model.dim))
        return self.matrix

    def _times(self, x) -> np.ndarray:
        """M x, a new array, without forming M for a projection or a stencil."""
        if self.stencil is not None:
            cols, vals = self.stencil
            return np.einsum("ik,ik...->i...", vals, x[cols])
        if self.projection is not None:
            return x.copy() if self.projection.is_full else self.projection.project(x)
        return _real_matmul(self.matrix, x)

    def effective_matrix(self) -> np.ndarray:
        """matrix composed with the projection onto the domain."""
        if self.domain is None:
            return self.dense()
        b = self.domain.dense()
        return _real_matmul(self._times(b), b.conj().T * self.input_model.weights[None, :])

    def apply(self, f) -> np.ndarray:
        """Apply as matrix o (projection onto domain)."""
        f = as_complex_vector(f, self.input_model.dim)
        return self._times(self.domain_subspace.project(f))

    def apply_columns(self, fs) -> np.ndarray:
        """Apply to each column of fs, which keeps a real dtype (``real_or_complex``): a
        projection onto a real basis maps real columns to real columns."""
        fs = real_or_complex(fs)
        return self._times(self.domain_subspace.project(fs))

    def whitened(self) -> np.ndarray:
        """Effective matrix in whitened coordinates (Hermitian-friendly)."""
        return whiten_matrix(
            self.effective_matrix(), self.codomain.weights, self.input_model.weights
        )

    def domain_whitened(self) -> np.ndarray:
        """Whitened matrix restricted to orthonormal domain coordinates."""
        m = whiten_matrix(self.dense(), self.codomain.weights, self.input_model.weights)
        sub = self.domain_subspace
        if sub.basis is None:  # identity columns: a slice, or all of m
            return m if sub.index is None else m[:, sub.index]
        return _real_matmul(m, sub.whitened_basis())


def diagonal_operator(model: HilbertModel, diag, name="diagonal") -> OperatorModel:
    d = real_or_complex(diag)
    if d.shape != (model.dim,):
        raise InvalidDimension("diagonal length must equal model dim")
    return OperatorModel(np.diag(d), model, model, name=name)


def _graph_solve(A: OperatorModel, x) -> np.ndarray:
    """Graph-space representers of the rows of x, as dim_in x k columns.

    Row n of x (k x dim_in, plain coordinates) is the functional f -> x_n f
    on D(A); column n of the result is the k_n in D(A) with
    inner(f, k_n)_A = x_n f.  Solves (I + A^H A) y = rhs in orthonormal
    domain coordinates and maps y back to the model.
    """
    at = A.domain_whitened()  # dim_out x r
    gram = hermitize(at.conj().T @ at)
    basis = A.domain_subspace.dense()
    if basis is None:
        rhs = (x / A.input_model.sqrt_weights[None, :]).conj().T
    else:
        rhs = _real_matmul(x, basis).conj().T
    # I + A^H A has every eigenvalue >= 1, so plain LU is backward stable
    y = np.linalg.solve(np.eye(at.shape[1]) + gram, rhs)
    return y / A.input_model.sqrt_weights[:, None] if basis is None else _real_matmul(basis, y)


def _stencil_gap_is_zero(op: OperatorModel) -> bool:
    """Whether Kt - Kt^H is exactly zero, Kt the whitened stencil operator.

    Each whitened entry is paired with the negated conjugate mirror of its
    transpose position; the sums over each (row, col) are the entries of the
    dense Kt - Kt^H, bit for bit, and every other entry is zero.
    """
    cols, vals = op.stencil
    rows = np.broadcast_to(np.arange(cols.shape[0])[:, None], cols.shape)
    kt = (np.sqrt(op.codomain.weights)[:, None] * vals) / np.sqrt(
        op.input_model.weights
    )[cols]
    n = max(op.codomain.dim, op.input_model.dim)
    keys = np.concatenate([(rows * n + cols).ravel(), (cols * n + rows).ravel()])
    uniq, where = np.unique(keys, return_inverse=True)
    sums = np.zeros(uniq.size, dtype=complex)
    np.add.at(sums, where, np.concatenate([kt.ravel(), -kt.conj().ravel()]))
    return not np.any(sums)


def self_adjoint_gap(op: OperatorModel) -> float:
    """Largest singular value of the whitened A - A* restricted to D(A*).

    With Kt the whitened A this is Kt - Kt^H, or Kt - (Kt^H Vw) Vw^H when an
    adjoint domain V is declared.  A stencil operator with neither a domain
    nor an adjoint domain whose gap is exactly zero returns 0.0 without
    forming a dim x dim matrix.
    """
    if (op.stencil is not None and op.domain is None and op.adjoint_domain is None
            and _stencil_gap_is_zero(op)):
        return 0.0
    kt = op.whitened()
    basis = op.adjoint_domain_subspace.dense()
    if basis is None:
        gap = kt - kt.conj().T
    else:
        vw = op.codomain.sqrt_weights[:, None] * basis
        gap = kt - _real_matmul(_real_matmul(kt.conj().T, vw), vw.conj().T)
    if not np.any(gap):
        return 0.0
    s = _svd(gap, compute_uv=False)
    return float(s[0]) if s.size else 0.0


# -- concrete operators -------------------------------------------------

DIFF_VARIANTS = (
    "minus_i_ddx_H1",
    "minus_i_ddx_H10",
    "minus_i_ddx_periodic",
    "ddx_periodic",
)


def _central_difference(d, h, periodic):
    """Second-order first difference as a three-point stencil (cols, vals)."""
    idx = np.arange(d)
    vals = np.tile([-0.5 / h, 0.0, 0.5 / h], (d, 1))
    if periodic:
        return (idx[:, None] + (-1, 0, 1)) % d, vals
    # second-order one-sided rows at the interval ends
    vals[0] = -1.5 / h, 2.0 / h, -0.5 / h
    vals[-1] = 0.5 / h, -2.0 / h, 1.5 / h
    return np.clip(idx, 1, d - 2)[:, None] + (-1, 0, 1), vals


def dirichlet_subspace(grid: HilbertModel) -> Subspace:
    """Vectors vanishing at the first and last grid node, as a selection."""
    return Subspace.selection(grid, np.arange(1, grid.dim - 1))


def diff_operator(grid: HilbertModel, variant: str) -> OperatorModel:
    """First-derivative operators on a uniform grid.

    Variants:
      minus_i_ddx_H1       -i d/dx, full domain, one-sided boundary rows
      minus_i_ddx_H10      -i d/dx, Dirichlet (zero-boundary) domain
      minus_i_ddx_periodic -i d/dx with periodic wrap (exactly self-adjoint)
      ddx_periodic         d/dx with periodic wrap
    """
    if variant not in DIFF_VARIANTS:
        raise InvalidProbe(f"unknown diff_operator variant {variant!r}")
    if grid.dim < 16:
        raise GridTooCoarse("diff_operator needs at least 16 grid points")
    if grid.points is None:
        raise InvalidDimension("diff_operator requires a grid model with points")
    h = float(grid.points[1] - grid.points[0])
    periodic = variant.endswith("periodic")
    cols, D = _central_difference(grid.dim, h, periodic)
    stencil = (cols, -1j * D if variant.startswith("minus_i") else D)
    if periodic:
        return OperatorModel(None, grid, grid, name=variant, stencil=stencil)
    dirich = dirichlet_subspace(grid)
    if variant == "minus_i_ddx_H10":
        return OperatorModel(None, grid, grid, domain=dirich, name=variant, stencil=stencil)
    # full-domain interval operators: the adjoint lives on the Dirichlet subspace
    return OperatorModel(None, grid, grid, adjoint_domain=dirich, name=variant,
                         stencil=stencil)


def block_multiplier(alphas: Sequence[complex], pts_per_cell: int) -> OperatorModel:
    """Cellwise fold operator on [0, 2*cells).

    On cell k = [2k, 2k+2) the output equals alpha_k * f on the first unit
    half and alpha_k * f(x-1) on the second, i.e. the first half is copied
    (scaled) onto both halves.  The grid has pts_per_cell points per unit
    interval.
    """
    alphas = np.asarray(alphas, dtype=complex)
    cells = alphas.shape[0]
    p = int(pts_per_cell)
    d = 2 * cells * p
    grid = interval_grid(d, 0.0, 2.0 * cells, label=f"block grid cells={cells} p={p}")
    M = np.zeros((d, d), dtype=complex)
    eye = np.eye(p)
    for k in range(cells):
        first = slice(2 * k * p, 2 * k * p + p)
        second = slice(2 * k * p + p, 2 * k * p + 2 * p)
        M[first, first] = alphas[k] * eye
        M[second, first] = alphas[k] * eye
    return OperatorModel(M, grid, grid, name="block_multiplier")

