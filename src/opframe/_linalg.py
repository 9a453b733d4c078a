"""Internal weighted-linear-algebra helpers.

Everything here works in "whitened" coordinates: a model with weight vector w
is mapped to plain l2 by x -> sqrt(w) * x.  Hermitian structure is exact in
those coordinates, so eigensolvers and SVDs keep self-adjointness at machine
precision.
"""

from __future__ import annotations

import numpy as np

_RANK_TOL = 1e-12

#: a whitened operator of norm at most this counts as numerically zero
_DEGENERATE_TOL = 1e-14


def as_complex_vector(f, dim):
    from .errors import InvalidDimension

    f = np.asarray(f, dtype=complex).reshape(-1)
    if f.shape[0] != dim:
        raise InvalidDimension(f"expected vector of length {dim}, got {f.shape[0]}")
    return f


def whiten_matrix(matrix, w_out, w_in):
    """W_out^(1/2) M W_in^(-1/2) for weight vectors w_out, w_in."""
    return (np.sqrt(w_out)[:, None] * matrix) / np.sqrt(w_in)[None, :]


def pinv_weighted(matrix, w_out, w_in, rcond=1e-10):
    """Moore-Penrose inverse of M with respect to the weighted inner products.

    Computed through the SVD of the whitened matrix; singular values below
    rcond * sigma_max are treated as zero.
    """
    mt = whiten_matrix(matrix, w_out, w_in)
    pt = np.linalg.pinv(mt, rcond=rcond)
    return (pt / np.sqrt(w_in)[:, None]) * np.sqrt(w_out)[None, :]


def adjoint_matrix(matrix, w_out, w_in):
    """W_in^-1 M^H W_out: the weighted adjoint of M."""
    return (matrix.conj().T * w_out[None, :]) / w_in[:, None]


def hermitize(a):
    return 0.5 * (a + a.conj().T)


def gram_factor(mat):
    """Upper-triangular R with R^H R = mat mat^H, from the thin QR mat^H = Q R.

    mat mat^H does not change when mat is multiplied by i, so a real or a
    purely imaginary mat is factored in real arithmetic, at about a quarter
    of the complex cost.
    """
    if np.iscomplexobj(mat):
        if not np.any(mat.imag):
            mat = mat.real
        elif not np.any(mat.real):
            mat = mat.imag
    return np.linalg.qr(mat.conj().T, mode="r")


def _row_reduced(mat):
    """A matrix with the left singular pairs of mat, at most square.

    A wide mat (rows at most half the columns) becomes R^H from
    ``gram_factor``, so mat = R^H Q^H and the SVD runs on m x m; any other
    mat is returned as is.
    """
    m, n = mat.shape
    if 2 * m > n:
        return mat
    return gram_factor(mat).conj().T


def orthonormal_range(mat, rank_tol=_RANK_TOL, scale=None):
    """Orthonormal basis (plain l2) of the column space of mat; may be empty.

    The rank cut is rank_tol * scale with scale defaulting to sigma_max(mat).
    Pass an external scale when mat itself may be numerical noise (e.g. a
    residual that is exactly zero in exact arithmetic).
    """
    if mat.size == 0:
        return np.zeros((mat.shape[0], 0), dtype=complex)
    u, s, _ = np.linalg.svd(_row_reduced(mat), full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((mat.shape[0], 0), dtype=complex)
    cut = rank_tol * (float(s[0]) if scale is None else float(scale))
    r = int(np.sum(s > cut))
    return u[:, :r]


def pencil_lower_bound(sqrt_s, b_basis, b_factor, rank_tol=_RANK_TOL):
    """Optimal constants of the pencil (S, B), returned as (alpha, beta).

    alpha = inf <S f, f> / <B f, f> over f with <B f, f> != 0, and
    beta = sigma_max(sqrt_s)^2 = sup <S f, f> / <f, f>, the upper (Bessel)
    constant.

    Arguments are given in orthonormal coordinates of the quantifier space V
    (dimension r):

    sqrt_s   : (m, r) array X with S-form = X^H X (a low-rank factor of S|_V)
    b_basis  : (r, q) orthonormal basis of supp(B) inside V, or None when B
               has full rank on V (q == r, coordinates of V itself)
    b_factor : (q, q) invertible triangular (or diagonal) factor L of the
               B-form's Gram on supp(B), L L^H = Gram; no Gram is formed

    A tall X (at least twice as many rows as columns) is first row-reduced
    to the r x r R_x of X = Q R_x (from ``gram_factor``), which keeps
    ||X f|| for every f.  The infimum allows components of f in ker(B);
    minimizing them out is a Schur complement, realized here in factored
    form: with f = U c + v, v in ker(B),

        min_v ||X (U c + v)||^2 = || P_T_perp (X U) c ||^2,

    where T is the column space of X restricted to ker(B), taken from one
    row reduction of that restriction (ker(B) = {0} when q == r).  alpha is
    sigma_min(P_T_perp X U L^-H)^2, the smallest squared singular value of
    the B-scaled projected factor, and 0 when that factor has fewer than q
    rows.  No Gram of X or of B is formed, so alpha keeps its accuracy for
    ill-conditioned B instead of losing eps * kappa^2 to the normal
    equations.
    """
    if b_basis is not None and b_basis.shape[1] == 0:
        raise ValueError("empty B support")
    x = sqrt_s
    if x.shape[0] >= 2 * x.shape[1]:
        x = gram_factor(x.conj().T)
    if b_basis is None or b_basis.shape[1] == b_basis.shape[0]:
        xu = x if b_basis is None else x @ b_basis
        xscale = float(np.linalg.svd(_row_reduced(x), compute_uv=False)[0])
    else:
        # X restricted to ker(B) = X (I - U U^H) has the left singular pairs
        # of its row reduction x_k, so its column space T is that of x_k, and
        # X X^H = x_k x_k^H + (X U)(X U)^H gives sigma_max(X) from the
        # narrower of X and [x_k | X U].  The rank cut is taken relative to X
        # itself: when ker(B) is numerically trivial the restriction is
        # roundoff and must not produce spurious directions.
        xu = x @ b_basis
        x_k = _row_reduced(x - xu @ b_basis.conj().T)
        stacked = np.concatenate([x_k, xu], axis=1)
        xscale = float(np.linalg.svd(
            stacked if stacked.shape[1] < x.shape[1] else x, compute_uv=False)[0])
        t_basis = orthonormal_range(x_k, rank_tol, scale=xscale)
        if t_basis.shape[1]:
            xu = xu - t_basis @ (t_basis.conj().T @ xu)
    if xu.shape[0] < xu.shape[1]:
        return 0.0, xscale**2
    scaled = np.linalg.solve(b_factor, xu.conj().T).conj().T  # xu L^-H
    smin = float(np.linalg.svd(scaled, compute_uv=False)[-1])
    return smin**2, xscale**2


def max_column_gap(approx, reference, weights):
    """Largest relative column gap max_j ||approx_j - ref_j|| / ||ref_j||.

    Norms are weighted by the model weights.  Only live reference columns
    count, those with norm above 1e-14 times the largest; the gap is 0.0
    when no column is live.
    """
    w = weights[:, None]
    errs = np.sqrt(np.sum(w * np.abs(approx - reference) ** 2, axis=0))
    norms = np.sqrt(np.sum(w * np.abs(reference) ** 2, axis=0))
    live = norms > 1e-14 * max(float(np.max(norms)), 1e-300)
    return float(np.max(errs[live] / norms[live])) if np.any(live) else 0.0

