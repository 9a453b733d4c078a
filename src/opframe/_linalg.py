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

#: a full-row-rank factor with Frobenius condition above this is left to the SVD
_DIRECT_COND = 1e6


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

    V S^-1 U^H from ``thin_svd`` of the whitened matrix, keeping singular
    values above rcond * sigma_max as numpy.linalg.pinv does; an all-zero M
    gives the zero matrix.
    """
    u, s, vh = thin_svd(whiten_matrix(matrix, w_out, w_in))
    p = rank_cut(s, rcond)
    pt = vh[:p].conj().T @ (u[:, :p].conj().T / s[:p, None])
    return (pt / np.sqrt(w_in)[:, None]) * np.sqrt(w_out)[None, :]


def adjoint_matrix(matrix, w_out, w_in):
    """W_in^-1 M^H W_out: the weighted adjoint of M."""
    return (matrix.conj().T * w_out[None, :]) / w_in[:, None]


def hermitize(a):
    return 0.5 * (a + a.conj().T)


def _real_form(mat):
    """(b, phase) with mat = phase * b and b real when mat is real or purely
    imaginary, so a QR of b runs in real arithmetic at a quarter of the cost."""
    if np.iscomplexobj(mat) and not np.any(mat.imag):
        return mat.real, 1.0
    if np.iscomplexobj(mat) and not np.any(mat.real):
        return mat.imag, 1j
    return mat, 1.0


def gram_factor(mat):
    """Upper-triangular R with R^H R = mat mat^H, from the thin QR mat^H = Q R
    (in real arithmetic for a real or purely imaginary mat)."""
    return np.linalg.qr(_real_form(mat)[0].conj().T, mode="r")


def triangular_inverse(r):
    """R^-1 of an upper-triangular R by recursive 2 x 2 blocks,
    [[A, B], [0, C]]^-1 = [[A^-1, -A^-1 B C^-1], [0, C^-1]], with
    ``numpy.linalg.inv`` at order 64 or less; a real R stays real."""
    if r.shape[0] <= 64:
        return np.linalg.inv(r)
    h = r.shape[0] // 2
    out = np.zeros_like(r)
    out[:h, :h], out[h:, h:] = triangular_inverse(r[:h, :h]), triangular_inverse(r[h:, h:])
    out[:h, h:] = -(out[:h, :h] @ r[:h, h:]) @ out[h:, h:]
    return out


def certified_row_factor_inverse(mat, rcond):
    """R^-1 for the R of ``gram_factor`` when kappa_F = ||R||_F ||R^-1||_F,
    an upper bound on sigma_max / sigma_min of a mat of full row rank, is at
    most _DIRECT_COND and below 1 / max(rcond, _RANK_TOL); else None."""
    if mat.shape[1] < mat.shape[0]:
        return None
    r = gram_factor(mat)
    with np.errstate(all="ignore"):
        try:
            r_inv = triangular_inverse(r)
        except np.linalg.LinAlgError:  # an exactly singular R
            return None
        kappa = np.linalg.norm(r) * np.linalg.norm(r_inv)  # NaN or inf fails below
    return r_inv if kappa <= _DIRECT_COND and kappa * max(rcond, _RANK_TOL) < 1 else None


def _is_wide(mat):
    """The row-reduction rule: mat has at most half as many rows as columns."""
    return 2 * mat.shape[0] <= mat.shape[1]


def _row_reduced(mat):
    """mat, or for a wide mat the m x m R^H of ``gram_factor`` (mat = R^H Q^H),
    which has the same left singular pairs."""
    return gram_factor(mat).conj().T if _is_wide(mat) else mat


def thin_svd(mat):
    """(U, s, V^H) with mat = U diag(s) V^H, s descending: the one SVD with
    vectors behind ``orthonormal_range`` and ``pinv_weighted``.

    A wide mat is row-reduced: with mat^H = Q R (R bit for bit that of
    ``gram_factor``) the SVD runs on R^H = U diag(s) W^H, and V^H = W^H Q^H.
    """
    if not _is_wide(mat):
        return np.linalg.svd(mat, full_matrices=False)
    b, phase = _real_form(mat)
    q, r = np.linalg.qr(b.conj().T)
    u, s, wh = np.linalg.svd(r.conj().T, full_matrices=False)
    return u, s, phase * (wh @ q.conj().T)


def rank_cut(s, tol, scale=None):
    """How many of the descending singular values s exceed tol * scale, with
    scale defaulting to s[0]."""
    return int(np.sum(s > tol * (s[0] if scale is None else scale))) if s.size else 0


def orthonormal_range(mat, rank_tol=_RANK_TOL, scale=None):
    """Orthonormal basis (plain l2) of the column space of mat; may be empty.

    The rank cut is rank_tol * scale with scale defaulting to sigma_max(mat).
    Pass an external scale when mat itself may be numerical noise (e.g. a
    residual that is exactly zero in exact arithmetic).
    """
    u, s, _ = thin_svd(mat)
    return u[:, :rank_cut(s, rank_tol, scale)]


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

