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


def _real_rows(mat):
    """A real z, z z^T = mat mat^H, else mat: ``_real_form``'s, or, if mat[:, ::-1] == s conj(mat)
    bitwise, s = +-1 (outer columns first), sqrt2 [Re a | Im a] for a the first N // 2 columns and
    the real or imaginary middle column: each pair g, s conj(g) gives 2 Re(g g^H) in mat mat^H."""
    h = mat.shape[1] // 2
    a, m, c = mat[:, :h], mat[:, :-h - 1:-1], mat[:, h:mat.shape[1] - h]
    for s in (1.0, -1.0) if np.iscomplexobj(mat) and h else ():
        if np.array_equal(m[:, 0], s * a[:, 0].conj()) and np.array_equal(m, s * a.conj()) \
                and np.array_equal(c, s * c.conj()):  # so c is real or imaginary
            z = np.empty(mat.shape)
            np.multiply(a.real, np.sqrt(2.0), out=z[:, :h])
            np.multiply(a.imag, np.sqrt(2.0), out=z[:, h:2 * h])
            np.add(c.real, c.imag, out=z[:, 2 * h:])
            return z
    return _real_form(mat)[0]


def gram_factor(mat):
    """Upper-triangular R, R^H R = mat mat^H, from the thin QR z^H = Q R, z = ``_real_rows(mat)``:
    real for a real, imaginary or conjugate-mirrored mat, where it is mat^H's R up to a diagonal
    unitary, so kappa_F and every rank cut read from it are mat's in exact arithmetic."""
    return np.linalg.qr(_real_rows(mat).conj().T, mode="r")


def _real_matmul(a, b):
    """a @ b; a real a and a complex b as one float64 GEMM on b's float view."""
    if np.iscomplexobj(a) or not np.iscomplexobj(b):
        return a @ b
    return (a @ np.ascontiguousarray(b).view(np.float64)).view(np.complex128)


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
    """(R, R^-1) for the R of ``gram_factor``, R^-1 None unless kappa_F =
    ||R||_F ||R^-1||_F, an upper bound on sigma_max / sigma_min of a mat of full
    row rank, is at most _DIRECT_COND and below 1 / max(rcond, _RANK_TOL); no QR
    and (None, None) for a mat with more rows than columns."""
    if mat.shape[1] < mat.shape[0]:
        return None, None
    r = gram_factor(mat)
    with np.errstate(all="ignore"):
        try:
            r_inv = triangular_inverse(r)
        except np.linalg.LinAlgError:  # an exactly singular R
            return r, None
        kappa = np.linalg.norm(r) * np.linalg.norm(r_inv)  # NaN or inf fails below
    return r, (r_inv if kappa <= _DIRECT_COND and kappa * max(rcond, _RANK_TOL) < 1 else None)


def _is_wide(mat):
    """The row-reduction rule: mat has at most half as many rows as columns."""
    return 2 * mat.shape[0] <= mat.shape[1]


def _row_reduced(mat, r=None):
    """mat, or for a wide mat the m x m R^H of ``gram_factor`` (mat = R^H Q^H),
    which has the same left singular pairs; r is that R when already taken."""
    return (gram_factor(mat) if r is None else r).conj().T if _is_wide(mat) else mat


def thin_svd(mat):
    """(U, s, V^H) with mat = U diag(s) V^H, s descending: every SVD with
    vectors in opframe runs here.

    A wide mat is row-reduced: with mat^H = Q R (R bit for bit that of ``gram_factor`` unless
    mat's columns mirror) the SVD runs on R^H = U diag(s) W^H, and V^H = W^H Q^H.
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


def min_norm_factor(y, kt, rcond=None):
    """(proj, M): the projection of kt onto R(y) and the minimum-norm M = y+ kt.

    By Douglas' lemma R(kt) lies in R(y) exactly when kt = y M.  A certified R of y^H = Q R
    (real for a conjugate-mirrored y, see ``gram_factor``) gives M = (w^H y)^H,
    w = R^-1 R^-H kt, with no conjugate copy of y, corrected once (without the step the error
    grows with kappa^2, as in the normal equations), and proj = y M.  Else one ``thin_svd``
    y = U S V^H gives proj from U above _RANK_TOL sigma_max and M = V S^-1 U^H kt above rcond
    sigma_max (without rcond M is None and a wide y's refused R^H, which has U, stands in for y).
    An all-zero y gives zero; nothing raises.
    """
    r_fac, r_inv = certified_row_factor_inverse(y, _RANK_TOL if rcond is None else rcond)
    if r_inv is not None:  # the seminormal solve, then one corrective step
        m = proj = 0.0
        for _ in range(2):
            w = _real_matmul(r_inv, _real_matmul(r_inv.conj().T, kt - proj))
            m = m + (w.conj().T @ y).conj().T
            proj = y @ m
        return proj, m
    # M needs V = Q W: V = y^H U S^-1 would cost the residual eps kappa^2
    u, s, vh = thin_svd(_row_reduced(y, r_fac) if rcond is None else y)
    r = rank_cut(s, _RANK_TOL)
    p = 0 if rcond is None else rank_cut(s, rcond)
    c = u[:, :max(r, p)].conj().T @ kt
    m = None if rcond is None else vh[:p].conj().T @ (c[:p] / s[:p, None])
    return u[:, :r] @ c[:r], m


def orthonormal_range(mat, rank_tol=_RANK_TOL, scale=None):
    """Orthonormal basis (plain l2) of the column space of mat; may be empty.

    The rank cut is rank_tol * scale with scale defaulting to sigma_max(mat).
    Pass an external scale when mat itself may be numerical noise (e.g. a
    residual that is exactly zero in exact arithmetic).
    """
    u, s, _ = thin_svd(mat)
    return u[:, :rank_cut(s, rank_tol, scale)]


def pencil_lower_bound(sqrt_s, b_basis, b_inv_h, rank_tol=_RANK_TOL):
    """Optimal constants (alpha, beta) of the pencil (S, B); beta is a number
    when the rank-deficient path has sigma_max, else a zero-argument callable
    that takes a values-only SVD of its own:

        alpha = inf <S f, f> / <B f, f> over f with <B f, f> != 0,
        beta = sigma_max(sqrt_s)^2 = sup <S f, f> / <f, f>.

    In orthonormal coordinates of the quantifier space V (dimension r),
    sqrt_s is the (r, m) family Y (``Subspace.coords``), S-form ||X f||^2
    with X = Y^H; b_basis the (r, q) orthonormal basis of supp(B) (None when
    B has full rank on V), and b_inv_h is L^-H for the B-form's Gram L L^H
    on supp(B): a (q, q) matrix or, for a diagonal L, the vector
    1 / diag(L), multiplied and never solved with.

    A wide Y (at least twice as many columns as rows) is first reduced to
    the r x r R^H of Y^H = Q R (``gram_factor``), which keeps ||X f||; X
    itself is formed only from U^H Y (q x m) and matrices of at most 2r x r.
    Components of f in ker(B) are minimized out by a Schur complement in
    factored form: with f = U c + v, v in ker(B),

        min_v ||X (U c + v)||^2 = || P_T_perp (X U) c ||^2,

    T the column space of X restricted to ker(B), from one row reduction of
    that restriction.  alpha = sigma_min(P_T_perp X U L^-H)^2, and 0 when
    that factor has fewer than q rows.  No Gram of X or of B is formed, so
    alpha does not lose eps * kappa^2 to the normal equations.
    """
    y = gram_factor(sqrt_s).conj().T if _is_wide(sqrt_s) else sqrt_s  # r x m, m < 2r
    uy = y if b_basis is None else b_basis.conj().T @ y  # (X U)^H, q x m
    if b_basis is None or b_basis.shape[1] == b_basis.shape[0]:
        def beta():
            return float(np.linalg.svd(y, compute_uv=False)[0]) ** 2
    else:
        # X restricted to ker(B) = X (I - U U^H) has the left singular pairs
        # of its row reduction x_k, so its column space T is that of x_k, and
        # X X^H = x_k x_k^H + (X U)(X U)^H gives sigma_max(X) from the
        # narrower of X and [x_k | X U].  The rank cut is taken relative to X
        # itself: when ker(B) is numerically trivial the restriction is
        # roundoff and must not produce spurious directions.
        y_k = b_basis @ uy
        np.subtract(y, y_k, out=y_k)  # (X (I - U U^H))^H; a tall one is reduced to R
        x_k = (np.linalg.qr(_real_form(y_k)[0], mode="r") if _is_wide(y_k.T) else y_k).conj().T
        stacked = np.concatenate([x_k, uy.conj().T], axis=1)
        smax = float(np.linalg.svd(
            stacked if stacked.shape[1] < y.shape[0] else y, compute_uv=False)[0])
        t_basis = orthonormal_range(x_k, rank_tol, scale=smax)
        if t_basis.shape[1]:
            uy = uy - (uy @ t_basis) @ t_basis.conj().T  # (P_T_perp X U)^H
        beta = smax**2

    if uy.shape[1] < uy.shape[0]:
        return 0.0, beta
    # (X U L^-H)^H = L^-1 U^H Y has the same singular values
    scaled = np.conj(b_inv_h)[:, None] * uy if b_inv_h.ndim == 1 else b_inv_h.conj().T @ uy
    smin = float(np.linalg.svd(scaled, compute_uv=False)[-1])
    return smin**2, beta


def sampled(mat, coeffs):
    """mat [I | coeffs]: mat on a basis, applied to the basis and the members coeffs."""
    return mat if coeffs is None else np.concatenate([mat, mat @ coeffs], axis=1)


def max_column_gap(gap, reference, weights):
    """Largest relative column gap max_j ||gap_j|| / ||ref_j||, gap = approx - ref.

    Norms are weighted by the model weights (one |.|^2 array, one matvec
    each).  Only live reference columns count, those with norm above 1e-14
    times the largest; the gap is 0.0 when no column is live.
    """
    sq = np.abs(reference)
    norms = np.sqrt(weights @ np.square(sq, out=sq))
    errs = np.sqrt(weights @ np.square(np.abs(gap, out=sq), out=sq))
    live = norms > 1e-14 * max(float(np.max(norms)), 1e-300)
    return float(np.max(errs[live] / norms[live])) if np.any(live) else 0.0
