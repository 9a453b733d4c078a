"""Internal weighted-linear-algebra helpers.

Everything here works in "whitened" coordinates: a model with weight vector w
is mapped to plain l2 by x -> sqrt(w) * x.  Hermitian structure is exact in
those coordinates, so eigensolvers and SVDs keep self-adjointness at machine
precision.

One structure rule: a family's arithmetic is decided once, by ``_classify``, into the
``_Structure`` record its sequence, dual or subspace caches; real, imaginary, mirrored and
parity families then factor in real arithmetic, and no kernel scans a family again.

Every lower bound and every dual, the canonical one (K = I) too, is one minimum-norm
factorization, and ``factor`` alone decides how a matrix mat is factored, into a record that solves:

- certified, by the R^-1 of the QR of ``gram_form``'s z (under reflection parity, of two
  half-size real blocks cut from the raw columns and sqrt(w)), when mat has no more rows
  than columns, kappa_F = ||R||_F ||R^-1||_F <= 1e6 and kappa_F max(rcond, 1e-12) < 1;
- otherwise a thin SVD, row-reduced by the refused R unless V is needed,
  with the support cut at 1e-12 sigma_0 and M cut at rcond sigma_0.

One SVD kernel: ``_svd`` is the only caller of ``np.linalg.svd``.  A matrix whose exact zeros
make it block diagonal over contiguous ranges, each block at least ``_SVD_BLOCK`` rows and
columns, is factored block by block, which moves its values and vectors at roundoff only.
"""

from __future__ import annotations

import types
from typing import NamedTuple, Optional

import numpy as np

_RANK_TOL = 1e-12

#: every dual's M = y+ kt inverts the singular values of y above this times sigma_0
_DUAL_RCOND = 1e-10

#: a whitened operator of norm at most this counts as numerically zero
_DEGENERATE_TOL = 1e-14

#: a full-row-rank factor with Frobenius condition above this is left to the SVD
_DIRECT_COND = 1e6

#: the pencil subtracts U U^H Y in row blocks of about this many entries
_ROW_BLOCK = 2**16

#: ``_svd`` factors a diagonal block alone when it has at least this many rows and columns
_SVD_BLOCK = 32


def as_complex_vector(f, dim):
    from .errors import InvalidDimension

    f = np.asarray(f, dtype=complex).reshape(-1)
    if f.shape[0] != dim:
        raise InvalidDimension(f"expected vector of length {dim}, got {f.shape[0]}")
    return f


def real_or_complex(a):
    """a as float64 when its dtype is real (a float or an integer type), else as complex128.
    The input's dtype decides, never its values: no scan for zero imaginary parts, and no
    complex array is cast to float."""
    a = np.asarray(a)
    return a.astype(np.float64 if a.dtype.kind in "fiu" else np.complex128, copy=False)


def whiten_matrix(matrix, w_out, w_in):
    """W_out^(1/2) M W_in^(-1/2) for weight vectors w_out, w_in."""
    return (np.sqrt(w_out)[:, None] * matrix) / np.sqrt(w_in)[None, :]


def adjoint_matrix(matrix, w_out, w_in):
    """W_in^-1 M^H W_out: the weighted adjoint of M."""
    return (matrix.conj().T * w_out[None, :]) / w_in[:, None]


def hermitize(a):
    return 0.5 * (a + a.conj().T)


class _Structure(NamedTuple):
    """``_classify``'s record of a family y = scale mat, holding no d x N array: phase 1.0 (real)
    or 1j (imaginary) when mat = phase b, b real, else None (general); sign s = +-1 when
    mat[:, ::-1] == s conj(mat) bitwise (mirrored), else 0.0; and under reflection parity,
    which columns of the mirror form z are even (the others odd), else None."""

    phase: Optional[complex] = None
    sign: float = 0.0
    even: Optional[np.ndarray] = None

    def real_form(self, mat):
        """The real b with mat = phase b, or mat itself when general (or of a real dtype)."""
        general = self.phase is None or np.isrealobj(mat)
        return mat if general else mat.real if self.phase == 1.0 else mat.imag

    def rows(self, index, dim):
        """The record of y[index] (y when index is None), y of dim rows: any rows keep the
        mirror and the real form, and two or more symmetric under k -> dim-1-k the parity."""
        sym = index is None or index.size > 1 and np.array_equal(index[::-1], dim - 1 - index)
        return self if sym or self.even is None else self._replace(even=None)


def _classify(mat, scale=None):
    """The ``_Structure`` of y = scale mat (mat when scale is None), by bitwise tests of mat:
    the one scan of a family.  The mirror compares the outer columns first, so a general family
    pays O(rows) for it; parity needs the mirror, a mirrored scale, and each column of mat's
    parts (Re a, Im a, Re c + Im c), a the first N // 2 columns and c the middle, even or odd
    under k -> d-1-k, an odd one zero on an odd d's middle row."""
    if np.isrealobj(mat):
        return _Structure(1.0)
    phase = 1.0 if not np.any(mat.imag) else 1j if not np.any(mat.real) else None
    (d, n), h, k = mat.shape, mat.shape[1] // 2, mat.shape[0] // 2
    a, m, c = mat[:, :h], mat[:, :-h - 1:-1], mat[:, h:n - h]
    for s in (1.0, -1.0) if h else ():
        if np.array_equal(m[:, 0], s * a[:, 0].conj()) and np.array_equal(c, s * c.conj()) \
                and np.array_equal(m.real, s * a.real) and np.array_equal(m.imag, -s * a.imag):
            break
    else:
        return _Structure(phase)
    if not k or scale is not None and not np.array_equal(scale[:k], scale[:-k - 1:-1]):
        return _Structure(phase, s)
    parts = (a.real, a.imag, c.real + c.imag)
    even = np.concatenate([np.all(p[:k] == p[:-k - 1:-1], axis=0) for p in parts])
    odd = np.concatenate([np.all(p[:k] == -p[:-k - 1:-1], axis=0) & ~np.any(p[k:d - k], axis=0)
                          for p in parts])
    return _Structure(phase, s, even if np.all(even | odd) else None)


def _mirror_form(mat, scale, rows=slice(None), cols=None):
    """The rows, and the columns of mask cols (all when None), of the mirror form
    z = [sqrt2 Re a | sqrt2 Im a | c] of y = scale mat, a the first N // 2 columns of mat and
    c its real or imaginary middle column as a real one, in y's arithmetic order."""
    h = mat.shape[1] // 2
    c = mat[:, h:mat.shape[1] - h]
    parts = mat[:, :h].real, mat[:, :h].imag, c.real + c.imag
    cols = np.ones(2 * h + c.shape[1], bool) if cols is None else cols
    z = np.concatenate([np.compress(k, p[rows], axis=1)  # C order, as p[rows, k] is not
                        for p, k in zip(parts, np.split(cols, [h, 2 * h]))], axis=1)
    if scale is not None:
        z *= scale[rows, None]
    z[:, :np.sum(cols[:2 * h])] *= np.sqrt(2.0)
    return z


def gram_form(mat, structure, scale=None):
    """z with z z^T = y y^H, y = scale mat (mat when scale is None), y itself unformed, read
    off y's ``_Structure``: ``_mirror_form``'s z if mat mirrors, as each pair g, s conj(g) gives
    2 Re(g g^H), else scale times mat's real form (y when general).  Only rows are scaled, so
    y mirrors and is real or imaginary as mat is, and z is bit for bit y's."""
    if structure.sign:
        return _mirror_form(mat, scale)
    b = structure.real_form(mat)
    return b if scale is None else scale[:, None] * b


def _pair(x):
    """Q x in place, for Q the orthogonal involution of reflection parity: row k < d // 2 of
    Q x is (x_k + x_(d-1-k)) / sqrt2, row d-1-k is (x_k - x_(d-1-k)) / sqrt2."""
    h = x.shape[0] // 2
    top, bottom = x[:h], x[:-h - 1:-1]
    top += bottom
    bottom *= -2.0
    bottom += top
    for half in top, bottom:
        half *= np.sqrt(0.5)
    return x


def _real_matmul(a, b):
    """a @ b with no complex copy of a real operand: a real a and a complex b as one float64
    GEMM on b's float view, a complex a and a real b as the transpose of b^T a^T."""
    if np.iscomplexobj(a) == np.iscomplexobj(b):
        return a @ b
    if np.iscomplexobj(a):
        return _real_matmul(b.T, a.T).T
    out = a @ np.ascontiguousarray(b if b.ndim > 1 else b[:, None]).view(np.float64)
    return out.view(np.complex128).reshape(a.shape[:-1] + b.shape[1:])


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


def _is_wide(mat):
    """The row-reduction rule: mat has at most half as many rows as columns."""
    return 2 * mat.shape[0] <= mat.shape[1]


def _diagonal_blocks(mat):
    """The (row, column) starts of mat's contiguous diagonal blocks, then (m, n), when mat's
    exact zeros make it block diagonal with each block at least _SVD_BLOCK rows and columns,
    else None.  A cut after row i - 1 falls at the first nonzero column of rows i on, so zero
    columns join the block before; a block under the floor merges with the next, the last with
    the one before.  A nonzero off-diagonal corner returns at once, and a mat under
    2 _SVD_BLOCK rows or columns is not scanned."""
    (m, n), floor = mat.shape, _SVD_BLOCK
    if min(m, n) < 2 * floor or mat[0, -1] or mat[-1, 0]:
        return None
    nz = mat != 0
    live = np.any(nz, axis=1)
    first = np.where(live, np.argmax(nz, axis=1), n)  # of each row; n and -1 for a zero row
    last = np.where(live, n - 1 - np.argmax(nz[:, ::-1], axis=1), -1)
    above = np.maximum.accumulate(last)[:-1]  # the last nonzero column of rows < i, i = 1..m-1
    below = np.minimum.accumulate(first[::-1])[::-1][1:]  # the first of rows >= i
    starts = [(0, 0)]
    for i in np.flatnonzero(above < below) + 1:  # every cut, kept if it leaves floors around it
        (i0, j0), j = starts[-1], int(below[i - 1])
        if min(i - i0, j - j0, m - i, n - j) >= floor:
            starts.append((int(i), j))
    return starts + [(m, n)] if len(starts) > 1 else None


def _svd(mat, compute_uv=True):
    """``np.linalg.svd(mat, full_matrices=False)``, or its values alone when not compute_uv: the
    one caller of it in opframe.  A mat that ``_diagonal_blocks`` splits is factored block by
    block, and the blocks' values merged descending (a stable sort, padded with exact zeros to
    min(m, n)), each block's U and V^H columns at its values' merged positions and zero at a
    padded value's; values and vectors differ from the dense SVD's at roundoff only."""
    cuts = _diagonal_blocks(mat) or [(0, 0), mat.shape]
    blocks = [(slice(i0, i1), slice(j0, j1)) for (i0, j0), (i1, j1) in zip(cuts, cuts[1:])]
    parts = [np.linalg.svd(mat[b], full_matrices=False, compute_uv=compute_uv) for b in blocks]
    if len(parts) == 1:
        return parts[0]
    values = [p[1] if compute_uv else p for p in parts]
    sizes = np.cumsum([len(v) for v in values])
    s = np.concatenate(values + [np.zeros(min(mat.shape) - sizes[-1])])
    order = np.argsort(-s, kind="stable")
    if not compute_uv:
        return s[order]
    at = np.empty_like(order)
    at[order] = np.arange(order.size)  # the merged position of each value
    u = np.zeros((mat.shape[0], s.size), parts[0][0].dtype)
    vh = np.zeros((s.size, mat.shape[1]), parts[0][2].dtype)
    for (rows, cols), (ub, _, vhb), pos in zip(blocks, parts, np.split(at, sizes)):
        u[rows, pos], vh[pos, cols] = ub, vhb
    return u, s[order], vh


def thin_svd(mat):
    """(U, s, V^H) with mat = U diag(s) V^H, s descending: every SVD with vectors in opframe
    runs here.  A wide mat is row-reduced: with mat^H = Q R the SVD runs on R^H = U diag(s) W^H,
    and V^H = W^H Q^H."""
    if not _is_wide(mat):
        return _svd(mat)
    q, r = np.linalg.qr(mat.conj().T)
    u, s, wh = _svd(r.conj().T)
    return u, s, wh @ q.conj().T


def rank_cut(s, tol, scale=None):
    """How many of the descending singular values s exceed tol * scale, with
    scale defaulting to s[0]."""
    return int(np.sum(s > tol * (s[0] if scale is None else scale))) if s.size else 0


def _certified(rs, tol):
    """The R^-1 of each upper-triangular R in rs, if diag(rs) has kappa_F <= _DIRECT_COND and
    kappa_F max(tol, _RANK_TOL) < 1 (||.||_F^2 adds over the blocks); else None."""
    with np.errstate(all="ignore"):
        try:
            r_invs = [triangular_inverse(r) for r in rs]
        except np.linalg.LinAlgError:  # an exactly singular R
            return None
        kappa = np.hypot.reduce([np.linalg.norm(r) for r in rs]) * np.hypot.reduce(
            [np.linalg.norm(r) for r in r_invs])  # NaN or inf fails below
    return r_invs if kappa <= _DIRECT_COND and kappa * max(tol, _RANK_TOL) < 1 else None


def factor(mat, structure, rcond=None, certify=True, scale=None):
    """The ``_Factor`` of y = scale mat (mat when scale is None), whose ``_Structure`` is
    structure, by the module's rule.  certify=False takes the SVD path."""
    tol = _RANK_TOL if rcond is None else rcond
    (d, n), h, even = mat.shape, mat.shape[0] // 2, structure.even
    certify = certify and n >= d  # no more rows than columns
    if certify and even is not None and np.sum(even) >= d - h and np.sum(~even) >= h:
        # Q z (``_pair``) is diag(B_E, B_O) up to a column order, so z z^T = G^T G,
        # G = diag(R_E, R_O) Q, from B_b^T = Q_b R_b: each block cut from mat's parts
        blocks = [_mirror_form(mat, scale, slice(0, d - h), even),
                  _mirror_form(mat, scale, slice(d - h, d), ~even) * -np.sqrt(2.0)]
        blocks[0][:h] *= np.sqrt(2.0)  # now the blocks of Q z
        r_invs = _certified([np.linalg.qr(b.T, mode="r") for b in blocks], tol)
        if r_invs is not None:
            return _Factor(r_invs=r_invs, blocks=blocks, parity=(even, structure.sign))
        del blocks  # refused: freed before y is formed
    y = mat if scale is None else scale[:, None] * mat  # formed off the parity path only
    reduce = rcond is None and _is_wide(y)
    if certify or reduce:  # R^H R = y y^H, real where y's structure allows
        r = np.linalg.qr(gram_form(y, structure).conj().T, mode="r")
    if certify and (r_invs := _certified([r], tol)) is not None:
        return _Factor(r_invs=r_invs, y=y)
    # M needs y's V (V = y^H U S^-1 would cost eps kappa^2): a wide y = phase b reduces b
    wide = not reduce and _is_wide(y)
    u, s, vh = thin_svd(r.conj().T if reduce else structure.real_form(y) if wide else y)
    u = u[:, :rank_cut(s, min(tol, _RANK_TOL))]
    vh = None if reduce else (structure.phase or 1.0) * vh if wide else vh
    return _Factor(u=u, s=s, vh=vh, rcond=rcond)


def _corrected_solve(y, r_inv, kt):
    """(y M, M) for M = y^H w, w = R^-1 R^-H kt, corrected once; a real y stays real."""
    m = proj = 0.0
    for _ in range(2):
        w = _real_matmul(r_inv, _real_matmul(r_inv.conj().T, kt - proj))
        m = m + (_real_matmul(y.T, w) if np.isrealobj(y) else _real_matmul(w.conj().T, y).conj().T)
        proj = _real_matmul(y, m)
    return proj, m


class _Factor(types.SimpleNamespace):
    """``factor``'s record of y, with what its path needs.  Certified (s None): R^-1 in r_invs
    and y, formed once, or under parity the blocks, their R^-1 and (even, sign), and no y,
    mirror form or d x d array.  Else the SVD: U cut at min(rcond, _RANK_TOL) sigma_0, every
    singular value in s, V^H (None when a row-reduced y gave U and s) and rcond."""

    r_invs = y = blocks = parity = u = s = vh = rcond = None  # what the path does not give

    def solve(self, kt):
        """(proj, M): the projection of kt onto R(y) and the minimum-norm M = y+ kt.

        By Douglas' lemma R(kt) lies in R(y) exactly when kt = y M.  A certified R of y^H = Q R
        (real for a conjugate-mirrored y, see ``gram_form``) gives M = (w^H y)^H,
        w = R^-1 R^-H kt, with no conjugate copy of y, corrected once (without the step the
        error grows with kappa^2, as in the normal equations), and proj = y M; under parity the
        same solve runs on each block against Q kt, with neither G^-1 nor y.  Else y = U S V^H
        gives proj from U above _RANK_TOL sigma_0 and M = V S^-1 U^H kt above rcond sigma_0
        (None without rcond).  An all-zero y gives zero; nothing raises.
        """
        if self.s is not None:
            r = rank_cut(self.s, _RANK_TOL)
            p = 0 if self.rcond is None else rank_cut(self.s, self.rcond)
            c = self.u.conj().T @ kt  # u has max(r, p) columns
            m = None if self.rcond is None else self.vh[:p].conj().T @ (c[:p] / self.s[:p, None])
            return self.u[:, :r] @ c[:r], m
        if self.parity is None:  # the seminormal solve, then one corrective step
            return _corrected_solve(self.y, self.r_invs[0], kt)
        (even, sign), blocks, r_invs = self.parity, self.blocks, self.r_invs
        self.blocks = self.r_invs = None  # given up, so a record solves once
        rotated, n = _pair(kt.copy()), blocks[0].shape[0]
        (p_e, m_e), (p_o, m_o) = map(_corrected_solve, blocks, r_invs, (rotated[:n], rotated[n:]))
        del blocks, r_invs  # freed before M is assembled
        c = np.empty((even.size, kt.shape[1]), np.result_type(m_e, m_o))  # M = C c, y = z C^H
        c[even], c[~even], h = m_e, m_o, even.size // 2
        re, im = c[:h] * np.sqrt(0.5), c[h:2 * h] * (1j * np.sqrt(0.5))
        m = np.concatenate([re - im, c[2 * h:] * (1.0 if sign > 0 else -1j), sign * (re + im)[::-1]])
        return _pair(np.concatenate([p_e, p_o])), m

    def inverse(self):
        """The dense R^-1 of a certified record, G^-1 = Q diag(R_E^-1, R_O^-1) under parity."""
        if self.parity is None:
            return self.r_invs[0]
        g_inv, h = np.zeros((sum(map(len, self.r_invs)),) * 2), len(self.r_invs[0])
        g_inv[:h, :h], g_inv[h:, h:] = self.r_invs
        return _pair(g_inv)


def pencil_lower_bound(sqrt_s, b_basis, b_inv_h):
    """Optimal constants (alpha, beta) of the pencil (S, B); beta is a number
    when the rank-deficient path has sigma_max, else a zero-argument callable
    that takes a values-only SVD of its own:

        alpha = inf <S f, f> / <B f, f> over f with <B f, f> != 0,
        beta = sigma_max(sqrt_s)^2 = sup <S f, f> / <f, f>.

    In orthonormal coordinates of the quantifier space V (dimension r), sqrt_s is the (r, m)
    family Y (``Subspace.coords``, or any z with z z^H = Y Y^H, such as ``gram_form``'s, in
    the arithmetic the pencil is to run in), S-form ||X f||^2 with X = Y^H; b_basis the (r, q)
    orthonormal basis of supp(B) (None when B has full rank on V), and b_inv_h is L^-H for the
    B-form's Gram L L^H on supp(B): a (q, q) matrix or, for a diagonal L, the vector
    1 / diag(L), multiplied and never solved with.  sqrt_s is consumed: the pencil may
    overwrite it, so the caller passes a fresh array it no longer reads (a real Y meeting a
    complex U is reduced in a complex copy).

    A wide Y (at least twice as many columns as rows) is first reduced to the r x r R^H of
    Y^H = Q R, which keeps ||X f||; X itself is formed only from U^H Y (q x m) and matrices of
    at most 2r x r.
    Components of f in ker(B) are minimized out by a Schur complement in
    factored form: with f = U c + v, v in ker(B),

        min_v ||X (U c + v)||^2 = || P_T_perp (X U) c ||^2,

    T the column space of X restricted to ker(B), from one row reduction of
    that restriction, which Y becomes in place (U U^H Y subtracted in row
    blocks, with no second r x m array).  alpha = sigma_min(P_T_perp X U L^-H)^2,
    and 0 when that factor has fewer than q rows.  No Gram of X or of B is
    formed, so alpha does not lose eps * kappa^2 to the normal equations.
    """
    y = np.linalg.qr(sqrt_s.conj().T, mode="r").conj().T if _is_wide(sqrt_s) else sqrt_s
    uy = y if b_basis is None else b_basis.conj().T @ y  # (X U)^H, q x m
    if b_basis is None or b_basis.shape[1] == b_basis.shape[0]:
        def beta():
            return float(_svd(y, compute_uv=False)[0]) ** 2
    else:
        # X restricted to ker(B) = X (I - U U^H) has the left singular pairs
        # of its row reduction x_k, so its column space T is that of x_k, and
        # X X^H = x_k x_k^H + (X U)(X U)^H gives sigma_max(X) from the
        # narrower of X and [x_k | X U], X's read before Y is reduced.  The
        # rank cut is taken relative to X itself: when ker(B) is numerically
        # trivial the restriction is roundoff and must not produce spurious
        # directions.
        (r, m), q = y.shape, b_basis.shape[1]
        tall = _is_wide(y.T)  # (X (I - U U^H))^H is reduced to its m x m R
        smax = None if (m if tall else r) + q < r else float(_svd(y, compute_uv=False)[0])
        if np.iscomplexobj(uy) and np.isrealobj(y):
            y = y.astype(complex)
        step = max(1, _ROW_BLOCK // m)
        for i in range(0, r, step):  # y becomes (X (I - U U^H))^H
            y[i:i + step] -= b_basis[i:i + step] @ uy
        x_k = (np.linalg.qr(_classify(y).real_form(y), mode="r") if tall else y).conj().T
        if smax is None:
            smax = float(_svd(np.concatenate([x_k, uy.conj().T], axis=1), compute_uv=False)[0])
        u, s, _ = thin_svd(x_k)  # T's basis, cut at _RANK_TOL sigma_max(X): x_k may be noise
        t_basis = u[:, :rank_cut(s, _RANK_TOL, smax)]
        if t_basis.shape[1]:
            uy = uy - (uy @ t_basis) @ t_basis.conj().T  # (P_T_perp X U)^H
        beta = smax**2

    if uy.shape[1] < uy.shape[0]:
        return 0.0, beta
    # (X U L^-H)^H = L^-1 U^H Y has the same singular values
    scaled = np.conj(b_inv_h)[:, None] * uy if b_inv_h.ndim == 1 else b_inv_h.conj().T @ uy
    smin = float(_svd(scaled, compute_uv=False)[-1])
    return smin**2, beta


def sample_blocks(mat, coeffs):
    """The column blocks of mat [I | coeffs], mat on a basis applied to the basis and to the
    members coeffs: mat, then (unless coeffs is None) ``_real_matmul(mat, coeffs)``, formed when
    read.  The certificates reduce the blocks one by one and never concatenate them."""
    yield mat
    if coeffs is not None:
        yield _real_matmul(mat, coeffs)


def max_column_gap(gap, reference, weights, coeffs=None):
    """Largest relative column gap max_j ||gap_j|| / ||ref_j||, gap = approx - ref, over the
    columns of gap [I | coeffs] against reference [I | coeffs] (``sample_blocks``).

    Norms are weighted by the model weights (one |.|^2 array, one matvec
    each, per block).  Only live reference columns count, those with norm
    above 1e-14 times the largest over every block; the gap is 0.0 when no
    column is live.
    """
    norms, errs = [], []
    for g, ref in zip(sample_blocks(gap, coeffs), sample_blocks(reference, coeffs)):
        sq = np.abs(ref)
        norms.append(np.sqrt(weights @ np.square(sq, out=sq)))
        errs.append(np.sqrt(weights @ np.square(np.abs(g, out=sq), out=sq)))
    norms, errs = np.concatenate(norms), np.concatenate(errs)
    live = norms > 1e-14 * max(float(np.max(norms)), 1e-300)
    return float(np.max(errs[live] / norms[live])) if np.any(live) else 0.0
