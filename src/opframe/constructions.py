"""Named systems and operators used by the worked scenarios.

Every generator is deterministic in its parameters: identical inputs give
byte-identical columns.  Continuous systems live on uniform midpoint grids;
exponential tables are exact gathers from roots of unity where the grid
allows (see _exp_table).  Translations act by exact periodic sample shifts
(one circulant gather), which keeps them unitary and the resulting frame
operators exactly self-adjoint.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Optional, Sequence, Union

import numpy as np

from ._linalg import _classify, gram_form, real_or_complex
from .errors import GridMismatch, InvalidDimension, NotBiorthogonal, WindowOverflow
from .hilbert import HilbertModel, Subspace, l2_truncation, norm
from .opmodel import OperatorModel
from .seqops import FrameSequence

WindowLike = Union[np.ndarray, Callable[[np.ndarray], np.ndarray]]
_ROOTS_MAX = 2**22  # largest root-of-unity order an exponential table gathers from

#: ``riesz_multiplier`` refuses a pair whose cross Gram is further than this from I (max entry)
BIORTHO_TOL = 1e-8


def _grid_geometry(grid: HilbertModel):
    if grid.points is None or grid.dim < 2:
        raise InvalidDimension("construction requires a grid model with at least 2 points")
    pts = grid.points
    h = float(pts[1] - pts[0])
    x0 = float(pts[0] - 0.5 * h)
    length = h * grid.dim
    return pts, h, x0, length


def _sample(window: WindowLike, pts) -> np.ndarray:
    """The window on the grid points: float64 for a real-typed window, complex128 otherwise."""
    w = real_or_complex(window(pts) if callable(window) else window).reshape(-1)
    if w.shape[0] != pts.shape[0]:
        raise InvalidDimension("sampled window length must match the grid")
    return w


def _exp_table(pts, h: float, x0: float, c: float, ns) -> np.ndarray:
    """exp(2 pi i c n x_k) for x_k = x0 + (k + 1/2) h (rows) and labels n (columns).

    If c h / 2 and c x0 are fractions over one M <= 2**22 and every M c x_k
    is an integer a_k to rounding, entry (k, n) is the M-th root of unity of
    index n a_k mod M (int64 arithmetic); otherwise np.exp of the outer product.
    Root M/2 is exactly -1: the columns of labels n and -n are conjugates bit for bit.
    """
    M = math.lcm(*(Fraction(v).limit_denominator(_ROOTS_MAX).denominator
                   for v in (c * h / 2, c * x0)))
    r = (c * M) * pts
    a = np.rint(r)
    if M <= _ROOTS_MAX and np.max(np.abs(r - a)) <= 1e-14 * max(np.max(np.abs(r)), 1.0):
        j = np.arange(M)
        roots = np.exp((2j * np.pi / M) * np.where(2 * j > M, j - M, j))
        if M % 2 == 0:
            roots[M // 2] = -1.0
        idx = np.multiply.outer(a.astype(np.int64) % M, ns % M)
        if M & (M - 1):
            idx %= M
        else:  # a power of two
            idx &= M - 1
        return roots.take(idx)
    return np.exp(2j * np.pi * c * np.outer(pts, ns))


def _translates(g: np.ndarray, shift: int, ms) -> np.ndarray:
    """Columns g[..., (k - shift m) mod d] for m in ms, i.e. np.roll(g, shift m)
    along the last axis: one gather from g repeated twice."""
    d = g.shape[-1]
    idx = np.add.outer(np.arange(d), (-shift * np.asarray(ms, dtype=np.int64)) % d)
    return np.concatenate((g, g), axis=-1).take(idx, axis=-1)


def _integer_shift(amount: float, h: float, what: str) -> int:
    s = amount / h
    if abs(s - round(s)) > 1e-9:
        raise GridMismatch(f"{what} {amount!r} is not an integer number of samples")
    return int(round(s))


def exponential_system(
    b: float, label_range: int, grid: HilbertModel, derivative: bool = False
) -> FrameSequence:
    """Sampled exponentials e_nb(x) = exp(2*pi*i*n*b*x) for |n| <= label_range.

    With derivative=True the columns are the scaled companion family
    {2*pi*n*b * e_nb} (the image of the system under -i d/dx).
    """
    if not 0.0 < b <= 1.0:
        raise InvalidDimension(f"'b' must lie in (0, 1], got {b!r}")
    pts, h, x0, _ = _grid_geometry(grid)
    ns = np.arange(-label_range, label_range + 1)
    cols = _exp_table(pts, h, x0, b, ns)
    if derivative:
        cols = cols * (2.0 * np.pi * b * ns)[None, :]
    return FrameSequence(grid, cols, ns)


def gabor_system(
    window: WindowLike,
    a: float,
    b: float,
    m_range: int,
    n_range: int,
    grid: HilbertModel,
    window_deriv: Optional[WindowLike] = None,
    derivative: bool = False,
    m_values: Optional[Sequence[int]] = None,
) -> FrameSequence:
    """Flattened Gabor family {M_{bn} T_{am} g} on a periodic window model.

    m indexes translations (periodic shift by a*m), n indexes modulations
    exp(2*pi*i*b*n*x).  Modulations must be window-periodic (b * window
    length integral) and a must be an integer number of samples.

    derivative=True builds the image under -i d/dx analytically:
    2*pi*b*n (M_{bn} T_{am} g) - i (M_{bn} T_{am} g'), requiring
    window_deriv.
    """
    for key, value in ("a", a), ("b", b):
        if not value > 0:
            raise InvalidDimension(f"{key!r} must be positive, got {value!r}")
    pts, h, x0, length = _grid_geometry(grid)
    if abs(b * length - round(b * length)) > 1e-9:
        raise GridMismatch(f"'b' {b!r} times the window length {length:g} must be an integer")
    shift = _integer_shift(a, h, "translation step 'a'")
    g = _sample(window, pts)
    gp = _sample(window_deriv, pts) if window_deriv is not None else None
    if derivative and gp is None:
        raise InvalidDimension("a derivative system needs 'window_deriv', that of 'window'")
    ms = list(m_values) if m_values is not None else range(-m_range, m_range + 1)
    ns = np.arange(-n_range, n_range + 1)
    mod = _exp_table(pts, h, x0, b, ns)[:, None, :]  # (point, -, n)
    if derivative:
        tg, tgp = _translates(np.stack((g, gp)), shift, ms)[..., None]  # (point, m, -)
        cols = (2.0 * np.pi * b * ns) * mod * tg - 1j * mod * tgp
    else:
        cols = mod * _translates(g, shift, ms)[..., None]
    return FrameSequence(grid, cols.reshape(grid.dim, -1))  # m-major, n-minor


def wavelet_system(
    mother: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    m_range: int,
    n_range: int,
    grid: HilbertModel,
    support: tuple = (-1.0, 1.0),
    mother_deriv: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    derivative: bool = False,
) -> FrameSequence:
    """Wavelet family {a^(-m/2) phi(a^-m x - n b)}, |m| <= m_range, |n| <= n_range.

    derivative=True builds {a^(-3m/2) phi'(a^-m x - n b)} from mother_deriv.
    Scales whose support escapes the window raise WindowOverflow.
    """
    if not a > 1.0:
        raise InvalidDimension(f"'a' must be > 1, got {a!r}")
    if not b > 0.0:
        raise InvalidDimension(f"'b' must be positive, got {b!r}")
    s0, s1 = support
    if not s0 < s1:  # else lo > hi below, and the window test passes every scale
        raise InvalidDimension(f"'support' [s0, s1] must have s0 < s1, got {tuple(support)}")
    pts, h, x0, length = _grid_geometry(grid)
    x1 = x0 + length
    if derivative and mother_deriv is None:
        raise InvalidDimension("a derivative system needs 'mother_deriv', that of 'mother'")
    fn, power = (mother_deriv, -1.5) if derivative else (mother, -0.5)
    cols = []
    for m in range(-m_range, m_range + 1):
        scale = a ** float(m)
        for n in range(-n_range, n_range + 1):
            lo, hi = scale * (s0 + n * b), scale * (s1 + n * b)
            if lo < x0 - 0.5 * h or hi > x1 + 0.5 * h:
                raise WindowOverflow(
                    f"scale m={m}, shift n={n} needs [{lo:g},{hi:g}] inside "
                    f"[{x0:g},{x1:g}]"
                )
            cols.append(scale ** power * real_or_complex(fn(pts / scale - n * b)))
    # a negative range gives no column: a d x 0 block, which FrameSequence refuses
    return FrameSequence(grid, np.column_stack(cols or [np.empty((grid.dim, 0))]))


# -- band-limited projection example ---------------------------------------


def _band_profile(freqs: np.ndarray, taper: str) -> np.ndarray:
    """Plateau 1 on |gamma| <= 1/4, taper to 0 on 1/4 <= |gamma| < 1/2."""
    g = np.abs(freqs)
    prof = np.zeros_like(g)
    prof[g <= 0.25] = 1.0
    mid = (g > 0.25) & (g < 0.5)
    if taper == "linear":
        prof[mid] = 2.0 - 4.0 * g[mid]
    elif taper == "raised_cosine":
        prof[mid] = 0.5 * (1.0 + np.cos(4.0 * np.pi * (g[mid] - 0.25)))
    else:
        raise InvalidDimension(f"'taper' must be 'linear' or 'raised_cosine', got {taper!r}")
    return prof


def pw_example(grid: HilbertModel, taper: str = "linear"):
    """Quarter-band translate system on a periodic window.

    Returns (phi_system, psi_system, P) where P projects onto the discrete
    quarter band {|gamma| <= 1/4}, phi has a tapered transfer profile (1 on
    the band, decaying to 0 on 1/4 <= |gamma| < 1/2), phi_n(x) = phi(x-n),
    and psi_n is the inverse transform of the band-limited exponential.
    One exponential table over |gamma| < 1/2, exact on this grid, gives
    phi_0 = Re(table @ profile), and its band columns e_gamma give psi_0
    (the real part of their sum) and the band basis.  Columns -n and n of
    the table are conjugate bit for bit and the profile is even, so both
    sums are real but for roundoff: phi and psi are translates of the real
    phi_0 and psi_0 and are stored as float64 families.  The band columns
    divided by sqrt(L) are weighted-orthonormal, and so are their real
    combinations sqrt2 Re e_gamma, sqrt2 Im e_gamma and e_0 (``gram_form``
    of the band, divided by sqrt(L)): P is the projection onto the
    Subspace of that real basis, stored as float64, and no dim x dim array
    is ever formed.
    Requires a power-of-two grid whose window length is divisible by 4 and
    whose sample rate is an integer per unit length.
    """
    pts, h, x0, length = _grid_geometry(grid)
    d = grid.dim
    if d & (d - 1):
        raise GridMismatch("pw_example requires a power-of-two grid length")
    L = int(round(length))
    if abs(length - L) > 1e-9 or L % 4:
        raise GridMismatch("window length must be an integer divisible by 4")
    shift = _integer_shift(1.0, h, "unit translation")
    half = np.arange(-(L // 2) + 1, L // 2)  # |gamma| < 1/2
    table = _exp_table(pts, h, x0, 1.0 / L, half)
    phi0 = (table @ _band_profile(half / L, taper)).real / L
    band = table[:, L // 4 - 1: 3 * L // 4]  # |gamma| <= 1/4
    psi0 = band.sum(axis=1).real / L
    u = gram_form(band, _classify(band))  # real while the columns mirror, as on an exact grid
    u /= np.sqrt(L)
    del table, band  # freed before the translates, which can then reuse its memory
    ns = np.arange(-L // 2, L // 2)
    phi = FrameSequence(grid, _translates(phi0, shift, ns), ns)
    psi = FrameSequence(grid, _translates(psi0, shift, ns), ns)
    P = OperatorModel(None, grid, grid, name="quarter-band projection",
                      projection=Subspace(grid, u))
    return phi, psi, P


def pw_closed_form_gaps(psi: FrameSequence, grid: HilbertModel):
    """Gaps between the computed kernel and two candidate closed forms.

    Candidates for psi_0(x): the half-band sinc sin(pi x / 2) / (pi x) with
    value 1/2 at x = 0, and the same profile scaled by 4 with value 1 at
    x = 0.  Returned as relative L2 gaps {"sinc_half": ..., "sinc_4x": ...};
    recorded for reporting, not asserted.
    """
    x, _, _, _ = _grid_geometry(grid)
    with np.errstate(invalid="ignore", divide="ignore"):
        sinc_half = np.where(x != 0.0, np.sin(0.5 * np.pi * x) / (np.pi * x), 0.5)
    sinc_4x = np.where(x != 0.0, 4.0 * sinc_half, 1.0)
    psi0 = psi.column(0)
    scale = norm(grid, psi0)
    return {name: norm(grid, psi0 - ref) / scale
            for name, ref in (("sinc_half", sinc_half), ("sinc_4x", sinc_4x))}


def difference_sequence(d: int) -> FrameSequence:
    """g_1 = e_1 and g_n = n (e_n - e_{n-1}) in the d-dimensional truncation."""
    if d < 2:
        raise InvalidDimension("difference_sequence needs d >= 2")
    model = l2_truncation(d, f"l2 truncation N={d}")
    cols = np.zeros((d, d))
    cols[0, 0] = 1.0
    for n in range(2, d + 1):
        cols[n - 1, n - 1] = n
        cols[n - 2, n - 1] = -n
    return FrameSequence(model, cols, range(1, d + 1))


def riesz_multiplier(phis: FrameSequence, psis: FrameSequence, alphas) -> OperatorModel:
    """Multiplier f -> sum_n alpha_n inner(f, psi_n) phi_n for a biorthogonal pair."""
    if phis.model.dim != psis.model.dim or phis.n_vectors != psis.n_vectors:
        raise InvalidDimension("multiplier needs matching families")
    alphas = np.asarray(alphas, dtype=complex).reshape(-1)
    if alphas.shape[0] != phis.n_vectors:
        raise InvalidDimension("alphas length must match the family size")
    cross = psis.whitened().conj().T @ phis.whitened()  # inner(phi_i, psi_j) at [j,i]
    gap = float(np.max(np.abs(cross - np.eye(phis.n_vectors))))
    if gap > BIORTHO_TOL:
        raise NotBiorthogonal(f"biorthogonality violated by {gap:.3e}")
    w = phis.model.weights
    mat = (phis.vectors * alphas[None, :]) @ (psis.vectors.conj().T * w[None, :])
    return OperatorModel(mat, phis.model, phis.model, name="riesz multiplier")


# -- reusable windows -------------------------------------------------------


def gaussian_window(pts: np.ndarray) -> np.ndarray:
    return np.exp(-np.pi * pts**2)


def gaussian_window_deriv(pts: np.ndarray) -> np.ndarray:
    return -2.0 * np.pi * pts * np.exp(-np.pi * pts**2)


def cosine_bump(pts: np.ndarray) -> np.ndarray:
    """C^1 bump cos^2(pi x / 2) supported on [-1, 1]."""
    return np.where(np.abs(pts) <= 1.0, np.cos(0.5 * np.pi * pts) ** 2, 0.0)


def cosine_bump_deriv(pts: np.ndarray) -> np.ndarray:
    return np.where(np.abs(pts) <= 1.0, -0.5 * np.pi * np.sin(np.pi * pts), 0.0)


def fold_symmetric_window(pts: np.ndarray) -> np.ndarray:
    """1 + cos(2 pi x)/2 on [0, 2]: unit-periodic, so g(y) = g(y-1) on [1, 2]."""
    return np.where((pts >= 0.0) & (pts < 2.0), 1.0 + 0.5 * np.cos(2.0 * np.pi * pts), 0.0)
