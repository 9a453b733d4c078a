"""Conjugate-mirrored families, whose column -n is +-conj of column n, run
their Gram factor in real arithmetic.  A column permutation keeps the family's
S-form and sends it down the complex path, so both paths must agree.  When each
column of the real form is also even or odd under the grid reflection
k -> d-1-k, the factor splits into two half-size blocks."""

import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from opframe import _linalg
from opframe._linalg import _classify, _real_matmul, factor, gram_form
from opframe.constructions import (
    cosine_bump,
    cosine_bump_deriv,
    exponential_system,
    fold_symmetric_window,
    gabor_system,
    gaussian_window,
    gaussian_window_deriv,
    wavelet_system,
)
from opframe.hilbert import (
    HilbertModel,
    Subspace,
    interval_grid,
    l2_truncation,
    orthonormalize,
    window_grid,
)
from opframe.opmodel import DIFF_VARIANTS, OperatorModel, diagonal_operator, diff_operator
from opframe.relframes import aframe_bounds_graph, k_dual, kframe_bounds, range_inclusion
from opframe.scenarios import CONSTRUCTIONS, OPERATORS
from opframe.seqops import FrameSequence, frame_bounds
from opframe.weakframes import (
    interchange_dual,
    user_dual,
    verify_weak_duality,
    weak_a_dual,
    weak_aframe_bound,
)

from conftest import (
    factor_of,
    half_cosine_window,
    random_frame,
    random_matrix,
    random_weighted_model,
)

RTOL = 1e-12


def _mirrored(rng, d, n, sign):
    """d x n: column n - 1 - j is sign * conj(column j); an odd n's middle
    column is real (sign +1) or imaginary (sign -1)."""
    a = random_matrix(rng, d, n // 2)
    mid = rng.standard_normal((d, n % 2)) * (1.0 if sign > 0 else 1j)
    return np.concatenate([a, mid, sign * a[:, ::-1].conj()], axis=1)


def gram_factor(mat):
    """R with R^H R = mat mat^H, from the QR of the transposed ``gram_form`` of mat, the R that
    ``factor`` certifies."""
    return np.linalg.qr(gram_form(mat, _classify(mat)).conj().T, mode="r")


def _rel(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


def _expansion_gap(seq, K, dual):
    """||D M - K|| / ||K||: K f = sum_n inner(f, k_n) g_n as matrices."""
    dm = seq.vectors @ (dual.vectors.conj().T * K.input_model.weights[None, :])
    return np.linalg.norm(dm - K.matrix) / np.linalg.norm(K.matrix)


@settings(max_examples=30, deadline=None)
@given(d=st.integers(2, 48), extra=st.integers(0, 3), sign=st.sampled_from([1.0, -1.0]),
       deficient=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_column_permutation_changes_no_result(d, extra, sign, deficient, seed):
    rng = np.random.default_rng(seed)
    model = random_weighted_model(rng, d)
    vectors = _mirrored(rng, d, 2 * d + extra, sign)  # wide: the pencil row-reduces it
    if deficient:  # R(D) misses these coordinates, so the factor is singular
        vectors[rng.permutation(d)[:max(1, d // 4)]] = 0.0
    assume(np.any(vectors))
    seq = FrameSequence(model, vectors)
    perm = FrameSequence(model, vectors[:, (order := rng.permutation(vectors.shape[1]))])
    assume(np.iscomplexobj(gram_factor(perm.whitened())))  # not another mirror

    y = seq.whitened()
    r = gram_factor(y)
    assert r.dtype == np.float64
    assert np.linalg.norm(r.T @ r - y @ y.conj().T) <= 1e-13 * np.linalg.norm(y) ** 2

    J = random_weighted_model(rng, max(1, d // 2))
    K = OperatorModel(random_matrix(rng, d, J.dim), J, model)
    index = np.sort(rng.permutation(d)[:max(1, d // 2)])
    A = OperatorModel(random_matrix(rng, d, d), model, model,
                      adjoint_domain=Subspace.selection(model, index))
    if not deficient:
        for bound in (lambda s: kframe_bounds(s, K), lambda s: weak_aframe_bound(s, A)):
            assert _rel(bound(perm).alpha, bound(seq).alpha) <= RTOL
    res, res_perm = range_inclusion(K, seq)[1], range_inclusion(K, perm)[1]
    assert abs(res_perm - res) <= RTOL * max(res, 1.0)
    if deficient:
        return
    dual, dual_perm = k_dual(seq, K), k_dual(perm, K)
    scale = np.linalg.norm(dual.vectors)
    assert np.linalg.norm(dual_perm.vectors - dual.vectors[:, order]) <= RTOL * scale
    assert abs(_expansion_gap(perm, K, dual_perm) - _expansion_gap(seq, K, dual)) <= RTOL
    assert abs(dual_perm.certificate_residual - dual.certificate_residual) <= RTOL


def test_outer_columns_alone_do_not_select_the_mirror(rng):
    vectors = _mirrored(rng, 6, 9, 1.0)
    vectors[:, 2] += 1.0  # column 6 no longer mirrors it
    r = gram_factor(vectors)
    assert r.dtype == np.complex128
    assert np.linalg.norm(r.conj().T @ r - vectors @ vectors.conj().T) <= 1e-13 * np.linalg.norm(
        vectors) ** 2


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_a_complex_middle_column_does_not_select_the_mirror(rng, sign):
    vectors = _mirrored(rng, 6, 9, sign)
    vectors[:, 4] = random_matrix(rng, 6, 1)[:, 0]  # every outer pair still mirrors
    r = gram_factor(vectors)
    assert r.dtype == np.complex128
    assert np.linalg.norm(r.conj().T @ r - vectors @ vectors.conj().T) <= 1e-13 * np.linalg.norm(
        vectors) ** 2


def test_exponential_system_with_a_complex_label_zero_column_stays_complex(rng):
    seq = exponential_system(1.0, 9, interval_grid(16))
    vectors = seq.vectors.copy()
    vectors[:, seq.index_labels.index(0)] = random_matrix(rng, 16, 1)[:, 0]
    y = FrameSequence(seq.model, vectors, seq.index_labels).whitened()
    r = gram_factor(y)
    assert r.dtype == np.complex128
    assert np.linalg.norm(r.conj().T @ r - y @ y.conj().T) <= 1e-13 * np.linalg.norm(y) ** 2


@pytest.mark.parametrize("order", ["C", "F"])
def test_real_times_complex_runs_on_the_float_view(rng, order):
    a, b = rng.standard_normal((5, 7)), np.asarray(random_matrix(rng, 7, 3), order=order)
    np.testing.assert_allclose(_real_matmul(a, b), a.astype(complex) @ b, rtol=1e-14)
    assert _real_matmul(a, b.real).dtype == np.float64


@pytest.mark.parametrize("order", ["C", "F"])
def test_complex_times_real_runs_on_the_float_view(rng, order):
    a, b = np.asarray(random_matrix(rng, 5, 7), order=order), rng.standard_normal((7, 3))
    np.testing.assert_allclose(_real_matmul(a, b), a @ b.astype(complex), rtol=1e-14)
    for x, y in ((a, b[:, 0]), (a[0], b), (b.T, a[0]), (b[:, 0], a.T)):  # vectors either side
        np.testing.assert_allclose(_real_matmul(x, y), x @ y, rtol=1e-14)


@pytest.mark.parametrize("value, dtype", [
    (np.ones((3, 2)), np.float64), (np.ones((3, 2), np.float32), np.float64),
    (np.ones((3, 2), np.int64), np.float64), ([[1, 0], [0, 1], [0, 0]], np.float64),
    (np.ones((3, 2)) + 0j, np.complex128), (np.ones((3, 2), np.complex64), np.complex128),
    (np.ones((3, 2), bool), np.complex128)])
def test_storage_follows_the_input_dtype(value, dtype):
    """Real-typed input (float or integer) is stored as float64, anything else as complex128,
    a complex array with no imaginary part included: the dtype decides, not the values."""
    model = l2_truncation(3)
    assert FrameSequence(model, value).vectors.dtype == dtype
    assert Subspace(model, value).basis.dtype == dtype


@settings(max_examples=30, deadline=None)
@given(d=st.integers(2, 32), extra=st.integers(0, 8), rank=st.integers(1, 8),
       seed=st.integers(0, 2**32 - 1))
@example(d=27, extra=0, rank=1, seed=1)  # alpha 3e-13 apart while u's layout followed the basis
def test_real_storage_changes_no_bound(d, extra, rank, seed):
    """frame_bounds, and kframe_bounds of a projection onto a real subspace, of a real family
    stored as float64 agree with those of its complex128 copy, with the projection's basis
    stored either way."""
    rng = np.random.default_rng(seed)
    model = random_weighted_model(rng, d)
    vectors = rng.standard_normal((d, d + extra))
    real, cplx = FrameSequence(model, vectors), FrameSequence(model, vectors + 0j)
    assert real.vectors.dtype == np.float64 and cplx.vectors.dtype == np.complex128
    fr, fc = frame_bounds(real), frame_bounds(cplx)
    assert _rel(fr.alpha, fc.alpha) <= 1e-13 and _rel(fr.beta, fc.beta) <= 1e-13
    basis = orthonormalize(rng.standard_normal((d, min(rank, d))), model).basis
    ops = [OperatorModel(None, model, model, projection=Subspace(model, b))
           for b in (basis, basis + 0j)]
    ref = kframe_bounds(cplx, ops[1])
    for seq in real, cplx:
        for P in ops:
            kb = kframe_bounds(seq, P)
            assert _rel(kb.alpha, ref.alpha) <= 1e-13 and _rel(kb.beta, ref.beta) <= 1e-13


def _orthogonal(rng, rows, cols):
    """rows x cols real with orthonormal columns (rows >= cols)."""
    return np.linalg.qr(rng.standard_normal((rows, cols)))[0]


@settings(max_examples=30, deadline=None)
@given(d=st.integers(2, 24), extra=st.integers(0, 8),
       adjoint=st.sampled_from(["full", "selection", "basis"]), seed=st.integers(0, 2**32 - 1))
def test_real_operator_and_dual_storage_change_no_result(d, extra, adjoint, seed):
    """A real operator, family and dual, each stored as float64 or as its complex128 copy, give
    the weak, K and graph bounds, weak_a_dual's vectors and residual, and a fixed dual's
    residual of the all-complex storage.  Operator and family have singular values in [1, 2]
    (kappa <= 4 for their products), so a rounding difference eps grows to at most about
    d kappa^2 eps = 8.5e-14 at d = 24: 1e-12 relative (the dual's residual, at roundoff,
    absolute) is the stated bound."""
    rng = np.random.default_rng(seed)
    model = random_weighted_model(rng, d)
    n = d + extra
    op = _orthogonal(rng, d, d) * (1.0 + rng.random(d)) @ _orthogonal(rng, d, d).T
    vectors = _orthogonal(rng, d, d) * (1.0 + rng.random(d)) @ _orthogonal(rng, n, d).T
    fixed = rng.standard_normal((d, n))  # a real dual of no theorem: residual of order one
    adom = {"full": None, "selection": Subspace.selection(model, np.arange(0, d, 2)),
            "basis": orthonormalize(rng.standard_normal((d, max(1, d // 2))), model)}[adjoint]

    def results(real_op, real_seq):
        A = OperatorModel(op if real_op else op + 0j, model, model, adjoint_domain=adom)
        seq = FrameSequence(model, vectors if real_seq else vectors + 0j)
        dual = weak_a_dual(seq, A)
        assert dual.vectors.dtype == (np.float64 if real_op and real_seq else np.complex128)
        return (weak_aframe_bound(seq, A).alpha, kframe_bounds(seq, A).alpha,
                aframe_bounds_graph(seq, A).alpha,
                verify_weak_duality(seq, user_dual(model, fixed if real_op else fixed + 0j), A),
                dual.vectors, dual.certificate_residual)

    *bounds, t, cert = results(False, False)
    for real_op, real_seq in (True, True), (True, False), (False, True):
        *got, got_t, got_cert = results(real_op, real_seq)
        for value, ref in zip(got, bounds):
            assert _rel(value, ref) <= RTOL
        assert np.linalg.norm(got_t - t) <= RTOL * np.linalg.norm(t)
        assert abs(got_cert - cert) <= RTOL


REAL_WINDOWS = [gaussian_window, gaussian_window_deriv, cosine_bump, cosine_bump_deriv,
                fold_symmetric_window, half_cosine_window]


@pytest.mark.parametrize("window", REAL_WINDOWS)
def test_a_real_window_gives_float64_families(window):
    grid = window_grid(64, -4.0, 4.0)
    assert window(grid.points).dtype == np.float64
    assert wavelet_system(window, 2.0, 1.0, 0, 1, grid).vectors.dtype == np.float64
    for given_as in window, window(grid.points):  # a callable or its samples
        assert gabor_system(given_as, 1.0, 0.25, 1, 1, grid).vectors.dtype == np.complex128


def test_real_operators_store_float64():
    model, grid = l2_truncation(4), interval_grid(32)
    assert diagonal_operator(model, np.arange(1.0, 5.0)).matrix.dtype == np.float64
    assert diagonal_operator(model, np.arange(1, 5)).matrix.dtype == np.float64
    assert diagonal_operator(model, np.arange(1, 5) + 0j).matrix.dtype == np.complex128
    for variant in DIFF_VARIANTS:
        A = diff_operator(grid, variant)
        dtype = np.complex128 if variant.startswith("minus_i") else np.float64
        assert A.stencil[1].dtype == A.dense().dtype == dtype
    selection = Subspace.selection(grid, np.arange(1, 31))
    assert selection.dense().dtype == np.float64
    assert OperatorModel(np.eye(32), grid, grid, domain=selection).effective_matrix().dtype == \
        np.float64


def test_the_real_bundled_families_keep_float64():
    """difference (``difference_sequence``), parseval_trajectory and wavelet
    (``wavelet_system``) build their family, operator and dual as float64."""
    ctx = CONSTRUCTIONS["difference"](np.random.default_rng(0), d=16)
    assert ctx["seq"].vectors.dtype == ctx["op"].matrix.dtype == np.float64
    assert weak_a_dual(ctx["seq"], ctx["op"]).vectors.dtype == np.float64
    [(_, A, seq)] = CONSTRUCTIONS["parseval_family"](None, sizes=(8,))["truncations"]
    assert A.matrix.dtype == seq.vectors.dtype == np.float64
    ctx = CONSTRUCTIONS["wavelet_derivative"](None, d=512)
    assert ctx["seq"].vectors.dtype == ctx["plain"].vectors.dtype == np.float64
    op = OPERATORS["diff_ddx_periodic"](ctx)
    assert op.apply_columns(ctx["plain"].vectors).dtype == np.float64


@pytest.mark.parametrize("kind, n", [("real", 9), ("imaginary", 9), ("mirror+", 9),
                                     ("mirror+", 8), ("mirror-", 9), ("mirror-", 8),
                                     ("complex", 9)])
def test_scaled_gram_form_is_that_of_the_scaled_family(rng, kind, n):
    """gram_form(mat, scale) is gram_form(y), y = scale mat, formed whole: every bit, save a
    zero's sign (numpy multiplies scale into a complex entry as scale + 0j), and z z^T = y y^H.
    Each kind keeps its arithmetic: real for the real, imaginary and mirrored families."""
    d = 7
    mat = {"real": lambda: random_matrix(rng, d, n).real + 0j,
           "imaginary": lambda: 1j * random_matrix(rng, d, n).imag,
           "mirror+": lambda: _mirrored(rng, d, n, 1.0),
           "mirror-": lambda: _mirrored(rng, d, n, -1.0),
           "complex": lambda: random_matrix(rng, d, n)}[kind]()
    scale = np.sqrt(random_weighted_model(rng, d).weights)
    y = scale[:, None] * mat
    z, whole = gram_form(mat, _classify(mat, scale), scale), gram_form(y, _classify(y))
    assert z.dtype == whole.dtype == (np.complex128 if kind == "complex" else np.float64)
    assert z.shape == whole.shape == (d, n)
    assert (z + 0.0).tobytes() == (whole + 0.0).tobytes()  # + 0.0 turns -0 into +0
    gram = y @ y.conj().T
    assert np.linalg.norm(z @ z.conj().T - gram) <= 1e-13 * np.linalg.norm(gram)


class TestKernelDtypes:
    """Which arithmetic each path asks LAPACK for, counted by wrapping numpy.linalg."""

    @staticmethod
    def _dtypes(calls):
        return {args[0].dtype for args, _ in calls}

    def test_exm1_weak_bound_runs_real(self, linalg_calls):
        grid = interval_grid(64)
        seq = exponential_system(0.5, 64, grid, derivative=True)
        A = diff_operator(grid, "minus_i_ddx_H1")
        qr, svd = linalg_calls("qr"), linalg_calls("svd")
        fb = weak_aframe_bound(seq, A)
        assert fb.alpha > 0.0 and fb.beta > 0.0
        assert qr and svd
        assert self._dtypes(qr) == self._dtypes(svd) == {np.dtype(np.float64)}

    @pytest.mark.parametrize("d", [48, 96])
    def test_k_dual_on_exponentials_runs_real(self, rng, linalg_calls, d):
        # not powers of two: the tables gather the exact root -1; each column of the mirror
        # form is even or odd on the midpoint grid, so the factor is two half-size QRs
        seq = exponential_system(1.0, d // 2 + 5, interval_grid(d))
        J = l2_truncation(8)
        K = OperatorModel(random_matrix(rng, d, 8), J, seq.model)
        qr, inv = linalg_calls("qr"), linalg_calls("inv")
        assert k_dual(seq, K).certificate_residual <= 1e-10
        assert [args[0].shape[1] for args, _ in qr] == [d // 2, d // 2] and inv
        assert self._dtypes(qr) == self._dtypes(inv) == {np.dtype(np.float64)}

    def test_random_family_runs_complex(self, rng, linalg_calls):
        seq = random_frame(rng, 48, 60)
        K = OperatorModel(random_matrix(rng, 48, 8), l2_truncation(8), seq.model)
        qr, inv = linalg_calls("qr"), linalg_calls("inv")
        assert k_dual(seq, K).certificate_residual <= 1e-10
        assert len(qr) == 1 and inv
        assert self._dtypes(qr) == self._dtypes(inv) == {np.dtype(np.complex128)}


def _symmetric_model(rng, d):
    """The midpoint grid of [0, 1) with random weights mirrored bit for bit, w[::-1] == w."""
    half = (0.25 + rng.random(d - d // 2)) / d
    return HilbertModel(d, np.concatenate([half, half[:d // 2][::-1]]), "mirrored weights",
                        points=interval_grid(d).points)


def _raw_parity_family(model, n, derivative=False):
    """The b = 1 exponentials (or their -i d/dx images) with n columns: labels |k| <= n // 2,
    without label 0 when n is even."""
    vectors = exponential_system(1.0, n // 2, model, derivative).vectors
    return np.delete(vectors, n // 2, axis=1) if n % 2 == 0 else vectors


def _parity_family(model, n, derivative=False):
    """``_raw_parity_family``, whitened."""
    return model.sqrt_weights[:, None] * _raw_parity_family(model, n, derivative)


def _assert_solve_matches_pinv(y, kt, rcond=1e-10, tol=1e-12):
    proj, m = factor_of(y, rcond).solve(kt)
    pinv = np.linalg.pinv(y, rcond=rcond)
    assert np.linalg.norm(m - pinv @ kt) <= tol * np.linalg.norm(pinv @ kt)
    assert np.linalg.norm(proj - y @ (pinv @ kt)) <= tol * np.linalg.norm(kt)


@settings(max_examples=40, deadline=None)
@given(d=st.integers(2, 40), extra=st.integers(0, 33), derivative=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_parity_solve_matches_pinv_and_cond(d, extra, derivative, seed):
    """The split solve against numpy's pinv, and its certified-or-SVD decision against the
    kappa_F = ||y||_F ||y+||_F and sigma_max / sigma_min (``numpy.linalg.cond``) it stands for.
    The images drop the constant direction unless a label +-d is present, so they also take
    the SVD path."""
    rng = np.random.default_rng(seed)
    y = _parity_family(_symmetric_model(rng, d), d + extra, derivative)
    kt = random_matrix(rng, d, 3)
    fac = factor_of(y, 1e-10)
    certified = fac.s is None  # the SVD path's record holds the singular values
    cond = np.linalg.cond(y)
    if cond > 1e12:
        assert not certified
    else:
        kappa = np.linalg.norm(y) * np.linalg.norm(np.linalg.pinv(y))
        assume(abs(np.log10(kappa / 1e6)) > 0.01)
        assert certified == (kappa <= 1e6)
        assert (fac.parity is not None) == certified
    _assert_solve_matches_pinv(y, kt)


@settings(max_examples=40, deadline=None)
@given(d=st.integers(2, 64), extra=st.integers(0, 4), odd_n=st.booleans(),
       sign=st.sampled_from([1.0, -1.0]), seed=st.integers(0, 2**32 - 1))
def test_blocks_from_the_raw_family_are_the_whitened_ones(d, extra, odd_n, sign, seed):
    """The parity blocks ``factor`` builds from D's columns and the row scale sqrt(w) are, bit
    for bit, those cut from the mirror form z of the whitened family, with z formed whole as
    ``gram_form`` forms it and cut to Q z's blocks as the whole-z factor did.  Only a zero's
    sign may differ: numpy multiplies sqrt(w) into a complex entry as sqrt(w) + 0j, so
    Re(sqrt(w) v) = sqrt(w) Re v - 0 Im v, which is +0 where sqrt(w) Re v is -0.  An even N drops
    label 0, so it spans only with the alias +-d of the constant."""
    model = _symmetric_model(np.random.default_rng(seed), d)
    n = 2 * (d // 2 + extra) + 1 if odd_n else 2 * (d + extra)
    raw = _raw_parity_family(model, n) * (1.0 if sign > 0 else 1j)  # s = -1: i e_k
    record = factor_of(raw, 1e-10, scale=model.sqrt_weights)
    assert record.parity is not None
    (even, s), blocks = record.parity, record.blocks
    assert s == sign
    y = model.sqrt_weights[:, None] * raw
    h, half = d // 2, y.shape[1] // 2
    a, c = y[:, :half], y[:, half:y.shape[1] - half]
    z = np.concatenate([a.real * np.sqrt(2.0), a.imag * np.sqrt(2.0), c.real + c.imag], axis=1)
    assert gram_form(y, _classify(y)).tobytes() == z.tobytes()
    assert np.array_equal(even, np.all(z[:h] == z[:-h - 1:-1], axis=0))
    expected = [z[:d - h, even], z[d - h:, ~even] * -np.sqrt(2.0)]
    expected[0][:h] *= np.sqrt(2.0)
    for got, want in zip(blocks, expected):  # == on floats: every bit, save a zero's sign
        assert got.shape == want.shape and np.array_equal(got, want)


class _ShapeLog:
    """numpy as seen from a module: every array a numpy function returns has its shape logged."""

    def __init__(self, target, shapes):
        self._target, self._shapes = target, shapes

    def __getattr__(self, name):
        attr = getattr(self._target, name)
        wrap = isinstance(attr, types.ModuleType) or callable(attr) and not isinstance(attr, type)
        return _ShapeLog(attr, self._shapes) if wrap else attr

    def __call__(self, *args, **kwargs):
        out = self._target(*args, **kwargs)
        self._shapes.extend(a.shape for a in (out if isinstance(out, tuple) else (out,))
                            if isinstance(a, np.ndarray))
        return out


def test_parity_solve_forms_no_whitened_family_or_square_array(rng, monkeypatch):
    """The blocks solve without the dense d x d G^-1, which only the pencil forms, and from the
    raw columns, without a d x N mirror form or whitened copy: the traced peak stays below the
    16 d N bytes of the copy alone."""
    d, n = 64, 129
    model = _symmetric_model(rng, d)
    raw, kt = _raw_parity_family(model, n), random_matrix(rng, d, 3)
    structure = _classify(raw, model.sqrt_weights)  # as the family's record, classified once
    assert factor(raw, structure, 1e-10, scale=model.sqrt_weights).parity is not None
    shapes = []
    monkeypatch.setattr(_linalg, "np", _ShapeLog(np, shapes))
    tracemalloc.start()
    try:
        proj, m = factor(raw, structure, 1e-10, scale=model.sqrt_weights).solve(kt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        monkeypatch.undo()
    assert (d - d // 2, d // 2) in shapes  # the even block's R^-1, so the log sees the solve
    assert (d, d) not in shapes and (d, n) not in shapes
    assert peak < 16 * d * n
    y = model.sqrt_weights[:, None] * raw
    pinv = np.linalg.pinv(y, rcond=1e-10)
    assert np.linalg.norm(m - pinv @ kt) <= 1e-12 * np.linalg.norm(pinv @ kt)
    assert np.linalg.norm(proj - y @ (pinv @ kt)) <= 1e-12 * np.linalg.norm(kt)


@pytest.mark.parametrize("decades", [1.0, 9.0])
def test_scaled_record_solves_with_its_own_whitened_family(rng, decades):
    """A row scale is applied once: the record of (mat, scale) holds y = scale mat, and its
    solve is bit for bit that of the record of y, certified (1 decade of singular values) or
    not (9 decades)."""
    u, _ = np.linalg.qr(random_matrix(rng, 12, 12))
    v, _ = np.linalg.qr(random_matrix(rng, 20, 12))
    mat = (u * np.geomspace(1.0, 10.0**-decades, 12)) @ v.conj().T
    scale, kt = 0.5 + rng.random(12), random_matrix(rng, 12, 3)
    record, reference = factor_of(mat, 1e-10, scale=scale), factor_of(scale[:, None] * mat, 1e-10)
    assert record.parity is None and (record.s is None) == (decades < 5)
    if record.s is None:
        assert record.y.tobytes() == (scale[:, None] * mat).tobytes()
    for got, want in zip(record.solve(kt), reference.solve(kt)):
        assert got.tobytes() == want.tobytes()


def test_parity_record_holds_blocks_not_the_family(rng):
    """A parity record keeps the two blocks and their R^-1, and neither y nor a d x N or d x d
    array; its dense inverse is the G^-1 with G^-T y y^H G^-1 = I, and a solve gives the
    blocks up."""
    d, n = 16, 21
    model = _symmetric_model(rng, d)
    raw = _raw_parity_family(model, n)
    record = factor_of(raw, 1e-10, scale=model.sqrt_weights)
    assert record.parity is not None and record.y is None and len(record.blocks) == 2
    arrays = [a for value in vars(record).values()
              for a in (value if isinstance(value, (list, tuple)) else [value])
              if isinstance(a, np.ndarray)]
    assert arrays and all(a.shape not in {(d, n), (d, d)} for a in arrays)
    y = model.sqrt_weights[:, None] * raw
    g_inv = record.inverse()
    assert np.linalg.norm(g_inv.T @ (y @ y.conj().T) @ g_inv - np.eye(d)) <= 1e-12 * d
    record.solve(random_matrix(rng, d, 2))
    assert record.blocks is None and record.r_invs is None


class TestParityFallback:
    """What leaves a mirrored family to the unsplit factor, counted by its QRs."""

    def test_one_perturbed_entry_breaks_parity(self, rng, linalg_calls):
        y = _parity_family(interval_grid(16), 21)
        y[3, 2] += 0.1 + 0.2j
        y[3, -3] = np.conj(y[3, 2])
        assert _classify(y).sign == 1.0  # the family still mirrors
        qr = linalg_calls("qr")
        fac = factor_of(y, 1e-10)
        assert fac.r_invs is not None and fac.parity is None
        assert [args[0].shape for args, _ in qr] == [(21, 16)]
        _assert_solve_matches_pinv(y, random_matrix(rng, 16, 3))

    def test_a_block_with_fewer_columns_than_rows(self, rng, linalg_calls):
        # Re a and Im a even: the odd block has no columns, and y is singular
        d, h = 8, 5
        even = rng.standard_normal((d // 2, 2 * h))
        a = (even + 1j * np.roll(even, h, axis=1))[:, :h]
        a = np.concatenate([a, a[::-1]])
        y = np.concatenate([a, a[:, ::-1].conj()], axis=1)
        assert _classify(y).sign == 1.0
        qr = linalg_calls("qr")
        assert factor_of(y, 1e-10).r_invs is None
        assert len(qr) == 1
        _assert_solve_matches_pinv(y, random_matrix(rng, d, 2))

    def test_an_odd_grid_puts_its_middle_row_in_the_even_block(self, rng, linalg_calls):
        y = _parity_family(_symmetric_model(rng, 15), 17)
        qr = linalg_calls("qr")
        assert factor_of(y, 1e-10).parity is not None
        assert [args[0].shape[1] for args, _ in qr] == [8, 7]
        kt = random_matrix(rng, 15, 3)
        _assert_solve_matches_pinv(y, kt)
        # an odd column must vanish on the middle row
        y[7, 1] += 0.5j
        y[7, -2] = np.conj(y[7, 1])
        assert _classify(y).sign == 1.0
        del qr[:]
        assert factor_of(y, 1e-10).parity is None
        assert len(qr) == 1
        _assert_solve_matches_pinv(y, kt)

    def test_the_pencil_reads_the_dense_inverse(self, rng):
        """K's whitened matrix has the parity, so the pencil's b_inv_h is G^-1; a column
        permutation of K keeps K K^H, the K-frame bound and nothing of the parity."""
        model = interval_grid(12)
        y = _parity_family(model, 13)
        K = OperatorModel(y / model.sqrt_weights[:, None], l2_truncation(13), model)
        perm = OperatorModel(K.matrix[:, rng.permutation(13)], K.input_model, model)
        assert factor_of(K.whitened()).parity is not None
        assert factor_of(perm.whitened()).parity is None
        seq = FrameSequence(model, random_matrix(rng, 12, 30))
        bounds, reference = kframe_bounds(seq, K), kframe_bounds(seq, perm)
        assert _rel(bounds.alpha, reference.alpha) <= RTOL
        assert _rel(bounds.beta, reference.beta) <= RTOL

    def test_interchange_dual_solves_on_the_blocks(self, rng):
        """At^H of A = y^H is the square parity family y: h_n = W^-1/2 y^-1 t_n."""
        model = interval_grid(13)
        A = OperatorModel(_parity_family(model, 13).conj().T, model, model)
        ath = A.domain_whitened().conj().T
        assert factor_of(ath, 1e-8).parity is not None
        seq = FrameSequence(model, random_matrix(rng, 13, 20))
        dual = weak_a_dual(seq, A)
        h = interchange_dual(seq, dual, A)
        assert h.certificate_residual <= 1e-12
        oracle = np.linalg.solve(ath, dual.vectors * model.sqrt_weights[:, None])
        gap = h.vectors * model.sqrt_weights[:, None] - oracle
        assert np.linalg.norm(gap) <= RTOL * np.linalg.norm(oracle)
