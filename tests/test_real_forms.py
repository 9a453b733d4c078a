"""Conjugate-mirrored families, whose column -n is +-conj of column n, run
their Gram factor in real arithmetic.  A column permutation keeps the family's
S-form and sends it down the complex path, so both paths must agree."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from opframe._linalg import _real_matmul, _real_rows, gram_factor
from opframe.constructions import exponential_system
from opframe.hilbert import Subspace, interval_grid, l2_truncation
from opframe.opmodel import OperatorModel, diff_operator
from opframe.relframes import k_dual, kframe_bounds, range_inclusion
from opframe.seqops import FrameSequence
from opframe.weakframes import weak_aframe_bound

from conftest import random_frame, random_matrix, random_weighted_model

RTOL = 1e-12


def _mirrored(rng, d, n, sign):
    """d x n: column n - 1 - j is sign * conj(column j); an odd n's middle
    column is real (sign +1) or imaginary (sign -1)."""
    a = random_matrix(rng, d, n // 2)
    mid = rng.standard_normal((d, n % 2)) * (1.0 if sign > 0 else 1j)
    return np.concatenate([a, mid, sign * a[:, ::-1].conj()], axis=1)


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
    assume(np.iscomplexobj(_real_rows(perm.whitened())))  # not another mirror

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
    assert _real_rows(vectors) is vectors
    r = gram_factor(vectors)
    assert r.dtype == np.complex128
    assert np.linalg.norm(r.conj().T @ r - vectors @ vectors.conj().T) <= 1e-13 * np.linalg.norm(
        vectors) ** 2


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_a_complex_middle_column_does_not_select_the_mirror(rng, sign):
    vectors = _mirrored(rng, 6, 9, sign)
    vectors[:, 4] = random_matrix(rng, 6, 1)[:, 0]  # every outer pair still mirrors
    assert _real_rows(vectors) is vectors
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
        # not powers of two: the tables gather the exact root -1
        seq = exponential_system(1.0, d // 2 + 5, interval_grid(d))
        J = l2_truncation(8)
        K = OperatorModel(random_matrix(rng, d, 8), J, seq.model)
        qr, inv = linalg_calls("qr"), linalg_calls("inv")
        assert k_dual(seq, K).certificate_residual <= 1e-10
        assert len(qr) == 1 and inv
        assert self._dtypes(qr) == self._dtypes(inv) == {np.dtype(np.float64)}

    def test_random_family_runs_complex(self, rng, linalg_calls):
        seq = random_frame(rng, 48, 60)
        K = OperatorModel(random_matrix(rng, 48, 8), l2_truncation(8), seq.model)
        qr, inv = linalg_calls("qr"), linalg_calls("inv")
        assert k_dual(seq, K).certificate_residual <= 1e-10
        assert len(qr) == 1 and inv
        assert self._dtypes(qr) == self._dtypes(inv) == {np.dtype(np.complex128)}
