import numpy as np
import pytest

from opframe.errors import DegenerateOperator, RangeNotIncluded
from opframe.hilbert import graph_inner, l2_truncation
from opframe.opmodel import OperatorModel, block_multiplier, diagonal_operator
from opframe.constructions import (
    fold_symmetric_window,
    gabor_system,
    half_cosine_window,
)
from opframe.relframes import (
    a_dual_graph,
    aframe_bounds_graph,
    k_dual,
    kframe_bounds,
    range_inclusion,
)
from opframe.seqops import FrameSequence, canonical_dual, frame_bounds

from conftest import random_frame, random_matrix, random_vector


def projection_onto_e1():
    m = l2_truncation(2)
    p = np.zeros((2, 2), dtype=complex)
    p[0, 0] = 1.0
    return OperatorModel(p, m, m, name="P_e1")


class TestKFrameBounds:
    def test_projection_single_vector(self):
        m = l2_truncation(2)
        seq = FrameSequence(m, np.array([[1.0], [0.0]], dtype=complex))
        fb = kframe_bounds(seq, projection_onto_e1())
        assert fb.alpha == pytest.approx(1.0, abs=1e-12)
        assert fb.beta == pytest.approx(1.0, abs=1e-12)
        assert fb.kind == "k_frame"

    def test_diagonal_quotient(self):
        m = l2_truncation(2)
        seq = FrameSequence(m, np.eye(2, dtype=complex))
        fb = kframe_bounds(seq, diagonal_operator(m, [1.0, 2.0]))
        assert fb.alpha == pytest.approx(0.25, abs=1e-12)
        assert fb.beta == pytest.approx(1.0, abs=1e-12)

    def test_minimum_requires_kernel_components(self):
        # seq = single column (1,1); K* kills e2.  Restricting the quotient
        # to R(K) alone would report 1; the optimal constant is 0 because
        # f = (1,-1) has K*f != 0 but vanishing coefficients.
        m = l2_truncation(2)
        seq = FrameSequence(m, np.array([[1.0], [1.0]], dtype=complex))
        fb = kframe_bounds(seq, diagonal_operator(m, [1.0, 0.0]))
        assert fb.alpha <= 1e-12
        assert fb.kind == "bessel_only"

    def test_sphere_sampling_oracle(self, rng):
        # the sampler is an upper bound for the optimal constant
        m = l2_truncation(3)
        for _ in range(5):
            seq = FrameSequence(m, random_matrix(rng, 3, 5))
            K = OperatorModel(random_matrix(rng, 3, 3), m, m)
            alpha = kframe_bounds(seq, K).alpha
            f = random_matrix(rng, 3, 20000)
            f /= np.linalg.norm(f, axis=0)
            num = np.sum(np.abs(seq.vectors.conj().T @ f) ** 2, axis=0)
            den = np.sum(np.abs(K.matrix.conj().T @ f) ** 2, axis=0)
            live = den > 1e-12
            oracle = float(np.min(num[live] / den[live]))
            assert alpha <= oracle * (1 + 1e-9)
            assert oracle <= 1.10 * alpha

    def test_zero_operator_degenerate(self, rng):
        m = l2_truncation(3)
        seq = random_frame(rng, 3, 4)
        with pytest.raises(DegenerateOperator):
            kframe_bounds(seq, diagonal_operator(m, [0.0, 0.0, 0.0]))


class TestKDual:
    def test_frame_sequence_certifies(self, rng):
        m = l2_truncation(6)
        seq = random_frame(rng, 6, 9)
        K = OperatorModel(random_matrix(rng, 6, 6), m, m)
        dual = k_dual(seq, K)
        assert dual.certificate_residual <= 1e-9
        # alternative dual: k_n = K* v_n for any dual frame {v_n} of {g_n}
        v = canonical_dual(seq)
        alt = K.matrix.conj().T @ v.vectors
        f = random_vector(rng, 6)
        rec = seq.vectors @ (alt.conj().T @ f)
        assert np.linalg.norm(rec - K.apply(f)) <= 1e-9 * np.linalg.norm(K.apply(f))

    def test_image_of_a_frame_certifies(self, rng):
        # seq = {K f'_n} for a frame {f'_n} of J
        j_model = l2_truncation(4)
        h_model = l2_truncation(6)
        fprime = random_frame(rng, 4, 7, j_model)
        K = OperatorModel(random_matrix(rng, 6, 4), j_model, h_model)
        seq = FrameSequence(h_model, K.matrix @ fprime.vectors)
        dual = k_dual(seq, K)
        assert dual.certificate_residual <= 1e-9
        assert dual.model is j_model
        # any dual frame of {f'_n} also certifies
        alt = canonical_dual(fprime)
        f = random_vector(rng, 4)
        rec = seq.vectors @ (alt.vectors.conj().T @ f)
        assert np.linalg.norm(rec - K.apply(f)) <= 1e-9 * np.linalg.norm(K.apply(f))

    def test_zero_operator_rejected(self, rng):
        m = l2_truncation(3)
        seq = random_frame(rng, 3, 5)
        with pytest.raises(DegenerateOperator):
            k_dual(seq, diagonal_operator(m, np.zeros(3)))

    def test_range_not_included(self, rng):
        m = l2_truncation(3)
        seq = FrameSequence(m, np.eye(3, dtype=complex)[:, :1])  # spans e1 only
        with pytest.raises(RangeNotIncluded):
            k_dual(seq, diagonal_operator(m, [1.0, 1.0, 1.0]))

    def test_dual_bounds_against_adjoint_reported_not_asserted(self, rng):
        # Whether {k_n} is in turn a frame-type family for K* is only known
        # in the endomorphism case; here the empirical bounds are computed
        # and recorded, with no theorem-level assertion beyond finiteness.
        from opframe.opmodel import adjoint

        m = l2_truncation(5)
        seq = random_frame(rng, 5, 8)
        K = OperatorModel(random_matrix(rng, 5, 5), m, m)
        dual = k_dual(seq, K)
        back = kframe_bounds(FrameSequence(dual.model, dual.vectors), adjoint(K))
        assert np.isfinite(back.alpha) and np.isfinite(back.beta)
        assert back.alpha >= 0.0

    def test_constructed_dual_bessel_bound(self, rng):
        m = l2_truncation(5)
        seq = random_frame(rng, 5, 8)
        K = OperatorModel(random_matrix(rng, 5, 5), m, m)
        dual = k_dual(seq, K)
        # Bessel bound of {k_n} equals lambda_max(M M*) for the factor M
        y = seq.whitened()
        mfac = np.linalg.pinv(y, rcond=1e-10) @ K.matrix
        top = float(np.linalg.eigvalsh(mfac @ mfac.conj().T)[-1])
        assert dual.bessel_bound == pytest.approx(top, abs=1e-10 * max(top, 1))


class TestRangeInclusion:
    def test_spanning_sequence_always_true(self, rng):
        seq = random_frame(rng, 4, 6)
        K = OperatorModel(random_matrix(rng, 4, 4), seq.model, seq.model)
        included, residual = range_inclusion(K, seq)
        assert included and residual <= 1e-10

    def test_identity_not_in_line(self):
        m = l2_truncation(2)
        seq = FrameSequence(m, np.array([[1.0], [0.0]], dtype=complex))
        included, residual = range_inclusion(diagonal_operator(m, [1, 1]), seq)
        assert not included and residual > 0.5

    def test_factorization_consistency(self, rng):
        # inclusion holds iff the minimum-norm factor reproduces K
        m = l2_truncation(4)
        for cols, expect in [(6, True), (2, False)]:
            seq = random_frame(rng, 4, cols)
            K = OperatorModel(random_matrix(rng, 4, 4), m, m)
            included, _ = range_inclusion(K, seq)
            y = seq.vectors
            strong = np.linalg.norm(
                y @ (np.linalg.pinv(y, rcond=1e-10) @ K.matrix) - K.matrix
            ) / np.linalg.norm(K.matrix)
            assert included == (strong <= 1e-8)
            assert included == expect


class TestNotFrameExample:
    """Cellwise fold operator + critically undersampled Gabor family."""

    @staticmethod
    def build(window, cells=2, p=16, seed=0):
        rng = np.random.default_rng(seed)
        alphas = rng.uniform(1.0, 2.0, cells) * np.exp(2j * np.pi * rng.random(cells))
        A = block_multiplier(alphas, p)
        seq = gabor_system(
            window, 2.0, 1.0, 0, p // 2, A.input_model, m_values=list(range(cells))
        )
        return A, seq

    def test_fold_symmetric_window_inclusion_exact(self):
        A, seq = self.build(fold_symmetric_window)
        included, residual = range_inclusion(A, seq)
        assert included and residual <= 1e-10

    def test_unit_periodicity_is_necessary(self):
        # a bounded-below window without g(y) = g(y-1) twists the synthesis
        # range away from the fold-symmetric subspace, so inclusion fails
        A, seq = self.build(half_cosine_window)
        included, residual = range_inclusion(A, seq)
        assert not included
        assert residual > 1e-2

    def test_bessel_only_but_graph_frame(self):
        A, seq = self.build(fold_symmetric_window)
        fb = frame_bounds(seq)
        assert fb.alpha / fb.beta <= 1e-3  # never a frame: rank deficiency
        gb = aframe_bounds_graph(seq, A)
        assert gb.alpha > 1e-8
        assert gb.kind == "graph_a_frame"

    def test_graph_dual_expansion(self):
        A, seq = self.build(fold_symmetric_window)
        dual = a_dual_graph(seq, A)
        assert dual.certificate_residual <= 1e-6
        assert dual.graph_space


class TestAFrameGraph:
    def test_bounded_operator_matches_dense_pencil_oracle(self):
        # d = 2: assemble both quadratic forms densely and scan the pencil
        m = l2_truncation(2)
        seq = FrameSequence(m, np.array([[1, 0, 1], [0, 1, 1]], dtype=complex))
        A = diagonal_operator(m, [1.0, 2.0])
        fb = aframe_bounds_graph(seq, A)
        s_form = seq.vectors @ seq.vectors.conj().T
        a = A.matrix
        b_form = a @ np.linalg.inv(np.eye(2) + a.conj().T @ a) @ a.conj().T
        import scipy.linalg

        oracle = scipy.linalg.eigh(s_form, b_form, eigvals_only=True)[0]
        assert fb.alpha == pytest.approx(oracle, abs=1e-10)

    def test_orthonormal_basis_is_graph_frame(self, rng):
        m = l2_truncation(5)
        seq = FrameSequence(m, np.eye(5, dtype=complex))
        A = OperatorModel(random_matrix(rng, 5, 5), m, m)
        fb = aframe_bounds_graph(seq, A)
        assert fb.alpha > 0
        assert fb.beta == pytest.approx(1.0, abs=1e-12)

    def test_zero_operator_degenerate(self, rng):
        m = l2_truncation(3)
        seq = random_frame(rng, 3, 4)
        with pytest.raises(DegenerateOperator):
            aframe_bounds_graph(seq, diagonal_operator(m, np.zeros(3)))


class TestADualGraph:
    def test_componentwise_diagonal(self):
        # standard basis, A = diag(n): k_n = (n / (1 + n^2)) e_n and the
        # expansion recovers A exactly
        d = 5
        m = l2_truncation(d)
        seq = FrameSequence(m, np.eye(d, dtype=complex))
        ns = np.arange(1, d + 1, dtype=float)
        A = diagonal_operator(m, ns)
        dual = a_dual_graph(seq, A)
        np.testing.assert_allclose(
            dual.vectors, np.diag(ns / (1 + ns**2)), atol=1e-12
        )
        assert dual.certificate_residual <= 1e-12

    def test_random_instances_certify(self, rng):
        for _ in range(5):
            seq = random_frame(rng, 8, 12)
            A = OperatorModel(random_matrix(rng, 8, 8), seq.model, seq.model)
            dual = a_dual_graph(seq, A)
            assert dual.certificate_residual <= 1e-9

    def test_bounded_case_expands_like_k_dual(self, rng):
        # same expansion property as the two-model dual, with graph weights
        seq = random_frame(rng, 6, 9)
        A = OperatorModel(random_matrix(rng, 6, 6), seq.model, seq.model)
        dual = a_dual_graph(seq, A)
        f = random_vector(rng, 6)
        coeffs = np.array(
            [graph_inner(A, f, dual.vectors[:, n]) for n in range(dual.n_vectors)]
        )
        rec = seq.vectors @ coeffs
        af = A.apply(f)
        assert np.linalg.norm(rec - af) <= 1e-9 * np.linalg.norm(af)

    def test_range_not_included(self, rng):
        m = l2_truncation(3)
        seq = FrameSequence(m, np.eye(3, dtype=complex)[:, :1])
        with pytest.raises(RangeNotIncluded):
            a_dual_graph(seq, diagonal_operator(m, [1.0, 1.0, 1.0]))


class TestEquivalence:
    def test_alpha_positive_iff_dual_certifies(self, rng):
        # both directions, valid and broken instances interleaved
        for trial in range(20):
            d = int(rng.integers(3, 9))
            m = l2_truncation(d)
            K = OperatorModel(random_matrix(rng, d, d), m, m)
            if trial % 2 == 0:
                seq = random_frame(rng, d, d + 3, m)
            else:
                # project the family away from a direction K* does not kill
                v = random_vector(rng, d)
                v /= np.linalg.norm(v)
                raw = random_matrix(rng, d, d + 3)
                seq = FrameSequence(m, raw - np.outer(v, v.conj() @ raw))
            alpha = kframe_bounds(seq, K).alpha
            if alpha > 1e-8:
                dual = k_dual(seq, K)
                assert dual.certificate_residual <= 1e-8
            else:
                with pytest.raises((RangeNotIncluded, DegenerateOperator)):
                    k_dual(seq, K)


class TestKernelCounts:
    """A dual factors the synthesis matrix once.  A well-conditioned frame
    takes one QR of the whitened D^H and no SVD; an ill-conditioned frame or
    a family with fewer vectors than dimensions takes one SVD of the
    whitened D.  No numpy.linalg.pinv runs."""

    def _counts(self, linalg_calls):
        return linalg_calls("svd"), linalg_calls("pinv"), linalg_calls("qr")

    def test_k_dual_factors_synthesis_matrix_once(self, rng, linalg_calls):
        J = l2_truncation(4)
        seq = random_frame(rng, 6, 9)
        K = OperatorModel(random_matrix(rng, 6, 4), J, seq.model)
        svd, pinv, qr = self._counts(linalg_calls)
        assert k_dual(seq, K).certificate_residual <= 1e-9
        assert not svd and not pinv
        assert len(qr) == 1
        assert np.array_equal(qr[0][0][0], seq.whitened().conj().T)

    def test_a_dual_graph_factors_synthesis_matrix_once(self, rng, linalg_calls):
        seq = random_frame(rng, 8, 12)
        A = OperatorModel(random_matrix(rng, 8, 8), seq.model, seq.model)
        svd, pinv, qr = self._counts(linalg_calls)
        assert a_dual_graph(seq, A).certificate_residual <= 1e-9
        assert not svd and not pinv
        assert len(qr) == 1
        assert np.array_equal(qr[0][0][0], seq.whitened().conj().T)

    def _svd_once(self, seq, K, linalg_calls):
        svd, pinv, _ = self._counts(linalg_calls)
        assert k_dual(seq, K).certificate_residual <= 1e-8
        assert not pinv
        assert len(svd) == 1
        assert np.array_equal(svd[0][0][0], seq.whitened())

    def test_ill_conditioned_frame_takes_one_svd(self, rng, linalg_calls):
        u, _ = np.linalg.qr(random_matrix(rng, 6, 6))
        v, _ = np.linalg.qr(random_matrix(rng, 9, 6))
        s = np.array([1.0, 0.8, 0.6, 0.4, 0.2, 1e-8])
        seq = FrameSequence(l2_truncation(6), (u * s) @ v.conj().T)
        K = OperatorModel(random_matrix(rng, 6, 4), l2_truncation(4), seq.model)
        self._svd_once(seq, K, linalg_calls)

    def test_fewer_vectors_than_dimensions_take_one_svd(self, rng, linalg_calls):
        seq = random_frame(rng, 9, 6)
        K = OperatorModel(seq.vectors @ random_matrix(rng, 6, 4), l2_truncation(4), seq.model)
        self._svd_once(seq, K, linalg_calls)
