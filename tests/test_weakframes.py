import numpy as np
import pytest

from opframe.errors import (
    DomainViolation,
    FactorizationFailed,
    InvalidDimension,
    NotSurjective,
)
from opframe.hilbert import HilbertModel, interval_grid, l2_truncation, orthonormalize
from opframe.opmodel import (
    OperatorModel,
    adjoint,
    block_multiplier,
    diagonal_operator,
    diff_operator,
    identity_operator,
    pseudo_inverse,
)
from opframe.constructions import (
    difference_sequence,
    exponential_system,
    fold_symmetric_window,
    gabor_system,
)
from opframe.seqops import FrameSequence, analysis, canonical_dual, frame_bounds
from opframe.weakframes import (
    adjoint_decomposition,
    interchange_dual,
    user_dual,
    verify_weak_duality,
    weak_a_dual,
    weak_aframe_bound,
)

from conftest import random_frame, random_matrix, random_vector, random_weighted_model


class TestWeakBound:
    def test_image_of_orthonormal_basis_gives_one(self, rng):
        # {A e_n} for a full orthonormal basis: the coefficients of f against
        # the family are exactly the coordinates of A* f
        d = 6
        m = l2_truncation(d)
        A = OperatorModel(random_matrix(rng, d, d), m, m)
        seq = FrameSequence(m, A.matrix.copy())
        fb = weak_aframe_bound(seq, A)
        assert fb.alpha == pytest.approx(1.0, abs=1e-10)
        assert fb.kind == "weak_a_frame"

    def test_image_of_frame_lands_in_frame_bounds(self, rng):
        d = 5
        m = l2_truncation(d)
        frame = random_frame(rng, d, 9, m)
        a_fb = frame_bounds(frame)
        A = OperatorModel(random_matrix(rng, d, d), m, m)
        seq = FrameSequence(m, A.matrix @ frame.vectors)
        fb = weak_aframe_bound(seq, A)
        assert a_fb.alpha - 1e-9 <= fb.alpha <= a_fb.beta + 1e-9

    def test_truncated_exponential_family_rank_starved(self):
        # 81 labels cannot dominate ||A* f||^2 on a 254-dimensional domain:
        # the optimal constant at this truncation is exactly zero
        grid = interval_grid(256)
        A = diff_operator(grid, "minus_i_ddx_H1")
        seq = exponential_system(1.0, 40, grid, derivative=True)
        assert weak_aframe_bound(seq, A).alpha <= 1e-12

    def test_matched_exponential_family(self):
        # labels resolving the grid Nyquist (range = d / (2b)) give the
        # tight-family constant 1/b
        grid = interval_grid(256)
        A = diff_operator(grid, "minus_i_ddx_H1")
        for b, expect in [(1.0, 1.0), (0.5, 2.0)]:
            seq = exponential_system(b, int(256 / (2 * b)), grid, derivative=True)
            fb = weak_aframe_bound(seq, A)
            assert fb.alpha >= 0.9 * expect
            assert fb.alpha == pytest.approx(expect, rel=2e-3)

    def test_order_invariance(self, rng):
        d = 5
        m = l2_truncation(d)
        A = OperatorModel(random_matrix(rng, d, d), m, m)
        seq = FrameSequence(m, A.matrix @ random_frame(rng, d, 8, m).vectors)
        fb = weak_aframe_bound(seq, A)
        perm = rng.permutation(8)
        fb2 = weak_aframe_bound(FrameSequence(m, seq.vectors[:, perm]), A)
        assert fb2.alpha == pytest.approx(fb.alpha, abs=1e-11)


class TestWeakDual:
    def test_orthonormal_image_recovers_basis(self, rng):
        d = 6
        m = l2_truncation(d)
        mat = random_matrix(rng, d, d)  # invertible with probability one
        A = OperatorModel(mat, m, m)
        seq = FrameSequence(m, mat.copy())
        dual = weak_a_dual(seq, A)
        np.testing.assert_allclose(dual.vectors, np.eye(d), atol=1e-9)
        assert dual.certificate_residual <= 1e-9
        assert dual.producer == "weak_a_dual_thm"

    def test_frame_image_certifies_and_so_does_any_dual(self, rng):
        d = 5
        m = l2_truncation(d)
        frame = random_frame(rng, d, 8, m)
        A = OperatorModel(random_matrix(rng, d, d), m, m)
        seq = FrameSequence(m, A.matrix @ frame.vectors)
        dual = weak_a_dual(seq, A)
        assert dual.certificate_residual <= 1e-8
        alt = user_dual(m, canonical_dual(frame).vectors)
        assert verify_weak_duality(seq, alt, A) <= 1e-8

    def test_difference_sequence_weak_yes_strong_no(self):
        seq = difference_sequence(60)
        A = OperatorModel(seq.vectors.copy(), seq.model, seq.model)
        dual = weak_a_dual(seq, A)
        # constructed dual coincides with the orthonormal basis
        np.testing.assert_allclose(dual.vectors, np.eye(60), atol=1e-10)
        assert dual.certificate_residual <= 1e-8
        # strong expansion: every proper partial sum stays far from A f
        f = (1.0 / np.arange(1, 61)).astype(complex)
        coeffs = analysis(dual.as_frame_sequence(), f)
        af = A.apply(f)
        gaps = [
            np.linalg.norm(seq.vectors[:, :n] @ coeffs[:n] - af) for n in range(1, 60)
        ]
        assert min(gaps) >= 0.5
        assert min(gaps) == pytest.approx(np.sqrt(2.0), abs=1e-12)

    def test_factorization_failure_on_starved_family(self, rng):
        d = 5
        m = l2_truncation(d)
        v = random_vector(rng, d)
        v /= np.linalg.norm(v)
        raw = random_matrix(rng, d, 8)
        seq = FrameSequence(m, raw - np.outer(v, v.conj() @ raw))
        A = identity_operator(m)
        with pytest.raises(FactorizationFailed):
            weak_a_dual(seq, A)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_dual_sequence_rejects_non_finite_vectors(rng, bad):
    vectors = random_matrix(rng, 3, 4)
    vectors[1, 2] = bad
    with pytest.raises(InvalidDimension, match="non-finite"):
        user_dual(l2_truncation(3), vectors)


class TestVerifyWeakDuality:
    def test_zeroed_dual_is_detected(self, rng):
        d = 5
        m = l2_truncation(d)
        ns = np.arange(1, d + 1, dtype=float)
        A = diagonal_operator(m, ns)
        seq = FrameSequence(m, np.diag(ns).astype(complex))
        broken = user_dual(m, np.zeros((d, d)))
        assert verify_weak_duality(seq, broken, A) == pytest.approx(1.0, abs=1e-12)

    def test_successful_dual_reverifies(self, rng):
        d = 6
        m = l2_truncation(d)
        A = OperatorModel(random_matrix(rng, d, d), m, m)
        seq = FrameSequence(m, A.matrix @ random_frame(rng, d, 9, m).vectors)
        dual = weak_a_dual(seq, A)
        assert verify_weak_duality(seq, dual, A, trials=200, seed=7) <= 1e-8

    def test_exm1_scaled_pair_passes_and_printed_scaling_fails(self):
        """The valid weak dual of {2 pi n b e_nb} is {b e_nb}.

        The (1/b)-scaled family satisfies the pairing identity only at
        b = 1: at b = 1/2 it is off by the factor 1/b^2 = 4, which the
        residual exposes as an O(1) defect.
        """
        from opframe.scenarios import exm1_probe_functions

        grid = interval_grid(256)
        A = diff_operator(grid, "minus_i_ddx_H1")
        hs, us = exm1_probe_functions(grid)
        for b in (1.0, 0.5):
            seq = exponential_system(b, 40, grid, derivative=True)
            base = exponential_system(b, 40, grid)
            good = user_dual(grid, b * base.vectors)
            bad = user_dual(grid, (1.0 / b) * base.vectors)
            good_res = verify_weak_duality(seq, good, A, hs=hs, us=us)
            bad_res = verify_weak_duality(seq, bad, A, hs=hs, us=us)
            assert good_res <= 1e-3
            if b == 1.0:
                assert bad_res == good_res  # the scalings coincide
            else:
                assert bad_res > 0.1


class TestAdjointDecomposition:
    def test_diagonal_exact(self):
        d = 5
        m = l2_truncation(d)
        ns = np.arange(1, d + 1, dtype=float)
        A = diagonal_operator(m, ns)
        seq = FrameSequence(m, np.diag(ns).astype(complex))
        dual = user_dual(m, np.eye(d))
        u = np.zeros(d)
        u[2] = 1.0
        vec, residual = adjoint_decomposition(seq, dual, A, u)
        np.testing.assert_allclose(vec, 3.0 * u, atol=1e-12)
        assert residual <= 1e-12

    def test_exm1_truncation_error_against_analytic_derivative(self):
        from opframe.scenarios import exm1_decomposition_error

        errs = {r: exm1_decomposition_error(1.0, r, interval_grid(256))
                for r in (20, 40, 80)}
        assert errs[40] <= 1e-2
        assert errs[80] < errs[40] < errs[20]

    def test_outside_adjoint_domain_raises(self):
        grid = interval_grid(64)
        A = diff_operator(grid, "minus_i_ddx_H1")
        seq = exponential_system(1.0, 10, grid, derivative=True)
        dual = user_dual(grid, exponential_system(1.0, 10, grid).vectors)
        with pytest.raises(DomainViolation):
            adjoint_decomposition(seq, dual, A, np.ones(64))

    def test_strong_follows_from_weak_on_exact_instances(self, rng):
        # decomposition residual <= duality residual + 1e-10 when both are
        # measured on the same exactly-factorized instance
        d = 6
        m = l2_truncation(d)
        A = OperatorModel(random_matrix(rng, d, d), m, m)
        seq = FrameSequence(m, A.matrix @ random_frame(rng, d, 9, m).vectors)
        dual = weak_a_dual(seq, A)
        weak_res = verify_weak_duality(seq, dual, A)
        u = random_vector(rng, d)
        _, strong_res = adjoint_decomposition(seq, dual, A, u)
        assert strong_res <= weak_res + 1e-10


class TestGaborDecomposition:
    def test_windowed_model_recovers_derivative(self):
        """Spanning modulation range: the canonical dual reconstructs -i u'.

        Window [-8, 8) at d = 256 needs modulation coverage past the grid
        Nyquist (8 per unit), achieved at b = 1/2 with |n| <= 20.
        """
        d, x0, x1 = 256, -8.0, 8.0
        grid = interval_grid(d, x0, x1)
        from opframe.constructions import gaussian_window, gaussian_window_deriv

        A = diff_operator(grid, "minus_i_ddx_periodic")
        plain = gabor_system(gaussian_window, 1.0, 0.5, 0, 20, grid,
                             m_values=list(range(-8, 8)))
        deriv = gabor_system(gaussian_window, 1.0, 0.5, 0, 20, grid,
                             window_deriv=gaussian_window_deriv, derivative=True,
                             m_values=list(range(-8, 8)))
        h = canonical_dual(plain)
        u = (np.exp(-0.5 * grid.points**2) * np.sin(grid.points)).astype(complex)
        uprime = np.exp(-0.5 * grid.points**2) * (
            np.cos(grid.points) - grid.points * np.sin(grid.points)
        )
        vec = h.vectors @ analysis(deriv, u)
        ref = -1j * uprime
        w = grid.weights
        rel = np.sqrt(np.sum(w * np.abs(vec - ref) ** 2)) / np.sqrt(
            np.sum(w * np.abs(ref) ** 2)
        )
        assert rel <= 1e-2


class TestInterchange:
    def test_identity_operator_reduces_to_plain_duality(self, rng):
        d = 5
        seq = random_frame(rng, d, 8)
        A = identity_operator(seq.model)
        dual = weak_a_dual(seq, A)
        inter = interchange_dual(seq, dual, A)
        np.testing.assert_allclose(inter.vectors, dual.vectors, atol=1e-9)
        assert inter.certificate_residual <= 1e-9

    def test_diagonal_componentwise_oracle(self):
        d = 6
        m = l2_truncation(d)
        ns = np.arange(1, d + 1, dtype=float)
        A = diagonal_operator(m, ns)
        seq = FrameSequence(m, np.diag(ns).astype(complex))
        dual = user_dual(m, np.eye(d))
        inter = interchange_dual(seq, dual, A)
        np.testing.assert_allclose(inter.vectors, np.diag(1.0 / ns), atol=1e-12)
        assert inter.certificate_residual <= 1e-12
        assert inter.producer == "interchange_thm"

    def test_fold_model_block_multiplier(self):
        # the fold operator acts diagonally on fold coordinates; with all
        # |alpha_k| >= 1 it is surjective there and the interchange dual
        # reconstructs the whole fold model
        cells, p = 3, 8
        rng = np.random.default_rng(3)
        alphas = rng.uniform(1.0, 2.0, cells)
        big = block_multiplier(alphas, p)
        grid = big.input_model
        # orthonormal fold coordinates: (delta_j + delta_{j+p}) / sqrt(2 w)
        d_half = cells * p
        basis = np.zeros((grid.dim, d_half), dtype=complex)
        for k in range(cells):
            for i in range(p):
                col = k * p + i
                basis[2 * k * p + i, col] = 1.0
                basis[2 * k * p + p + i, col] = 1.0
        basis /= np.sqrt(2.0 * grid.weights[0])
        fold = HilbertModel(d_half, np.ones(d_half), "fold coordinates")
        diag = np.repeat(alphas, p).astype(complex)
        A = diagonal_operator(fold, diag)
        gab = gabor_system(fold_symmetric_window, 2.0, 1.0, 0, p // 2, grid,
                           m_values=list(range(cells)))
        coords = basis.conj().T @ (grid.weights[:, None] * gab.vectors)
        seq = FrameSequence(fold, coords)
        dual = weak_a_dual(seq, A)
        inter = interchange_dual(seq, dual, A)
        assert inter.certificate_residual <= 1e-6

    @pytest.mark.parametrize("c", [1e-9, 1.0, 1e9])
    def test_surjectivity_is_scale_invariant(self, rng, c):
        # c I is surjective at every scale; the rank rule is sigma_min
        # against sigma_tol * sigma_max, never an absolute sigma_min
        d = 5
        m = l2_truncation(d)
        seq = random_frame(rng, d, 8)
        A = diagonal_operator(m, np.full(d, c))
        inter = interchange_dual(seq, weak_a_dual(seq, A), A)
        assert inter.certificate_residual <= 1e-9

    def test_not_surjective_rejected(self, rng):
        d = 5
        m = l2_truncation(d)
        seq = random_frame(rng, d, 8)
        A = diagonal_operator(m, [1.0, 1.0, 1.0, 1.0, 0.0])
        dual = weak_a_dual(seq, A)
        with pytest.raises(NotSurjective):
            interchange_dual(seq, dual, A)


    @pytest.mark.parametrize("with_domain", [False, True])
    def test_matches_adjoint_of_pseudo_inverse(self, rng, with_domain):
        # (A+)* t_n formed from the SVD of the whitened operator agrees with
        # the weighted adjoint of the weighted pseudo-inverse
        d = 7
        m = random_weighted_model(rng, d)
        dom = orthonormalize(random_matrix(rng, d, d), m) if with_domain else None
        A = OperatorModel(np.eye(d) + 0.3 * random_matrix(rng, d, d) / np.sqrt(d), m, m,
                          domain=dom)
        seq = random_frame(rng, d, 11, model=m)
        dual = weak_a_dual(seq, A)
        inter = interchange_dual(seq, dual, A)
        ref = adjoint(pseudo_inverse(A)).dense() @ dual.vectors
        np.testing.assert_allclose(inter.vectors, ref, rtol=1e-10, atol=1e-10 * np.abs(ref).max())
        assert inter.certificate_residual <= 1e-9


class TestTheoremTriangle:
    def test_chain_on_random_instances(self, rng):
        # alpha > tol  =>  dual exists with small certificate  =>  the
        # coefficient choice a_n(h) = inner(h, t_n) is gamma-bounded with
        # gamma^2 the Bessel bound of {t_n}  =>  recomputed alpha > 0
        for _ in range(20):
            d = int(rng.integers(3, 10))
            m = l2_truncation(d)
            A = OperatorModel(random_matrix(rng, d, d), m, m)
            seq = FrameSequence(m, A.matrix @ random_frame(rng, d, d + 4, m).vectors)
            alpha = weak_aframe_bound(seq, A).alpha
            assert alpha > 1e-8
            dual = weak_a_dual(seq, A)
            assert dual.certificate_residual <= 1e-8
            gamma_sq = dual.bessel_bound
            for _ in range(5):
                h = random_vector(rng, d)
                coeff = analysis(dual.as_frame_sequence(), h)
                assert np.sum(np.abs(coeff) ** 2) <= gamma_sq * np.sum(
                    np.abs(h) ** 2
                ) * (1 + 1e-10)
            assert weak_aframe_bound(seq, A).alpha > 0

    def test_dual_is_not_a_weak_frame_for_the_adjoint(self):
        # Bessel dual {e_n} against A = diag(1..N): the quotient
        # sum |<f, t_n>|^2 / ||A f||^2 attains exactly 1/N^2 at f = e_N
        for n in (4, 8, 16):
            m = l2_truncation(n)
            ns = np.arange(1, n + 1, dtype=float)
            ratios = 1.0 / ns**2
            # pencil minimum over f: diagonal case is explicit
            assert ratios.min() == pytest.approx(1.0 / n**2)


class TestKernelCounts:
    """What the solvers ask LAPACK for, counted by wrapping numpy.linalg."""

    def test_weak_bound_on_exm1_operator_computes_no_singular_vectors(self, linalg_calls):
        # exm1 at d = 64: ker(A*) on the Dirichlet subspace is {0}, so the
        # pencil runs on triangular factors and needs singular values only
        grid = interval_grid(64)
        seq = exponential_system(0.5, 64, grid, derivative=True)
        A = diff_operator(grid, "minus_i_ddx_H1")
        calls = linalg_calls("svd")
        assert weak_aframe_bound(seq, A).kind == "weak_a_frame"
        assert calls
        assert all(kw.get("compute_uv") is False for _, kw in calls)

    def test_constructing_a_dual_computes_no_spectrum(self, linalg_calls, rng):
        m = l2_truncation(8)
        calls = linalg_calls("eigvalsh")
        dual = user_dual(m, random_matrix(rng, 8, 12))
        assert not calls
        top = dual.bessel_bound
        assert len(calls) == 1 and top > 0.0
        assert dual.bessel_bound == top and len(calls) == 1  # cached

    def test_interchange_dual_factors_the_operator_once(self, linalg_calls, rng):
        d = 6
        m = random_weighted_model(rng, d)
        A = OperatorModel(np.eye(d) + 0.3 * random_matrix(rng, d, d) / np.sqrt(d), m, m)
        seq = random_frame(rng, d, 9, model=m)
        dual = weak_a_dual(seq, A)
        svd, pinv = linalg_calls("svd"), linalg_calls("pinv")
        assert interchange_dual(seq, dual, A).certificate_residual <= 1e-9
        assert len(svd) == 1 and not pinv
        # a domain of too small a dimension is rejected before any factorization
        B = OperatorModel(A.matrix, m, m, domain=orthonormalize(random_matrix(rng, d, d - 1), m))
        with pytest.raises(NotSurjective):
            interchange_dual(seq, dual, B)
        assert len(svd) == 1 and not pinv
