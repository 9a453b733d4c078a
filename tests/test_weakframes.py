import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from opframe.errors import (
    FactorizationFailed,
    InvalidDimension,
    NotSurjective,
)
from opframe.hilbert import (
    HilbertModel,
    Subspace,
    interval_grid,
    l2_truncation,
    orthonormalize,
)
from opframe.opmodel import (
    OperatorModel,
    block_multiplier,
    diagonal_operator,
    diff_operator,
)
from opframe.constructions import (
    difference_sequence,
    exponential_system,
    fold_symmetric_window,
    gabor_system,
)
from opframe.seqops import FrameSequence, analysis, canonical_dual, frame_bounds
from opframe.weakframes import (
    interchange_dual,
    user_dual,
    verify_weak_duality,
    weak_a_dual,
    weak_aframe_bound,
)

from conftest import (
    adjoint,
    identity_operator,
    random_frame,
    random_matrix,
    random_vector,
    random_weighted_model,
)


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
        assert verify_weak_duality(seq, dual, A, trials=200) <= 1e-8

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

    def test_no_domain_and_no_trials_is_an_empty_sample(self, rng):
        # D(A) of rank zero and no random members: no h to test, so no maximum to take
        m = l2_truncation(4)
        A = OperatorModel(random_matrix(rng, 4, 4), m, m, domain=Subspace.selection(m, []))
        seq, dual = random_frame(rng, 4, 6, m), user_dual(m, random_matrix(rng, 4, 6))
        with pytest.raises(InvalidDimension, match=r"sample is empty: 0 h in D\(A\) and 4 u"):
            verify_weak_duality(seq, dual, A, trials=0)
        assert verify_weak_duality(seq, dual, A, trials=1) >= 0.0  # one member is a sample

    def test_probes_without_columns_are_an_empty_sample(self, rng):
        m = l2_truncation(4)
        A = OperatorModel(random_matrix(rng, 4, 4), m, m)
        seq, dual = random_frame(rng, 4, 6, m), user_dual(m, random_matrix(rng, 4, 6))
        with pytest.raises(InvalidDimension, match=r"sample is empty: 0 h in D\(A\)"):
            verify_weak_duality(seq, dual, A, hs=np.zeros((4, 0)))
        with pytest.raises(InvalidDimension, match=r"and 0 u in D\(A\*\)"):
            verify_weak_duality(seq, dual, A, us=np.zeros((4, 0)))


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
        vec = dual.vectors @ analysis(seq, u)  # sum_n inner(u, g_n) t_n
        np.testing.assert_allclose(vec, 3.0 * u, atol=1e-12)
        np.testing.assert_allclose(adjoint(A).apply(u), vec, atol=1e-12)

    def test_exm1_truncation_error_against_analytic_derivative(self):
        from opframe.scenarios import exm1_decomposition_error

        errs = {r: exm1_decomposition_error(1.0, r, interval_grid(256))
                for r in (20, 40, 80)}
        assert errs[40] <= 1e-2
        assert errs[80] < errs[40] < errs[20]

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
        ref = adjoint(A).apply(u)
        strong_res = np.linalg.norm(dual.vectors @ analysis(seq, u) - ref) / np.linalg.norm(ref)
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
        # against SURJECTIVITY_TOL * sigma_max, never an absolute sigma_min
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
        # (A+)* = W^(-1/2) pinv(At)^H W^(1/2) with At the whitened operator
        sw = m.sqrt_weights[:, None]
        ref = (np.linalg.pinv(A.whitened()).conj().T @ (sw * dual.vectors)) / sw
        np.testing.assert_allclose(inter.vectors, ref, rtol=1e-10, atol=1e-10 * np.abs(ref).max())
        assert inter.certificate_residual <= 1e-9


@settings(max_examples=60, deadline=None)
@given(d=st.integers(1, 12), log_ratio=st.floats(-10.0, 0.0), with_domain=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
@example(d=6, log_ratio=0.0, with_domain=False, seed=0)  # certified
@example(d=6, log_ratio=-7.0, with_domain=True, seed=1)  # kappa_F > 1e6, surjective
@example(d=6, log_ratio=-9.0, with_domain=False, seed=2)  # not surjective
def test_interchange_dual_against_svd_oracles(d, log_ratio, with_domain, seed):
    """sigma_min / sigma_max of the whitened A from 1e-10 to 1, on both sides of
    SURJECTIVITY_TOL = 1e-8 and of 1 / kappa_F = 1e-6: NotSurjective exactly when the
    SVD gives sigma_min <= 1e-8 sigma_max, else the vectors of the pinv oracle
    (A+)* t_n = W^(-1/2) pinv(At)^H W^(1/2) t_n to 1e-9 kappa relative."""
    rng = np.random.default_rng(seed)
    m = random_weighted_model(rng, d)
    u, _ = np.linalg.qr(random_matrix(rng, d, d))
    v, _ = np.linalg.qr(random_matrix(rng, d, d))
    s = 10.0 ** (log_ratio * np.sort(np.r_[0.0, 1.0, rng.random(max(d - 2, 0))])[:d])
    sw = m.sqrt_weights[:, None]
    at = 10.0 ** rng.uniform(-3.0, 3.0) * (u * s) @ v.conj().T
    dom = orthonormalize(random_matrix(rng, d, d), m) if with_domain else None
    A = OperatorModel(at / sw * sw.T, m, m, domain=dom)
    seq = random_frame(rng, d, d + 3, model=m)
    dual = user_dual(m, random_matrix(rng, d, d + 3))
    sv = np.linalg.svd(A.whitened(), compute_uv=False)
    assume(abs(sv[-1] / sv[0] / 1e-8 - 1.0) > 1e-6)  # a tie that roundoff decides
    if sv[-1] <= 1e-8 * sv[0]:
        with pytest.raises(NotSurjective):
            interchange_dual(seq, dual, A)
        return
    ref = (np.linalg.pinv(A.whitened()).conj().T @ (sw * dual.vectors)) / sw
    h = interchange_dual(seq, dual, A).vectors
    assert np.linalg.norm(h - ref) <= 1e-9 * (sv[0] / sv[-1]) * np.linalg.norm(ref)


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

    def test_bessel_bound_of_a_wide_dual_uses_the_smaller_gram(self, linalg_calls, rng):
        m = random_weighted_model(rng, 6)
        dual = user_dual(m, random_matrix(rng, 6, 40))
        oracle = np.linalg.svd(m.sqrt_weights[:, None] * dual.vectors, compute_uv=False)[0] ** 2
        calls = linalg_calls("eigvalsh")
        assert dual.bessel_bound == pytest.approx(oracle, rel=1e-12)
        assert len(calls) == 1 and calls[0][0][0].shape == (6, 6)

    def test_rank_deficient_weak_bound_takes_vectors_of_the_square_factor(self, linalg_calls, rng):
        # A* of rank 4 on an 8-dim adjoint domain of a 24-dim model: the SVD
        # with vectors runs on the 8 x 8 R^H of M = R^H Q^H, not on M (8 x 24)
        m = random_weighted_model(rng, 24)
        v = orthonormalize(random_matrix(rng, 24, 8), m)
        A = OperatorModel(random_matrix(rng, 24, 4) @ random_matrix(rng, 4, 24), m, m,
                          adjoint_domain=v)
        seq = random_frame(rng, 24, 30, model=m)
        vw = m.sqrt_weights[:, None] * v.basis
        x = seq.whitened().conj().T @ vw  # N x 8: the family on V
        mv = vw.conj().T @ A.whitened()  # 8 x 24: T = M^H on V
        calls = linalg_calls("svd")
        alpha = weak_aframe_bound(seq, A).alpha
        with_vectors = [a[0] for a, kw in calls if kw.get("compute_uv") is not False]
        assert with_vectors and all(a.shape == (8, 8) for a in with_vectors)
        # oracle: the Schur complement of ker(M M^H) in the pencil (X^H X, M M^H)
        lam, q = np.linalg.eigh(mv @ mv.conj().T)
        live = lam > 1e-10 * lam[-1]
        su, sk = x @ q[:, live], x @ q[:, ~live]
        schur = su.conj().T @ su - su.conj().T @ sk @ np.linalg.solve(
            sk.conj().T @ sk, sk.conj().T @ su)
        scale = 1.0 / np.sqrt(lam[live])
        oracle = np.linalg.eigvalsh(scale[:, None] * schur * scale[None, :])[0]
        assert alpha == pytest.approx(oracle, rel=1e-9)

    def test_refused_factor_of_a_wide_operator_feeds_the_svd(self, linalg_calls, rng):
        # the refused certificate's R of M^H = Q R (M the 8 x 24 restricted
        # operator, rank 4) gives the support through the SVD of R^H: M is
        # factored once, and the only other QR row-reduces the family (8 x 30)
        m = random_weighted_model(rng, 24)
        v = orthonormalize(random_matrix(rng, 24, 8), m)
        A = OperatorModel(random_matrix(rng, 24, 4) @ random_matrix(rng, 4, 24), m, m,
                          adjoint_domain=v)
        seq = random_frame(rng, 24, 30, model=m)
        qr = linalg_calls("qr")
        assert weak_aframe_bound(seq, A).alpha >= 0.0
        assert sorted(a[0].shape for a, _ in qr) == [(24, 8), (30, 8)]

    def test_weak_a_dual_solves_one_certified_factor(self, linalg_calls, rng):
        # the family restricted to V = D(A*) has full row rank: one QR of
        # its row slice and no SVD, as for a well-conditioned K-dual
        m = random_weighted_model(rng, 8)
        v = Subspace.selection(m, np.arange(1, 7))
        seq = random_frame(rng, 8, 10, model=m)
        A = OperatorModel(random_matrix(rng, 8, 8), m, m, adjoint_domain=v)
        svd, pinv, qr = linalg_calls("svd"), linalg_calls("pinv"), linalg_calls("qr")
        assert weak_a_dual(seq, A).certificate_residual <= 1e-9
        assert not svd and not pinv and len(qr) == 1
        assert np.array_equal(qr[0][0][0], seq.whitened()[1:7].conj().T)

    def test_rank_deficient_weak_a_dual_takes_one_svd(self, linalg_calls, rng):
        m = random_weighted_model(rng, 8)
        v = Subspace.selection(m, np.arange(1, 7))
        vectors = random_matrix(rng, 8, 3) @ random_matrix(rng, 3, 10)  # rank 3 on V
        seq = FrameSequence(m, vectors)
        A = OperatorModel(vectors @ random_matrix(rng, 10, 8), m, m, adjoint_domain=v)
        svd, pinv = linalg_calls("svd"), linalg_calls("pinv")
        assert weak_a_dual(seq, A).certificate_residual <= 1e-9
        assert len(svd) == 1 and not pinv

    def test_interchange_dual_factors_the_operator_once(self, linalg_calls, rng):
        # a well-conditioned A is certified by one QR and solved with no SVD;
        # at sigma_min / sigma_max = 1e-7 (kappa_F > 1e6, still surjective)
        # the refused QR is followed by one SVD
        d = 6
        m = random_weighted_model(rng, d)
        A = OperatorModel(np.eye(d) + 0.3 * random_matrix(rng, d, d) / np.sqrt(d), m, m)
        u, _ = np.linalg.qr(random_matrix(rng, d, d))
        sw = m.sqrt_weights
        C = OperatorModel((u * np.logspace(0.0, -7.0, d)) / sw[:, None] * sw[None, :], m, m)
        B = OperatorModel(A.matrix, m, m, domain=orthonormalize(random_matrix(rng, d, d - 1), m))
        seq = random_frame(rng, d, 9, model=m)
        dual = weak_a_dual(seq, A)
        svd, pinv, qr = linalg_calls("svd"), linalg_calls("pinv"), linalg_calls("qr")
        assert interchange_dual(seq, dual, A).certificate_residual <= 1e-9
        assert len(qr) == 1 and not svd and not pinv
        interchange_dual(seq, dual, C)
        assert len(qr) == 2 and len(svd) == 1 and not pinv
        # a domain of too small a dimension is rejected before any factorization
        with pytest.raises(NotSurjective):
            interchange_dual(seq, dual, B)
        assert len(qr) == 2 and len(svd) == 1 and not pinv
