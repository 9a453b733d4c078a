import numpy as np
import pytest

from opframe.errors import (
    DegenerateOperator,
    GridMismatch,
    InvalidDimension,
    NotBiorthogonal,
    WindowOverflow,
)
from opframe.hilbert import interval_grid, l2_truncation, window_grid
from opframe.opmodel import diff_operator
from opframe.constructions import (
    cosine_bump,
    cosine_bump_deriv,
    difference_sequence,
    exponential_system,
    gabor_system,
    gaussian_window,
    gaussian_window_deriv,
    pw_closed_form_gaps,
    pw_example,
    riesz_multiplier,
    wavelet_system,
)
from opframe.relframes import kframe_bounds
from opframe.seqops import FrameSequence, analysis, canonical_dual, frame_bounds
from opframe.serialize import dumps
from opframe.weakframes import user_dual, verify_weak_duality

from conftest import random_matrix


class TestExponential:
    def test_matched_grid_orthonormal(self):
        # 81 integer frequencies on an 81-point grid: a discrete Fourier basis
        grid = interval_grid(81)
        fb = frame_bounds(exponential_system(1.0, 40, grid))
        assert fb.alpha == pytest.approx(1.0, abs=1e-6)
        assert fb.beta == pytest.approx(1.0, abs=1e-6)

    def test_oversampled_bounds_match_eigendecomposition_oracle(self):
        # half-integer frequencies double-cover the grid (plus one duplicated
        # edge mode), so the oracle spectrum is {2, 3}
        grid = interval_grid(40)
        seq = exponential_system(0.5, 40, grid)
        y = seq.whitened()
        oracle = np.linalg.eigvalsh(y @ y.conj().T)
        fb = frame_bounds(seq)
        assert fb.alpha == pytest.approx(oracle[0], abs=1e-10)
        assert fb.beta == pytest.approx(oracle[-1], abs=1e-10)
        assert fb.alpha == pytest.approx(2.0, abs=1e-9)
        assert fb.beta == pytest.approx(3.0, abs=1e-9)

    def test_integer_system_is_self_dual(self):
        grid = interval_grid(81)
        seq = exponential_system(1.0, 40, grid)
        dual = canonical_dual(seq)
        assert np.max(np.abs(dual.vectors - seq.vectors)) <= 1e-8

    def test_derivative_flag_scales_labels(self):
        grid = interval_grid(64)
        base = exponential_system(0.5, 5, grid)
        deriv = exponential_system(0.5, 5, grid, derivative=True)
        ns = np.array(base.index_labels)
        np.testing.assert_allclose(
            deriv.vectors, base.vectors * (np.pi * ns)[None, :], atol=1e-13
        )

    def test_invalid_b(self):
        with pytest.raises(InvalidDimension):
            exponential_system(1.5, 4, interval_grid(32))


class TestGabor:
    def test_grid_mismatch_errors(self):
        grid = window_grid(128, -4.0, 4.0)
        with pytest.raises(GridMismatch):
            gabor_system(gaussian_window, 0.3, 1.0, 1, 1, grid)
        with pytest.raises(GridMismatch):
            gabor_system(gaussian_window, 1.0, 0.3, 1, 1, grid)

    def test_gaussian_critical_density_reported_only(self):
        # at unit time-frequency density the truncated family is reported
        # as-is: finite, nonnegative bounds with no frame claim
        grid = window_grid(256, -8.0, 8.0)
        seq = gabor_system(gaussian_window, 1.0, 1.0, 3, 3, grid)
        fb = frame_bounds(seq)
        assert np.isfinite(fb.beta) and fb.beta > 0
        assert fb.alpha >= 0

    def test_undersampled_window_is_bessel_only(self):
        # shift 2, modulation 1: density 1/2 < 1, never a frame
        grid = window_grid(128, 0.0, 8.0)
        from opframe.constructions import fold_symmetric_window

        seq = gabor_system(fold_symmetric_window, 2.0, 1.0, 0, 8, grid,
                           m_values=[0, 1, 2, 3])
        fb = frame_bounds(seq)
        assert fb.kind == "bessel_only"
        assert fb.alpha / fb.beta <= 1e-3

    def test_derivative_system_matches_difference_operator(self):
        grid = window_grid(1024, -8.0, 8.0)
        A = diff_operator(grid, "minus_i_ddx_periodic")
        plain = gabor_system(gaussian_window, 1.0, 0.125, 2, 2, grid)
        deriv = gabor_system(gaussian_window, 1.0, 0.125, 2, 2, grid,
                             window_deriv=gaussian_window_deriv, derivative=True)
        fd = A.apply_columns(plain.vectors)
        w = grid.weights
        errs = np.sqrt(np.sum(w[:, None] * np.abs(fd - deriv.vectors) ** 2, axis=0))
        norms = np.sqrt(np.sum(w[:, None] * np.abs(deriv.vectors) ** 2, axis=0))
        assert float(np.max(errs / norms)) <= 1e-3

    def test_chain_identity_second_order_in_h(self):
        # the column gap against the difference operator shrinks ~ h^2
        gaps = []
        for d in (512, 1024):
            grid = window_grid(d, -8.0, 8.0)
            A = diff_operator(grid, "minus_i_ddx_periodic")
            plain = gabor_system(gaussian_window, 1.0, 0.125, 1, 1, grid)
            deriv = gabor_system(gaussian_window, 1.0, 0.125, 1, 1, grid,
                                 window_deriv=gaussian_window_deriv, derivative=True)
            fd = A.apply_columns(plain.vectors)
            w = grid.weights
            errs = np.sqrt(np.sum(w[:, None] * np.abs(fd - deriv.vectors) ** 2, axis=0))
            norms = np.sqrt(np.sum(w[:, None] * np.abs(deriv.vectors) ** 2, axis=0))
            gaps.append(float(np.max(errs / norms)))
        ratio = gaps[0] / gaps[1]
        assert 3.0 <= ratio <= 5.0  # halving h divides the gap by ~4


class TestWavelet:
    def test_derivative_companion_matches_difference_operator(self):
        grid = window_grid(2048, -8.0, 8.0)
        A = diff_operator(grid, "ddx_periodic")
        plain = wavelet_system(cosine_bump, 2.0, 1.0, 1, 2, grid)
        deriv = wavelet_system(cosine_bump, 2.0, 1.0, 1, 2, grid,
                               mother_deriv=cosine_bump_deriv, derivative=True)
        fd = A.apply_columns(plain.vectors)
        w = grid.weights
        errs = np.sqrt(np.sum(w[:, None] * np.abs(fd - deriv.vectors) ** 2, axis=0))
        norms = np.sqrt(np.sum(w[:, None] * np.abs(deriv.vectors) ** 2, axis=0))
        assert float(np.max(errs / norms)) <= 1e-3

    def test_single_scale_reduces_to_translations(self):
        grid = window_grid(256, -8.0, 8.0)
        wav = wavelet_system(cosine_bump, 2.0, 1.0, 0, 2, grid)
        g = cosine_bump(grid.points)
        trans = np.column_stack([np.roll(g, 16 * k) for k in range(-2, 3)])  # g(x - k), h = 1/16
        np.testing.assert_allclose(wav.vectors, trans, atol=1e-12)

    def test_zero_mother_rejected(self):
        grid = window_grid(256, -8.0, 8.0)
        with pytest.raises(InvalidDimension):
            wavelet_system(lambda x: np.zeros_like(x), 2.0, 1.0, 0, 1, grid)

    def test_support_escape(self):
        grid = window_grid(256, -8.0, 8.0)
        with pytest.raises(WindowOverflow):
            wavelet_system(cosine_bump, 2.0, 1.0, 3, 2, grid)

    @pytest.mark.parametrize("m_range, n_range", [(-1, 2), (1, -1)])
    def test_negative_range_is_refused_as_an_empty_family(self, m_range, n_range):
        # the refusal a Gabor family with a negative range meets, not numpy's
        with pytest.raises(InvalidDimension, match="at least one column"):
            wavelet_system(cosine_bump, 2.0, 1.0, m_range, n_range, window_grid(256, -8.0, 8.0))


@pytest.fixture(scope="module")
def pw():
    grid = window_grid(512, -8.0, 8.0)
    phi, psi, P = pw_example(grid)
    return grid, phi, psi, P


class TestPwExample:

    def test_band_limited_reconstruction(self, pw, rng):
        grid, phi, psi, P = pw
        u = P.projection.basis
        w = grid.weights
        for _ in range(5):
            f = u @ (rng.standard_normal(u.shape[1]) + 1j * rng.standard_normal(u.shape[1]))
            rec = phi.vectors @ analysis(psi, f)
            rel = np.sqrt(np.sum(w * np.abs(rec - f) ** 2)) / np.sqrt(
                np.sum(w * np.abs(f) ** 2)
            )
            assert rel <= 1e-6

    def test_projection_frame_but_not_frame(self, pw):
        grid, phi, psi, P = pw
        kb = kframe_bounds(phi, P)
        assert kb.alpha > 1e-8
        fb = frame_bounds(phi)
        assert fb.alpha / fb.beta <= 1e-3

    def test_kernel_in_projection_range(self, pw):
        grid, phi, psi, P = pw
        proj = P.apply_columns(psi.vectors)
        w = grid.weights
        errs = np.sqrt(np.sum(w[:, None] * np.abs(psi.vectors - proj) ** 2, axis=0))
        norms = np.sqrt(np.sum(w[:, None] * np.abs(psi.vectors) ** 2, axis=0))
        assert float(np.max(errs / norms)) <= 1e-10

    def test_kernel_translation_structure(self, pw):
        grid, phi, psi, P = pw
        shift = int(round(1.0 / (grid.points[1] - grid.points[0])))
        labels = np.array(psi.index_labels)
        j0 = int(np.where(labels == 0)[0][0])
        j3 = int(np.where(labels == 3)[0][0])
        np.testing.assert_allclose(
            psi.vectors[:, j3], np.roll(psi.vectors[:, j0], 3 * shift), atol=1e-14
        )

    def test_both_tapers_carry_the_projection_bound(self):
        grid = window_grid(512, -8.0, 8.0)
        for taper in ("linear", "raised_cosine"):
            phi, psi, P = pw_example(grid, taper=taper)
            assert kframe_bounds(phi, P).alpha > 1e-8

    def test_closed_form_gap_recorded(self, pw):
        grid, phi, psi, P = pw
        gaps = pw_closed_form_gaps(psi, grid)
        # the computed kernel resembles the half-band sinc (peak 1/2) and is
        # far from the 4x-scaled variant; recorded, not asserted further
        assert gaps["sinc_half"] < 0.5
        assert gaps["sinc_4x"] > 1.0

    def test_grid_constraints(self):
        with pytest.raises(GridMismatch):
            pw_example(window_grid(500, -8.0, 8.0))  # not a power of two
        with pytest.raises(GridMismatch):
            pw_example(window_grid(512, -3.0, 3.0))  # length not divisible by 4


class TestDifferenceSequence:
    def test_explicit_small_columns(self):
        seq = difference_sequence(3)
        np.testing.assert_allclose(
            seq.vectors,
            np.array([[1, -2, 0], [0, 2, -3], [0, 0, 3]], dtype=complex),
        )

    def test_lower_bound_decays_with_dimension(self):
        # lambda_min(S_d) oracle: the family is never uniformly bounded below
        alphas = [frame_bounds(difference_sequence(d)).alpha for d in (10, 20, 40)]
        assert alphas[0] > alphas[1] > alphas[2]

    def test_requires_two_dimensions(self):
        with pytest.raises(InvalidDimension):
            difference_sequence(1)


class TestRieszMultiplier:
    def test_standard_basis_diagonal(self):
        m = l2_truncation(4)
        basis = FrameSequence(m, np.eye(4, dtype=complex))
        H = riesz_multiplier(basis, basis, [1, 2, 3, 4])
        np.testing.assert_allclose(H.matrix, np.diag([1, 2, 3, 4]), atol=1e-14)

    def test_random_biorthogonal_pairs_weakly_dual(self, rng):
        d = 32
        m = l2_truncation(d)
        qa, _ = np.linalg.qr(random_matrix(rng, d, d))
        qb, _ = np.linalg.qr(random_matrix(rng, d, d))
        sing = 1.0 + 5.0 * rng.random(d)
        phi = qa @ np.diag(sing) @ qb.conj().T
        psi = qa @ np.diag(1.0 / sing) @ qb.conj().T
        alphas = np.arange(1, d + 1) * np.exp(2j * np.pi * rng.random(d))
        H = riesz_multiplier(FrameSequence(m, phi), FrameSequence(m, psi), alphas)
        seq = FrameSequence(m, phi * alphas[None, :])
        dual = user_dual(m, psi)
        assert verify_weak_duality(seq, dual, H, trials=50) <= 1e-8

    def test_biorthogonality_enforced(self, rng):
        m = l2_truncation(4)
        phis = FrameSequence(m, random_matrix(rng, 4, 4))
        psis = FrameSequence(m, random_matrix(rng, 4, 4))
        with pytest.raises(NotBiorthogonal):
            riesz_multiplier(phis, psis, np.ones(4))

    def test_zero_alphas_degenerate_downstream(self):
        m = l2_truncation(3)
        basis = FrameSequence(m, np.eye(3, dtype=complex))
        H = riesz_multiplier(basis, basis, np.zeros(3))
        seq = basis
        with pytest.raises(DegenerateOperator):
            kframe_bounds(seq, H)


class TestDeterminism:
    def test_generators_are_reproducible(self):
        grid = interval_grid(64)
        a = dumps(exponential_system(0.5, 8, grid), "frame_sequence")
        b = dumps(exponential_system(0.5, 8, grid), "frame_sequence")
        assert a == b

    def test_gabor_reproducible(self):
        grid = window_grid(256, -8.0, 8.0)
        a = dumps(gabor_system(gaussian_window, 1.0, 0.25, 1, 1, grid), "frame_sequence")
        b = dumps(gabor_system(gaussian_window, 1.0, 0.25, 1, 1, grid), "frame_sequence")
        assert a == b

    def test_pw_example_reproducible(self):
        a = pw_example(window_grid(512, -8.0, 8.0))
        b = pw_example(window_grid(512, -8.0, 8.0))
        for x, y in zip((a[0].vectors, a[1].vectors, a[2].projection.basis),
                        (b[0].vectors, b[1].vectors, b[2].projection.basis)):
            assert x.tobytes() == y.tobytes()
