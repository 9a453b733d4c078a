import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from opframe.errors import InvalidDimension, InvalidIndex, NotAFrame
from opframe.hilbert import HilbertModel, interval_grid, l2_truncation
from opframe.constructions import difference_sequence, exponential_system
from opframe.seqops import (
    FRAME_TOL,
    FrameSequence,
    _whitened_spectrum,
    analysis,
    canonical_dual,
    frame_bounds,
    reconstruct,
    synthesis,
)

from conftest import random_frame, random_matrix, random_vector, random_weighted_model


def standard_basis_seq(d):
    return FrameSequence(l2_truncation(d), np.eye(d, dtype=complex))


def repeated_seq():
    # {e1, e1, e2} in C^2
    return FrameSequence(
        l2_truncation(2), np.array([[1, 1, 0], [0, 0, 1]], dtype=complex)
    )


class TestAnalysisSynthesis:
    def test_analysis_standard_basis(self):
        seq = standard_basis_seq(3)
        np.testing.assert_allclose(analysis(seq, [1, 2, 3]), [1, 2, 3])

    def test_analysis_repeated_vector(self):
        c = analysis(repeated_seq(), [2.0 + 1j, -3.0])
        np.testing.assert_allclose(c, [2 + 1j, 2 + 1j, -3])

    def test_analysis_discrete_exponential_orthogonality(self):
        grid = interval_grid(256)
        seq = exponential_system(1.0, 40, grid)
        f = seq.column(3)
        c = analysis(seq, f)
        labels = np.array(seq.index_labels)
        assert abs(c[labels == 3][0] - 1.0) <= 1e-10
        assert np.max(np.abs(c[labels != 3])) <= 1e-10

    def test_synthesis_standard_basis(self):
        np.testing.assert_allclose(synthesis(standard_basis_seq(3), [1, 2, 3]), [1, 2, 3])

    def test_synthesis_zero_coefficients(self):
        np.testing.assert_allclose(synthesis(repeated_seq(), [0, 0, 0]), [0, 0])

    def test_synthesis_matches_naive_loop_oracle(self, rng):
        seq = random_frame(rng, 8, 16)
        c = random_vector(rng, 16)
        expected = np.zeros(8, dtype=complex)
        for k in range(16):  # independent summation oracle
            expected += c[k] * seq.vectors[:, k]
        np.testing.assert_allclose(synthesis(seq, c), expected, rtol=1e-12)

    def test_adjoint_duality_weighted(self, rng):
        # finite-dimensional content of "analysis = synthesis adjoint"
        model = random_weighted_model(rng, 7)
        seq = FrameSequence(model, random_matrix(rng, 7, 12))
        for _ in range(20):
            f = random_vector(rng, 7)
            c = random_vector(rng, 12)
            lhs = np.vdot(c, analysis(seq, f))  # <analysis f, c>_l2
            rhs = np.sum(model.weights * synthesis(seq, c).conj() * f)
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_dimension_errors(self):
        seq = standard_basis_seq(3)
        with pytest.raises(InvalidDimension):
            analysis(seq, [1, 2])
        with pytest.raises(InvalidDimension):
            synthesis(seq, [1, 2])


class TestFrameBounds:
    def test_parseval_standard_basis(self):
        fb = frame_bounds(standard_basis_seq(3))
        assert fb.alpha == pytest.approx(1.0) and fb.beta == pytest.approx(1.0)
        assert fb.kind == "frame"

    def test_repeated_vector_bounds(self):
        fb = frame_bounds(repeated_seq())
        assert fb.alpha == pytest.approx(1.0) and fb.beta == pytest.approx(2.0)

    def test_mercedes_benz_tight(self):
        # three unit vectors at 90, 210, 330 degrees: eigendecomposition
        # oracle on the 2x2 frame matrix gives the tight constant 3/2
        angles = np.deg2rad([90.0, 210.0, 330.0])
        vecs = np.vstack([np.cos(angles), np.sin(angles)]).astype(complex)
        seq = FrameSequence(l2_truncation(2), vecs)
        s = vecs @ vecs.conj().T
        oracle = np.linalg.eigvalsh(s)
        fb = frame_bounds(seq)
        assert fb.alpha == pytest.approx(oracle[0], abs=1e-10)
        assert fb.beta == pytest.approx(oracle[-1], abs=1e-10)
        assert fb.alpha == pytest.approx(1.5, abs=1e-10)
        assert fb.beta == pytest.approx(1.5, abs=1e-10)

    def test_optimal_bounds_are_attained(self, rng):
        # witnesses: unit eigenvectors of the whitened frame operator
        model = random_weighted_model(rng, 5)
        seq = FrameSequence(model, random_matrix(rng, 5, 8))
        y = seq.whitened()
        vals, vecs = np.linalg.eigh(y @ y.conj().T)
        fb = frame_bounds(seq)
        for val, ref in [(vals[0], fb.alpha), (vals[-1], fb.beta)]:
            assert val == pytest.approx(ref, abs=1e-10)
        for idx, ref in [(0, fb.alpha), (-1, fb.beta)]:
            f = vecs[:, idx] / model.sqrt_weights
            f = f / np.sqrt(np.sum(model.weights * np.abs(f) ** 2))
            total = float(np.sum(np.abs(analysis(seq, f)) ** 2))
            assert total == pytest.approx(ref, abs=1e-10)

    def test_rank_deficient_family_is_bessel_only(self, rng):
        seq = random_frame(rng, 6, 4)  # fewer columns than dimensions
        fb = frame_bounds(seq)
        assert fb.alpha == 0.0
        assert fb.kind == "bessel_only"

    def test_gram_and_frame_spectra_agree(self, rng):
        # the frame operator's spectrum, from either Hermitian form, against
        # the nonzero spectrum of the Gram matrix Y^H Y
        model = random_weighted_model(rng, 5)
        for n in (3, 9):
            seq = FrameSequence(model, random_matrix(rng, 5, n))
            y = seq.whitened()
            s_spec = _whitened_spectrum(seq)
            g_spec = np.linalg.eigvalsh(y.conj().T @ y)
            nonzero = g_spec[g_spec > 1e-10]
            assert s_spec.shape == (5,)
            np.testing.assert_allclose(s_spec[-len(nonzero):], nonzero, atol=1e-10)

    def test_permutation_invariance(self, rng):
        seq = random_frame(rng, 5, 9)
        fb = frame_bounds(seq)
        perm = rng.permutation(9)
        fb2 = frame_bounds(FrameSequence(seq.model, seq.vectors[:, perm]))
        assert fb2.alpha == pytest.approx(fb.alpha, abs=1e-12)
        assert fb2.beta == pytest.approx(fb.beta, abs=1e-12)


def _family_of_spectrum(d, n, rank, real, tail, seed, clustered=False):
    """A d x n family over random weights with rank nonzero whitened singular values from 1 to
    10^-tail, log-spaced, or clustered: the first half at 1 and the rest at 10^-tail, which puts
    kappa_F = ||s|| ||1/s|| well above sigma_max / sigma_min."""
    rng = np.random.default_rng(seed)
    draw = rng.standard_normal if real else lambda shape: random_matrix(rng, *shape)
    u, v = (np.linalg.qr(draw(shape))[0][:, :rank] for shape in ((d, d), (n, n)))
    s = np.logspace(0, -tail, rank)
    if clustered:
        s = np.where(np.arange(rank) < rank // 2, 1.0, s[-1])
    model = random_weighted_model(rng, d)
    return FrameSequence(model, (u * s) @ v.conj().T / model.sqrt_weights[:, None])


class TestCanonicalDual:
    def test_standard_basis_self_dual(self):
        seq = standard_basis_seq(4)
        dual = canonical_dual(seq)
        np.testing.assert_allclose(dual.vectors, seq.vectors, atol=1e-14)

    def test_repeated_vector_dual(self):
        dual = canonical_dual(repeated_seq())
        np.testing.assert_allclose(
            dual.vectors, np.array([[0.5, 0.5, 0], [0, 0, 1]]), atol=1e-14
        )

    def test_exponential_dual_scales_by_b(self):
        # On the exactly tight double-cover grid the dual of e_nb is b*e_nb
        # for every even label (odd labels touch the duplicated edge mode).
        grid = interval_grid(40)
        b = 0.5
        seq = exponential_system(b, 40, grid)
        dual = canonical_dual(seq)
        labels = np.array(seq.index_labels)
        for lab in range(-38, 39, 2):
            j = int(np.where(labels == lab)[0][0])
            np.testing.assert_allclose(
                dual.vectors[:, j], b * seq.vectors[:, j], atol=1e-10
            )

    def test_not_a_frame_raises(self, rng):
        with pytest.raises(NotAFrame):
            canonical_dual(random_frame(rng, 6, 3))

    def test_involutive(self, rng):
        seq = random_frame(rng, 5, 8)
        again = canonical_dual(canonical_dual(seq))
        np.testing.assert_allclose(again.vectors, seq.vectors, atol=1e-8)

    def test_real_family_dual_is_that_of_its_complex_copy(self, rng):
        # solved as float64 and kept so: a float solution read as complex128 would pair columns
        model = random_weighted_model(rng, 6)
        vectors = rng.standard_normal((6, 10))
        real = canonical_dual(FrameSequence(model, vectors)).vectors
        cplx = canonical_dual(FrameSequence(model, vectors + 0j)).vectors
        assert real.dtype == np.float64 and real.shape == cplx.shape
        assert np.linalg.norm(real - cplx) <= 1e-13 * np.linalg.norm(cplx)

    @pytest.mark.parametrize("kind", ["real", "complex", "mirrored", "parity"])
    def test_pinv_oracle_at_condition_1e3(self, rng, kind):
        """Against pinv(Y)^H / sqrt(w), Y = W^(1/2) G of condition 1e3 over random weights.  The
        exponential families are E on an odd interval grid (E E^H a multiple of I) with rows
        scaled so that kappa(Y) is exact: under unmirrored weights they take the mirror form,
        under mirrored weights and row scales reflection parity."""
        d = 41
        if kind in ("real", "complex"):
            seq = _family_of_spectrum(d, 60, d, kind == "real", 3.0, int(rng.integers(2**32)))
        else:
            w, h = 0.25 + rng.random(d), d // 2
            if kind == "parity":  # rows d - h .. d - 1 mirror rows 0 .. h - 1
                s = np.logspace(0, -3, h + 1)[rng.permutation(h + 1)]
                s, w[d - h:] = np.concatenate([s, s[:h][::-1]]), w[:h][::-1]
            else:
                s = np.logspace(0, -3, d)[rng.permutation(d)]
            e = exponential_system(1.0, d // 2, interval_grid(d))
            rows = s / np.sqrt(w)
            seq = FrameSequence(HilbertModel(d, w), rows[:, None] * e.vectors, e.index_labels)
            assert seq._structure.sign and (seq._structure.even is not None) == (kind == "parity")
        y = seq.whitened()
        assert np.linalg.cond(y) == pytest.approx(1e3, rel=1e-6)
        oracle = np.linalg.pinv(y).conj().T / seq.model.sqrt_weights[:, None]
        dual = canonical_dual(seq)
        assert dual.vectors.dtype == seq.vectors.dtype and dual.index_labels == seq.index_labels
        assert np.linalg.norm(dual.vectors - oracle) <= 1e-12 * np.linalg.norm(oracle)

    def test_one_factorization_and_no_normal_equations(self, rng, linalg_calls):
        qr, solve, eigvalsh = (linalg_calls(name) for name in ("qr", "solve", "eigvalsh"))
        canonical_dual(FrameSequence(random_weighted_model(rng, 6), random_matrix(rng, 6, 10)))
        assert (len(qr), solve, eigvalsh) == (1, [], [])


@settings(max_examples=150, deadline=None)
@example(d=12, n=18, deficit=0, real=True, tail=3.5, seed=0, clustered=True)  # a frame, uncertified
@given(d=st.integers(1, 12), n=st.integers(1, 18), deficit=st.integers(0, 3), real=st.booleans(),
       tail=st.floats(0.0, 6.0), seed=st.integers(0, 2**32 - 1), clustered=st.booleans())
def test_not_a_frame_exactly_when_bessel_only(d, n, deficit, real, tail, seed, clustered):
    """canonical_dual's sigma rule and frame_bounds' lambda rule agree on frames and on N < d and
    rank-deficient families, whether the factor is certified or not, save within a factor 2 of
    FRAME_TOL, where sigma^2 and eigvalsh may round apart; a float64 family gets a float64 dual."""
    seq = _family_of_spectrum(d, n, max(1, min(d, n) - deficit), real, tail, seed, clustered)
    bounds = frame_bounds(seq)
    assume(not FRAME_TOL / 2 <= bounds.alpha / bounds.beta <= 2 * FRAME_TOL)
    try:
        dual = canonical_dual(seq)
    except NotAFrame:
        assert bounds.kind == "bessel_only"
    else:
        assert bounds.kind == "frame"
        assert dual.vectors.dtype == (np.float64 if real else np.complex128)


class TestReconstruct:
    def test_any_frame_with_canonical_dual(self, rng):
        model = random_weighted_model(rng, 6)
        seq = FrameSequence(model, random_matrix(rng, 6, 10))
        dual = canonical_dual(seq)
        f = random_vector(rng, 6)
        _, residual = reconstruct(seq, dual, f)
        assert residual <= 1e-8

    def test_standard_basis_with_itself(self, rng):
        seq = standard_basis_seq(5)
        f = random_vector(rng, 5)
        _, residual = reconstruct(seq, seq, f)
        assert residual <= 1e-14

    def test_mismatched_length_raises(self, rng):
        seq = standard_basis_seq(3)
        with pytest.raises(InvalidDimension):
            reconstruct(seq, repeated_seq(), [1, 0, 0])


class TestPartialSynthesis:
    def test_difference_telescoping_identity(self):
        seq = difference_sequence(50)
        c = 1.0 / np.arange(1, 51)
        for n in (1, 7, 33, 50):
            out = seq.vectors[:, :n] @ c[:n]
            e_n = np.zeros(50)
            e_n[n - 1] = 1.0
            assert np.linalg.norm(out - e_n) <= 1e-12


class TestFrameSequenceValidation:
    def test_all_zero_columns_rejected(self):
        with pytest.raises(InvalidDimension):
            FrameSequence(l2_truncation(3), np.zeros((3, 4)))

    def test_single_zero_column_allowed(self):
        vecs = np.eye(3, dtype=complex).copy()
        vecs[:, 1] = 0.0
        seq = FrameSequence(l2_truncation(3), vecs)
        assert seq.n_vectors == 3

    def test_label_lookup(self):
        seq = difference_sequence(4)
        np.testing.assert_allclose(seq.column(1), [1, 0, 0, 0])
        with pytest.raises(InvalidIndex):
            seq.column(99)
        np.testing.assert_array_equal(seq.column(np.int64(2)), seq.column(2))
        for label in (1.9, 2.0, True, "1"):  # none of them is label 1 or 2
            with pytest.raises(InvalidIndex):
                seq.column(label)

    @pytest.mark.parametrize("labels", [
        [0.5, 1.7, 1.2], ["x", 1, 2], [True, 1, 2], np.array([0.0, 1.0, 2.0]),
        np.array([True, False, True]), np.arange(3)[:, None], 7, "abc",
    ], ids=["floats", "string", "bool", "float_array", "bool_array", "2d", "scalar", "text"])
    def test_non_integer_labels_are_refused(self, labels):
        # nothing is truncated: [0.5, 1.7, 1.2] is not (0, 1, 1)
        with pytest.raises(InvalidDimension, match="index_labels"):
            FrameSequence(l2_truncation(3), np.eye(3), labels)

    @pytest.mark.parametrize("labels, expected", [
        ([4, -1, 9], (4, -1, 9)),
        ((np.int64(4), np.int8(-1), 9), (4, -1, 9)),
        (np.array([4, -1, 9], dtype=np.int32), (4, -1, 9)),
        (np.array([4, 0, 9], dtype=np.uint16), (4, 0, 9)),
        (range(2, 5), (2, 3, 4)),
        (iter([4, -1, 9]), (4, -1, 9)),
    ], ids=["list", "numpy_scalars", "int32_array", "uint16_array", "range", "one_shot_iterator"])
    def test_integer_labels_become_python_ints(self, labels, expected):
        out = FrameSequence(l2_truncation(3), np.eye(3), labels).index_labels
        assert out == expected and all(type(k) is int for k in out)
