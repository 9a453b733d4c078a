import numpy as np
import pytest

from opframe.errors import InvalidDimension, InvalidIndex, NotAFrame
from opframe.hilbert import interval_grid, l2_truncation
from opframe.constructions import difference_sequence, exponential_system
from opframe.seqops import (
    FrameSequence,
    analysis,
    canonical_dual,
    frame_bounds,
    frame_operator,
    gram,
    partial_synthesis,
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


class TestFrameOperator:
    def test_standard_basis_gives_identity(self):
        s = frame_operator(standard_basis_seq(3))
        np.testing.assert_allclose(s.matrix, np.eye(3), atol=1e-14)

    def test_repeated_vector_diagonal(self):
        s = frame_operator(repeated_seq())
        np.testing.assert_allclose(s.matrix, np.diag([2.0, 1.0]), atol=1e-14)

    def test_composition_oracle(self, rng):
        model = random_weighted_model(rng, 6)
        seq = FrameSequence(model, random_matrix(rng, 6, 9))
        s = frame_operator(seq)
        for j in range(6):  # column-by-column compositional oracle
            e = np.zeros(6)
            e[j] = 1.0
            np.testing.assert_allclose(
                s.matrix[:, j], synthesis(seq, analysis(seq, e)), rtol=1e-12, atol=1e-12
            )


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
        model = random_weighted_model(rng, 5)
        seq = FrameSequence(model, random_matrix(rng, 5, 9))
        y = seq.whitened()
        s_spec = np.linalg.eigvalsh(y @ y.conj().T)
        g_spec = np.linalg.eigvalsh(gram(seq))
        nonzero = g_spec[g_spec > 1e-10]
        np.testing.assert_allclose(np.sort(s_spec)[-len(nonzero):], nonzero, atol=1e-10)

    def test_permutation_invariance(self, rng):
        seq = random_frame(rng, 5, 9)
        fb = frame_bounds(seq)
        perm = rng.permutation(9)
        fb2 = frame_bounds(FrameSequence(seq.model, seq.vectors[:, perm]))
        assert fb2.alpha == pytest.approx(fb.alpha, abs=1e-12)
        assert fb2.beta == pytest.approx(fb.beta, abs=1e-12)


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
            out = partial_synthesis(seq, c, n)
            e_n = np.zeros(50)
            e_n[n - 1] = 1.0
            assert np.linalg.norm(out - e_n) <= 1e-12

    def test_full_cutoff_matches_reconstruction_sum(self, rng):
        seq = random_frame(rng, 5, 8)
        dual = canonical_dual(seq)
        f = random_vector(rng, 5)
        c = analysis(dual, f)
        np.testing.assert_allclose(
            partial_synthesis(seq, c, 8), synthesis(seq, c), rtol=1e-12
        )

    def test_first_term_only(self, rng):
        seq = random_frame(rng, 4, 6)
        c = random_vector(rng, 6)
        np.testing.assert_allclose(
            partial_synthesis(seq, c, 1), c[0] * seq.vectors[:, 0]
        )

    def test_out_of_range_raises(self, rng):
        seq = random_frame(rng, 4, 6)
        with pytest.raises(InvalidIndex):
            partial_synthesis(seq, np.ones(6), 7)
        with pytest.raises(InvalidIndex):
            partial_synthesis(seq, np.ones(6), 0)


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
