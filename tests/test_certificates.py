"""Sampled certificates in subspace coordinates against the ambient formulas.

The library never forms a sample vector: a sample set is a subspace's
orthonormal basis V times the coefficient block [I | R].  The oracles here
are the ambient formulas the certificates replaced, run on the sample
vectors V [I | R] built explicitly from the same draws of R (the whole
space's basis is e_i / sqrt(w_i), as in the selection form).
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opframe import constructions as C
from opframe.errors import InvalidDimension
from opframe.hilbert import HilbertModel, Subspace, interval_grid, l2_truncation, orthonormalize
from opframe.opmodel import OperatorModel
from opframe.relframes import _expansion_certificate, k_dual
from opframe.scenarios import CHECKS, CONSTRUCTIONS, _build_multiplier
from opframe.seqops import FrameSequence
from opframe.weakframes import user_dual, verify_weak_duality, weak_a_dual

from conftest import concatenated_expansion, concatenated_weak_duality, random_matrix, reproduce

RTOL = 1e-12


def _ambient_gap(approx, reference, weights):
    """max_column_gap as it took (approx, reference) before the gap argument."""
    w = weights[:, None]
    errs = np.sqrt(np.sum(w * np.abs(approx - reference) ** 2, axis=0))
    norms = np.sqrt(np.sum(w * np.abs(reference) ** 2, axis=0))
    live = norms > 1e-14 * max(float(np.max(norms)), 1e-300)
    return float(np.max(errs[live] / norms[live])) if np.any(live) else 0.0


def ambient_weak_duality(seq, dual, A, hs, us):
    """The weak duality residual over explicit ambient columns hs, us."""
    w = seq.model.weights
    wh = np.sqrt(w)
    us = A.adjoint_domain_subspace.project(us)
    ah = A.apply_columns(hs)
    lhs = (wh[:, None] * us).conj().T @ (wh[:, None] * ah)  # nu x nh
    ch = (wh[:, None] * dual.vectors).conj().T @ (wh[:, None] * hs)  # N x nh: inner(h, t_n)
    cg = seq.whitened().conj().T @ (wh[:, None] * us)  # N x nu: inner(u, g_n)
    rhs = cg.conj().T @ ch
    n_ah = np.sqrt(np.sum(w[:, None] * np.abs(ah) ** 2, axis=0))
    n_u = np.sqrt(np.sum(w[:, None] * np.abs(us) ** 2, axis=0))
    return float(np.max(np.abs(lhs - rhs) / (np.outer(n_u, n_ah) + 1e-300)))


def ambient_expansion(seq, K, k_vecs, fs, graph=False):
    """max_f ||K f - sum_n inner(f, k_n) g_n|| / ||K f|| over explicit columns fs."""
    kf = K.apply_columns(fs)
    coeffs = k_vecs.conj().T @ (K.input_model.weights[:, None] * fs)
    if graph:
        ak = K.apply_columns(k_vecs)
        coeffs = coeffs + ak.conj().T @ (K.codomain.weights[:, None] * kf)
    return _ambient_gap(seq.vectors @ coeffs, kf, seq.model.weights)


def ambient_samples(sub, coeffs):
    """The sample vectors V [I | coeffs] that the certificates never form."""
    basis = np.diag(1.0 / sub.ambient.sqrt_weights).astype(complex) if sub.is_full else sub.dense()
    return np.concatenate([basis, basis @ coeffs], axis=1)


def _subspace(kind, model, rng):
    d = model.dim
    if kind == "full":
        return Subspace.full(model)
    if kind == "zero_rank":
        return Subspace.selection(model, [])
    if kind == "selection":
        return Subspace.selection(model, np.flatnonzero(rng.random(d) < 0.6) if d > 2 else [0])
    return orthonormalize(random_matrix(rng, d, max(1, d // 2)), model)


KINDS = st.sampled_from(["full", "selection", "basis"])


def _weighted(rng, d):
    return HilbertModel(d, 0.25 + rng.random(d), "weighted")


@settings(max_examples=40, deadline=None)
@given(d=st.integers(2, 64), dom=KINDS, adom=KINDS, trials=st.integers(0, 12),
       seed=st.integers(0, 2**32 - 1))
def test_weak_duality_matches_ambient_formula(d, dom, adom, trials, seed):
    rng = np.random.default_rng(seed)
    model = _weighted(rng, d)
    A = OperatorModel(random_matrix(rng, d, d), model, model, domain=_subspace(dom, model, rng),
                      adjoint_domain=_subspace(adom, model, rng))
    n = d + int(rng.integers(0, 5))
    seq = FrameSequence(model, random_matrix(rng, d, n))
    dual = user_dual(model, random_matrix(rng, d, n))  # not a dual: residuals of order one
    draws = np.random.default_rng(0)  # verify_weak_duality's own draw
    rh = A.domain_subspace.sample_coords(draws, trials)
    ru = A.adjoint_domain_subspace.sample_coords(draws, trials)
    oracle = ambient_weak_duality(seq, dual, A, ambient_samples(A.domain_subspace, rh),
                                  ambient_samples(A.adjoint_domain_subspace, ru))
    value = verify_weak_duality(seq, dual, A, trials=trials)
    assert value == pytest.approx(oracle, rel=RTOL)

    # explicit probes act as the basis: us is projected onto D(A*), hs is used as given
    hs, us = random_matrix(rng, d, 3), random_matrix(rng, d, 2)
    probed = verify_weak_duality(seq, dual, A, hs=hs, us=us)
    assert probed == pytest.approx(ambient_weak_duality(seq, dual, A, hs, us), rel=RTOL)


@settings(max_examples=40, deadline=None)
@given(d=st.integers(2, 48), q=st.integers(1, 16), dom=KINDS, graph=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_expansion_certificate_matches_ambient_formula(d, q, dom, graph, seed):
    rng = np.random.default_rng(seed)
    model = _weighted(rng, d)
    J = model if graph else _weighted(rng, q)
    K = OperatorModel(random_matrix(rng, d, J.dim), J, model, domain=_subspace(dom, J, rng))
    seq = FrameSequence(model, random_matrix(rng, d, d + 2))
    k_vecs = random_matrix(rng, J.dim, d + 2)  # not a dual: gaps of order one
    sub = K.domain_subspace
    fs = ambient_samples(sub, sub.sample_coords(np.random.default_rng(0), 100))
    oracle = ambient_expansion(seq, K, k_vecs, fs, graph)
    assert _expansion_certificate(seq, K, k_vecs, graph) == pytest.approx(oracle, rel=RTOL)


#: how far a block read may round from the whole array's: OpenBLAS picks its kernel by shape
#: (a one-column product goes to gemv, a panel's last columns to a tail kernel), so a column
#: may round differently once it sits in a narrower block.  Bit for bit in about nine random
#: cases in ten and on every bundled report; within 2 ulps in 1,500 random cases otherwise.
BLOCK_RTOL = 2e-15


def _same_outcome(fn, oracle, *args, **kwargs):
    """Whether fn and the oracle give the same value to BLOCK_RTOL, or both raise: an all-empty
    sample set has no maximum, which the oracle meets as numpy's ValueError and the library
    names as an InvalidDimension."""
    outcomes = []
    for f in fn, oracle:
        try:
            outcomes.append(f(*args, **kwargs))
        except Exception as exc:
            outcomes.append(type(exc))
    value, expected = outcomes
    if isinstance(expected, float):
        return value == pytest.approx(expected, rel=BLOCK_RTOL, abs=0.0)
    return (expected, value) == (ValueError, InvalidDimension)


#: the subspace kinds, with a zero-rank one whose blocks are empty
BLOCK_KINDS = st.sampled_from(["full", "selection", "basis", "zero_rank"])


@settings(max_examples=60, deadline=None)
@given(d=st.integers(2, 40), dom=BLOCK_KINDS, adom=BLOCK_KINDS, trials=st.integers(0, 12),
       probes=st.sampled_from(["none", "hs", "us", "both"]), real=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_weak_duality_blocks_match_the_concatenated_formula(d, dom, adom, trials, probes, real,
                                                            seed):
    """Rows [I | Ru]^H times columns [I | Rh] read block by block give the residual of the
    whole concatenated array, to BLOCK_RTOL, with or without explicit probes, at trials = 0
    and on zero-rank domains."""
    rng = np.random.default_rng(seed)
    model = _weighted(rng, d)
    A = OperatorModel(random_matrix(rng, d, d), model, model, domain=_subspace(dom, model, rng),
                      adjoint_domain=_subspace(adom, model, rng))
    n = d + int(rng.integers(0, 5))
    vectors = random_matrix(rng, d, n)
    seq = FrameSequence(model, vectors.real if real else vectors)
    dual = user_dual(model, random_matrix(rng, d, n))
    kwargs = {"trials": trials,
              "hs": random_matrix(rng, d, 3) if probes in ("hs", "both") else None,
              "us": random_matrix(rng, d, 2) if probes in ("us", "both") else None}
    assert _same_outcome(verify_weak_duality, concatenated_weak_duality, seq, dual, A, **kwargs)


@settings(max_examples=40, deadline=None)
@given(d=st.integers(2, 40), q=st.integers(1, 16), dom=BLOCK_KINDS, graph=st.booleans(),
       real=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_expansion_blocks_match_the_concatenated_formula(d, q, dom, graph, real, seed):
    """The two column blocks of D [I | R], with the live-column threshold over both, give the
    gap of the whole concatenated arrays, to BLOCK_RTOL."""
    rng = np.random.default_rng(seed)
    model = _weighted(rng, d)
    J = model if graph else _weighted(rng, q)
    K = OperatorModel(random_matrix(rng, d, J.dim), J, model, domain=_subspace(dom, J, rng))
    vectors = random_matrix(rng, d, d + 2)
    seq = FrameSequence(model, vectors.real if real else vectors)
    k_vecs = random_matrix(rng, J.dim, d + 2)
    assert _same_outcome(_expansion_certificate, concatenated_expansion, seq, K, k_vecs, graph)


@pytest.mark.parametrize("model", [l2_truncation(24), interval_grid(24)], ids=["l2", "grid"])
def test_uniform_weights_sample_the_directions_of_the_identity(model):
    """With uniform weights e_i / sqrt(w_i) is a multiple of e_i, so the whole
    space's samples point where the former ambient samples [I | R] did."""
    rng = np.random.default_rng(3)
    d = model.dim
    A = OperatorModel(random_matrix(rng, d, d), model, model)
    seq = FrameSequence(model, random_matrix(rng, d, d + 4))
    dual = user_dual(model, random_matrix(rng, d, d + 4))
    draws = np.random.default_rng(0)
    rh, ru = (Subspace.full(model).sample_coords(draws, 10) for _ in range(2))
    eye = np.eye(d, dtype=complex)
    oracle = ambient_weak_duality(seq, dual, A, np.concatenate([eye, rh], axis=1),
                                  np.concatenate([eye, ru], axis=1))
    assert verify_weak_duality(seq, dual, A, trials=10) == pytest.approx(oracle, rel=RTOL)


def test_planted_defect_is_reported():
    rng = np.random.default_rng(11)
    model = _weighted(rng, 24)
    adom = orthonormalize(random_matrix(rng, 24, 12), model)
    A = OperatorModel(random_matrix(rng, 24, 24), model, model, adjoint_domain=adom)
    seq = FrameSequence(model, random_matrix(rng, 24, 30))
    dual = weak_a_dual(seq, A)
    assert dual.certificate_residual <= 1e-12
    planted = OperatorModel(A.matrix + 1e-6 * random_matrix(rng, 24, 24), model, model,
                            adjoint_domain=adom)
    assert verify_weak_duality(seq, dual, planted) >= 1e-7


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_multiplier_certificate_is_exact(seed):
    """riesz_multiplier forms A as the product G T^H that the defect subtracts,
    so the coordinate certificate of the multiplier pair reads exactly zero."""
    ctx = _build_multiplier(np.random.default_rng(seed), d=64)
    assert verify_weak_duality(ctx["seq"], ctx["dual"], ctx["op"], trials=20) == 0.0
    wrong = user_dual(ctx["dual"].model, ctx["dual"].vectors.conj())
    assert verify_weak_duality(ctx["seq"], wrong, ctx["op"], trials=20) >= 1e-2


def _peak_bytes(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemoryBudget:
    """Traced allocation peaks of certificates and checks on their small side."""

    def test_weak_duality_of_the_difference_family(self):
        # read block by block, the certificate holds no [I | R] sample array and no outer
        # product of every sample norm: 8.9 MiB, and 10.9 MiB with the dual, when it did
        seq = C.difference_sequence(256)
        A = OperatorModel(seq.vectors.copy(), seq.model, seq.model)
        dual = weak_a_dual(seq, A)
        assert _peak_bytes(lambda: verify_weak_duality(seq, dual, A)) <= 6 * 2**20
        assert _peak_bytes(lambda: weak_a_dual(seq, A)) <= 8 * 2**20

    def test_k_dual_of_a_parity_family_at_512_points(self, rng):
        # the family is factored as two half-size real blocks read from its raw columns: no
        # whitened copy, mirror form or dense d x d inverse (11.3 MB when all were formed)
        seq = C.exponential_system(1.0, 266, interval_grid(512))
        J = l2_truncation(48)
        K = OperatorModel(random_matrix(rng, 512, 48), J, seq.model,
                          domain=orthonormalize(random_matrix(rng, 48, 24), J))
        assert _peak_bytes(lambda: k_dual(seq, K)) <= 6.5e6

    def test_pw_reconstruction_at_4096_points(self):
        ctx = CONSTRUCTIONS["pw_quarter"](np.random.default_rng(0), d=4096, L=64)
        check = CHECKS["pw_reconstruction"][1]
        rng = np.random.default_rng(0)
        assert _peak_bytes(lambda: check(ctx, rng, signals=20)) <= 5e6

    def test_pw_quarter_holds_real_families(self):
        ctx = CONSTRUCTIONS["pw_quarter"](np.random.default_rng(0), d=4096, L=64)
        held = (ctx["seq"].vectors, ctx["psi"].vectors, ctx["op"].projection.basis)
        assert {a.dtype for a in held} == {np.dtype(np.float64)}

    def test_pw_quarter_scenario(self):
        # phi, psi and the band basis are real (17.2 MiB when they were held complex), and the
        # pencil reduces its family in place (12.2 MiB with a second copy of it)
        reproduce("pw_quarter")  # the schema and its validator load once
        assert _peak_bytes(lambda: reproduce("pw_quarter")) <= 11 * 2**20

    def test_whole_space_samples_form_no_square_array(self):
        sub = Subspace.full(interval_grid(4096))
        peak = _peak_bytes(lambda: sub.sample_coords(np.random.default_rng(0), 10))
        assert peak <= 4 * 4096 * 10 * 16  # a d x d array would take 268 MB
