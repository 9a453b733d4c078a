"""Douglas' lemma ties each frame-type lower bound to a Bessel dual: the optimal
alpha in alpha ||K* f||^2 <= sum_n |inner(f, g_n)|^2 is 1 / ||M||^2 for the
minimum-norm M with K = D M, and ||M||^2 is the Bessel bound of the dual
{M* e_n}.  alpha comes from the pencil (``pencil_lower_bound``), the Bessel
bound from ``factor``'s solve and an eigvalsh, so their product, 1 in exact
arithmetic, checks one kernel against the other.  The weak form is the same
lemma in orthonormal coordinates of D(A*); the graph form is the lemma in the
graph space D(A), whose dual's Bessel bound is taken in the graph norm."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from opframe.constructions import exponential_system
from opframe.hilbert import Subspace, interval_grid, orthonormalize
from opframe.opmodel import OperatorModel, diff_operator
from opframe.relframes import a_dual_graph, aframe_bounds_graph, k_dual, kframe_bounds
from opframe.scenarios import CONSTRUCTIONS, load_bundled
from opframe.weakframes import weak_a_dual, weak_aframe_bound

from conftest import random_frame, random_matrix, random_weighted_model

TOL = 1e-10


def _low_rank(rng, rows, cols, rank):
    return random_matrix(rng, rows, rank) @ random_matrix(rng, rank, cols)


@settings(max_examples=40, deadline=None)
@given(d=st.integers(1, 24), extra=st.integers(0, 8), q=st.integers(1, 12),
       k_rank=st.integers(1, 24), a_rank=st.integers(1, 24), restrict=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_alpha_times_dual_bessel_bound_is_one(d, extra, q, k_rank, a_rank, restrict, seed):
    """Weighted models, K: J -> H of full or deficient rank, and a random A,
    on the whole space or a random selection as D(A*)."""
    rng = np.random.default_rng(seed)
    model = random_weighted_model(rng, d)
    seq = random_frame(rng, d, d + extra, model=model)
    J = random_weighted_model(rng, q)
    K = OperatorModel(_low_rank(rng, d, q, min(k_rank, d, q)), J, model)
    assert abs(kframe_bounds(seq, K).alpha * k_dual(seq, K).bessel_bound - 1.0) <= TOL

    index = np.sort(rng.permutation(d)[:int(rng.integers(1, d + 1))])
    A = OperatorModel(_low_rank(rng, d, d, min(a_rank, d)), model, model,
                      adjoint_domain=Subspace.selection(model, index) if restrict else None)
    assert abs(weak_aframe_bound(seq, A).alpha * weak_a_dual(seq, A).bessel_bound - 1.0) <= TOL


def test_exm1_weak_bound_at_label_range_256():
    grid = interval_grid(256)
    seq = exponential_system(0.5, 256, grid, derivative=True)
    A = diff_operator(grid, "minus_i_ddx_H1")
    alpha, bessel = weak_aframe_bound(seq, A).alpha, weak_a_dual(seq, A).bessel_bound
    assert abs(alpha - 2.0) <= 1e-3  # 1 / b up to the h^2 discretization error
    assert abs(alpha * bessel - 1.0) <= TOL


def _graph_bessel_bound(dual, A):
    """sup over f in D(A) of sum_n |inner(f, k_n)_A|^2 / ||f||_A^2.  In orthonormal
    coordinates c of D(A), with k_n = B kappa_n and At = ``A.domain_whitened()``,
    inner(f, k_n)_A = kappa_n^H G c and ||f||_A^2 = c^H G c for G = I + At^H At,
    so the bound is the top eigenvalue of the pencil (G kappa kappa^H G, G):
    sigma_max(L^H kappa)^2 with G = L L^H."""
    kappa, at = A.domain_subspace.coords(dual.vectors), A.domain_whitened()
    chol = np.linalg.cholesky(np.eye(at.shape[1]) + at.conj().T @ at)
    return float(np.linalg.svd(chol.conj().T @ kappa, compute_uv=False)[0]) ** 2


@settings(max_examples=40, deadline=None)
@given(d=st.integers(1, 24), extra=st.integers(0, 8), a_rank=st.integers(1, 24),
       r=st.integers(1, 24), domain=st.sampled_from(["full", "basis", "selection"]),
       seed=st.integers(0, 2**32 - 1))
def test_graph_alpha_times_graph_bessel_bound_is_one(d, extra, a_rank, r, domain, seed):
    """Weighted models and a random A of full or deficient rank on all of H, a
    random subspace or a selection as D(A); the family spans H, so R(A) lies in R(D)."""
    rng = np.random.default_rng(seed)
    model = random_weighted_model(rng, d)
    seq = random_frame(rng, d, d + extra, model=model)
    dom, r = None, min(r, d)
    if domain == "basis":
        dom = orthonormalize(random_matrix(rng, d, r), model)
    elif domain == "selection":
        dom = Subspace.selection(model, np.sort(rng.permutation(d)[:r]))
    A = OperatorModel(_low_rank(rng, d, d, min(a_rank, d)), model, model, domain=dom)
    alpha = aframe_bounds_graph(seq, A).alpha
    assert abs(alpha * _graph_bessel_bound(a_dual_graph(seq, A), A) - 1.0) <= TOL


def test_not_frame_graph_bound():
    data = load_bundled("not_frame")
    ctx = CONSTRUCTIONS[data["construction"]["name"]](
        np.random.default_rng(data["seed"]), **data["construction"]["params"])
    seq, A = ctx["seq"], ctx["op"]
    alpha = aframe_bounds_graph(seq, A).alpha
    assert abs(alpha - 0.5990) <= 1e-4  # the bundled report's aframe_alpha
    assert abs(alpha * _graph_bessel_bound(a_dual_graph(seq, A), A) - 1.0) <= TOL
