"""Douglas' lemma ties each frame-type lower bound to a Bessel dual: the optimal
alpha in alpha ||K* f||^2 <= sum_n |inner(f, g_n)|^2 is 1 / ||M||^2 for the
minimum-norm M with K = D M, and ||M||^2 is the Bessel bound of the dual
{M* e_n}.  alpha comes from the pencil (``pencil_lower_bound``), the Bessel
bound from ``min_norm_factor`` and an eigvalsh, so their product, 1 in exact
arithmetic, checks one kernel against the other.  The weak form is the same
lemma in orthonormal coordinates of D(A*)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from opframe.constructions import exponential_system
from opframe.hilbert import Subspace, interval_grid
from opframe.opmodel import OperatorModel, diff_operator
from opframe.relframes import k_dual, kframe_bounds
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
