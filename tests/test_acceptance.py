"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
summary.  Tolerances are pinned here; OPFRAME_TOL_OVERRIDE does not apply.
"""

import numpy as np

from opframe.errors import DegenerateOperator, FactorizationFailed, RangeNotIncluded
from opframe.hilbert import interval_grid, l2_truncation, window_grid
from opframe.opmodel import OperatorModel, block_multiplier, diagonal_operator, diff_operator
from opframe.constructions import (
    difference_sequence,
    exponential_system,
    fold_symmetric_window,
    gabor_system,
    gaussian_window,
    gaussian_window_deriv,
    pw_example,
    riesz_multiplier,
)
from opframe.relframes import aframe_bounds_graph, k_dual, kframe_bounds, range_inclusion
from opframe.scenarios import (
    exm1_decomposition_error,
    exm1_probe_functions,
    exm1_scaled_dual,
)
from opframe.seqops import FrameSequence, analysis, frame_bounds
from opframe.weakframes import (
    interchange_dual,
    user_dual,
    verify_weak_duality,
    weak_a_dual,
    weak_aframe_bound,
)

from conftest import adjoint, factor_of


def _report(n, detail):
    print(f"\n[acceptance] criterion {n:2d}: PASS — {detail}")


def _rand_mat(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def test_criterion_01_parseval_trajectory():
    """diag(1..N) family: weak alpha identically 1, Bessel bound exactly N^2."""
    sizes = [8, 16, 32, 64, 128]
    for n in sizes:
        model = l2_truncation(n)
        diag = np.arange(1, n + 1, dtype=complex)
        A, seq = diagonal_operator(model, diag), FrameSequence(model, np.diag(diag))
        alpha = weak_aframe_bound(seq, A).alpha
        assert abs(alpha - 1.0) <= 1e-10, (n, alpha)
        assert frame_bounds(seq).beta == float(n) ** 2, n
    _report(1, f"alpha = 1 within 1e-10 and beta = N^2 exactly at N in {sizes}")


def test_criterion_02_equivalence_suite():
    """50 random instances: lower bound positive iff the dual certifies."""
    rng = np.random.default_rng(7)
    weak_cases = k_cases = violations = 0
    for trial in range(50):
        d = int(rng.integers(3, 17))
        m = l2_truncation(d)
        broken = trial % 2 == 1
        raw = _rand_mat(rng, d, d + 3)
        if broken:
            v = _rand_mat(rng, d, 1)[:, 0]
            v /= np.linalg.norm(v)
            raw = raw - np.outer(v, v.conj() @ raw)
        if trial % 4 < 2:  # operator-domain variant (graph-free weak form)
            weak_cases += 1
            A = OperatorModel(_rand_mat(rng, d, d), m, m)
            seq = FrameSequence(m, raw)
            alpha = weak_aframe_bound(seq, A).alpha
            if alpha > 1e-8:
                dual = weak_a_dual(seq, A)
                if not (dual.certificate_residual <= 1e-8):
                    violations += 1
            else:
                try:
                    dual = weak_a_dual(seq, A)
                    if dual.certificate_residual <= 1e-8:
                        violations += 1
                except FactorizationFailed:
                    pass
        else:  # bounded two-model variant
            k_cases += 1
            K = OperatorModel(_rand_mat(rng, d, d), m, m)
            seq = FrameSequence(m, raw)
            alpha = kframe_bounds(seq, K).alpha
            if alpha > 1e-8:
                dual = k_dual(seq, K)
                if not (dual.certificate_residual <= 1e-8):
                    violations += 1
            else:
                try:
                    dual = k_dual(seq, K)
                    if dual.certificate_residual <= 1e-8:
                        violations += 1
                except (RangeNotIncluded, DegenerateOperator):
                    pass
    assert violations == 0
    _report(2, f"zero violations over {weak_cases} weak + {k_cases} bounded instances")


def test_criterion_03_pseudo_inverse_lemma():
    """100 random matrices: four Penrose identities and the kernel/range laws."""
    rng = np.random.default_rng(11)
    checked = 0
    for trial in range(100):
        rows = int(rng.integers(2, 10))
        cols = int(rng.integers(2, 10))
        rank = int(rng.integers(1, min(rows, cols) + 1))
        w = _rand_mat(rng, rows, rank) @ _rand_mat(rng, rank, cols)
        wp = factor_of(w, 1e-10).solve(np.eye(rows))[1]  # W+ is the factor of the identity
        nw, nwp = np.linalg.norm(w), np.linalg.norm(wp)
        assert np.linalg.norm(w @ wp @ w - w) <= 1e-9 * nw
        assert np.linalg.norm(wp @ w @ wp - wp) <= 1e-9 * nwp
        assert np.linalg.norm(w @ wp - (w @ wp).conj().T) <= 1e-10 * max(1, nw * nwp)
        assert np.linalg.norm(wp @ w - (wp @ w).conj().T) <= 1e-10 * max(1, nw * nwp)
        # kernel law: W+ annihilates R(W)^perp (vacuous when W is onto)
        q, _ = np.linalg.qr(w)
        u = _rand_mat(rng, rows, 1)[:, 0]
        scale_u = np.linalg.norm(u)
        u -= q @ (q.conj().T @ u)
        if np.linalg.norm(u) > 1e-8 * scale_u:
            assert np.linalg.norm(wp @ u) <= 1e-9 * np.linalg.norm(u)
        # range law: R(W+) lies in N(W)^perp and has matching rank
        qn, _ = np.linalg.qr(w.conj().T)
        x = wp @ _rand_mat(rng, rows, 1)[:, 0]
        assert np.linalg.norm(x - qn @ (qn.conj().T @ x)) <= 1e-9 * max(
            np.linalg.norm(x), 1e-300
        )
        # identity on the range: W W+ f = f for f in R(W)
        f = w @ _rand_mat(rng, cols, 1)[:, 0]
        assert np.linalg.norm(w @ (wp @ f) - f) <= 1e-9 * np.linalg.norm(f)
        checked += 1
    _report(3, f"{checked} matrices (including rank-deficient) at 1e-9 relative")


def test_criterion_04_quarter_band_projection():
    """Grid length 4096: projection bound positive, never a frame, exact
    reconstruction of band-limited signals, for both taper profiles."""
    rng = np.random.default_rng(13)
    grid = window_grid(4096, -32.0, 32.0)
    for taper in ("linear", "raised_cosine"):
        phi, psi, P = pw_example(grid, taper=taper)
        kb = kframe_bounds(phi, P)
        assert kb.alpha > 1e-8
        fb = frame_bounds(phi)
        assert fb.alpha / fb.beta <= 1e-3
        u = P.projection.basis
        w = grid.weights
        worst = 0.0
        for _ in range(20):
            f = u @ (rng.standard_normal(u.shape[1]) + 1j * rng.standard_normal(u.shape[1]))
            rec = phi.vectors @ analysis(psi, f)
            rel = np.sqrt(np.sum(w * np.abs(rec - f) ** 2)) / np.sqrt(
                np.sum(w * np.abs(f) ** 2)
            )
            worst = max(worst, float(rel))
        assert worst <= 1e-6
    _report(4, "both tapers: alpha > 1e-8, ratio <= 1e-3, reconstruction <= 1e-6")


def test_criterion_05_exponential_weak_duality():
    """d = 256, |n| <= 40, b in {1, 1/2}: weak identity and adjoint
    decomposition within tolerance, error halving as the range doubles."""
    grid = interval_grid(256)
    A = diff_operator(grid, "minus_i_ddx_H1")
    hs, us = exm1_probe_functions(grid)
    for b in (1.0, 0.5):
        seq = exponential_system(b, 40, grid, derivative=True)
        dual = exm1_scaled_dual(b, 40, grid)
        res = verify_weak_duality(seq, dual, A, hs=hs, us=us)
        assert res <= 1e-3, (b, res)
        errs = [exm1_decomposition_error(b, r, grid) for r in (20, 40, 80)]
        assert errs[1] <= 1e-2, (b, errs)
        assert errs[2] < errs[1] < errs[0], (b, errs)
    _report(5, "weak residual <= 1e-3 and decomposition <= 1e-2, monotone in range")


def test_criterion_06_gabor_derivative_chain():
    """d = 1024 on [-8, 8): the analytic derivative columns match the
    periodic difference operator to 1e-3 and the model is self-adjoint."""
    grid = window_grid(1024, -8.0, 8.0)
    A = diff_operator(grid, "minus_i_ddx_periodic")
    plain = gabor_system(gaussian_window, 1.0, 0.125, 2, 2, grid)
    deriv = gabor_system(
        gaussian_window, 1.0, 0.125, 2, 2, grid,
        window_deriv=gaussian_window_deriv, derivative=True,
    )
    fd = A.apply_columns(plain.vectors)
    w = grid.weights
    errs = np.sqrt(np.sum(w[:, None] * np.abs(fd - deriv.vectors) ** 2, axis=0))
    norms = np.sqrt(np.sum(w[:, None] * np.abs(deriv.vectors) ** 2, axis=0))
    worst = float(np.max(errs / norms))
    assert worst <= 1e-3
    gap = A.whitened() - adjoint(A).whitened()
    sa = float(np.linalg.svd(gap, compute_uv=False)[0])
    assert sa <= 1e-8
    _report(6, f"derivative match {worst:.2e} <= 1e-3, self-adjoint gap {sa:.1e}")


def test_criterion_07_fold_operator_graph_frame():
    """Cell multiplier with |alpha_k| in [1, 2] and a unit-periodic window:
    exact range inclusion, positive graph bound, never a plain frame.

    The window is 1 + cos(2 pi x)/2 on [0, 2]: range inclusion requires the
    fold symmetry g(y) = g(y-1) on [1, 2], which pins the unit period.
    """
    rng = np.random.default_rng(17)
    cells, p = 2, 32
    alphas = rng.uniform(1.0, 2.0, cells) * np.exp(2j * np.pi * rng.random(cells))
    assert np.all((np.abs(alphas) >= 1.0) & (np.abs(alphas) <= 2.0))
    A = block_multiplier(alphas, p)
    seq = gabor_system(
        fold_symmetric_window, 2.0, 1.0, 0, p // 2, A.input_model,
        m_values=list(range(cells)),
    )
    included, residual = range_inclusion(A, seq)
    assert included and residual <= 1e-10
    gb = aframe_bounds_graph(seq, A)
    assert gb.alpha > 1e-8
    fb = frame_bounds(seq)
    assert fb.alpha / fb.beta <= 1e-3
    _report(7, f"inclusion {residual:.1e}, graph alpha {gb.alpha:.3f}, ratio 0")


def test_criterion_08_difference_counterexample():
    """d = 200: partial sums hit e_n exactly, the weak dual certifies, and
    every proper partial sum of the strong expansion stays >= 0.5 away."""
    d = 200
    seq = difference_sequence(d)
    c = 1.0 / np.arange(1, d + 1)
    worst = 0.0
    for n in range(1, d + 1):
        e_n = np.zeros(d)
        e_n[n - 1] = 1.0
        worst = max(worst, float(np.linalg.norm(seq.vectors[:, :n] @ c[:n] - e_n)))
    assert worst <= 1e-12
    A = OperatorModel(seq.vectors.copy(), seq.model, seq.model)
    dual = weak_a_dual(seq, A)
    assert dual.certificate_residual <= 1e-8
    f = c.astype(complex)
    coeffs = analysis(dual.as_frame_sequence(), f)
    af = A.apply(f)
    gaps = [
        float(np.linalg.norm(seq.vectors[:, :n] @ coeffs[:n] - af))
        for n in range(1, d)
    ]
    assert min(gaps) >= 0.5
    _report(8, f"identity {worst:.1e}, certificate {dual.certificate_residual:.1e}, "
               f"min strong gap {min(gaps):.3f}")


def test_criterion_09_interchange_reconstruction():
    """Surjective instances: h_n = (A+)* t_n reconstructs every basis vector
    of the adjoint domain with relative error <= 1e-6."""
    rng = np.random.default_rng(19)
    worst = 0.0
    for _ in range(10):
        d = int(rng.integers(4, 13))
        m = l2_truncation(d)
        q1, _ = np.linalg.qr(_rand_mat(rng, d, d))
        q2, _ = np.linalg.qr(_rand_mat(rng, d, d))
        A = OperatorModel(q1 @ np.diag(0.5 + 1.5 * rng.random(d)) @ q2.conj().T, m, m)
        sv = np.linalg.svd(A.matrix, compute_uv=False)
        assert sv[-1] > 1e-8  # surjectivity precondition
        seq = FrameSequence(m, A.matrix @ _rand_mat(rng, d, d + 4))
        dual = weak_a_dual(seq, A)
        inter = interchange_dual(seq, dual, A)
        worst = max(worst, inter.certificate_residual)
    assert worst <= 1e-6
    _report(9, f"worst basis-vector reconstruction error {worst:.2e} <= 1e-6")


def test_criterion_10_multiplier_weak_duality():
    """20 biorthogonal pairs (d = 64, condition <= 10), |alpha_n| <= n."""
    rng = np.random.default_rng(23)
    d = 64
    m = l2_truncation(d)
    worst = 0.0
    for _ in range(20):
        qa, _ = np.linalg.qr(_rand_mat(rng, d, d))
        qb, _ = np.linalg.qr(_rand_mat(rng, d, d))
        sing = 1.0 + 9.0 * rng.random(d)
        phi = qa @ np.diag(sing) @ qb.conj().T
        assert np.linalg.cond(phi) <= 10.0 + 1e-6
        psi = qa @ np.diag(1.0 / sing) @ qb.conj().T
        alphas = np.arange(1, d + 1) * rng.random(d) * np.exp(2j * np.pi * rng.random(d))
        H = riesz_multiplier(FrameSequence(m, phi), FrameSequence(m, psi), alphas)
        live = np.abs(alphas) > 0
        seq = FrameSequence(m, phi * alphas[None, :])
        dual = user_dual(m, psi)
        worst = max(worst, verify_weak_duality(seq, dual, H, trials=30))
        assert np.all(np.abs(alphas) <= np.arange(1, d + 1) + 1e-12)
        assert live.any()
    assert worst <= 1e-8
    _report(10, f"worst weak-duality residual {worst:.2e} <= 1e-8 over 20 pairs")


def test_criterion_11_brute_force_oracle_agreement():
    """d = 3, 20 random pairs: the optimal constant agrees with a 1e5-sample
    sphere search to within 2 percent (the sampler upper-bounds alpha)."""
    rng = np.random.default_rng(2024)
    m = l2_truncation(3)

    def sphere_search(G, K, total=100000):
        def ratio(F):
            num = np.sum(np.abs(G.conj().T @ F) ** 2, axis=0)
            den = np.sum(np.abs(K.conj().T @ F) ** 2, axis=0)
            out = np.full(F.shape[1], np.inf)
            live = den > 1e-14
            out[live] = num[live] / den[live]
            return out

        batch = total // 2
        F = _rand_mat(rng, 3, batch)
        F /= np.linalg.norm(F, axis=0)
        r = ratio(F)
        j = int(np.argmin(r))
        best, best_val = F[:, j], float(r[j])
        rounds, per, sigma = 10, (total - batch) // 10, 0.3
        for _ in range(rounds):
            P = best[:, None] + sigma * _rand_mat(rng, 3, per)
            P /= np.linalg.norm(P, axis=0)
            rp = ratio(P)
            k = int(np.argmin(rp))
            if rp[k] < best_val:
                best_val, best = float(rp[k]), P[:, k]
            sigma *= 0.45
        return best_val

    worst = 1.0
    for _ in range(20):
        seq = FrameSequence(m, _rand_mat(rng, 3, 5))
        K = OperatorModel(_rand_mat(rng, 3, 3), m, m)
        alpha = kframe_bounds(seq, K).alpha
        oracle = sphere_search(seq.vectors, K.matrix)
        assert alpha <= oracle * (1 + 1e-9)
        assert oracle <= 1.02 * alpha
        worst = max(worst, oracle / alpha)
    _report(11, f"oracle within factor {worst:.6f} of alpha on 20 pairs")
