"""Exponential tables, circulant translates, and the checks built on them.

Oracles are independent of the kernels: exact phases from the rational grid
definitions in integer arithmetic, evaluated in extended precision, and
``np.roll`` stacks for the translates.
"""

import json

import numpy as np
import pytest

from opframe import constructions as C
from opframe import scenarios as S
from opframe.cli import main
from opframe.errors import InvalidDimension
from opframe.hilbert import interval_grid, window_grid
from opframe.seqops import analysis, partial_synthesis
from opframe.weakframes import weak_a_dual

from conftest import random_vector, reproduce

LD = np.longdouble
LD_PI = LD("3.14159265358979323846264338327950288")
needs_extended = pytest.mark.skipif(
    np.finfo(LD).eps > 1e-18, reason="needs an extended-precision long double"
)


def _ld_roots(index, M):
    """exp(2 pi i index / M) in long double, for integer indices."""
    frac = (np.asarray(index) % M).astype(LD) / M
    frac = np.where(frac >= 0.5, frac - 1, frac)
    return np.cos(2 * LD_PI * frac) + 1j * np.sin(2 * LD_PI * frac)


def _ld_table(d, p, q, M, ns):
    """exp(2 pi i n (q + (2k+1) p) / M): the table of a grid with c h / 2 = p / M
    and c x0 = q / M, in long double."""
    num = q + (2 * np.arange(d) + 1) * p
    return _ld_roots(np.multiply.outer(num, np.asarray(ns)), M)


def _table(grid, c, ns):
    pts, h, x0, _ = C._grid_geometry(grid)
    return C._exp_table(pts, h, x0, c, np.asarray(ns))


# (grid, c, c h / 2 = p / M, c x0 = q / M, labels): pw_quarter, exm1, exm2, and
# a grid whose denominator M = 192 is not a power of two
GRIDS = {
    "pw": (window_grid(4096, -32.0, 32.0), 1 / 64, 1, -4096, 8192, np.arange(-31, 32)),
    "exm1": (interval_grid(256), 0.5, 1, 0, 1024, np.arange(-256, 257)),
    "exm2": (window_grid(1024, -8.0, 8.0), 0.125, 1, -1024, 1024, np.arange(-40, 41)),
    "odd": (interval_grid(96, -2.0, 3.0), 1.0, 5, -384, 192, np.arange(-30, 31)),
}


class TestExactTables:
    @needs_extended
    @pytest.mark.parametrize("name", sorted(GRIDS))
    def test_table_matches_extended_precision_oracle(self, name):
        grid, c, p, q, M, ns = GRIDS[name]
        oracle = _ld_table(grid.dim, p, q, M, ns)
        table = _table(grid, c, ns)
        assert float(np.max(np.abs(table.astype(np.clongdouble) - oracle))) <= 1e-15

    def test_irrational_frequency_keeps_the_np_exp_formula_bit_for_bit(self):
        grid = interval_grid(256)
        b = 1 / np.sqrt(2)
        ns = np.arange(-40, 41)
        expected = np.exp(2j * np.pi * b * np.outer(grid.points, ns))
        assert np.array_equal(C.exponential_system(b, 40, grid).vectors, expected)

    def test_pw_example_evaluates_O_d_plus_M_exponentials(self, monkeypatch):
        # M = 2 d roots of unity on this grid; np.exp of the three outer
        # products took d * (63 + 33 + 33) elements
        d = 4096
        evaluated = []
        real_exp = np.exp

        def counted(x, *args, **kwargs):
            evaluated.append(np.size(x))
            return real_exp(x, *args, **kwargs)

        monkeypatch.setattr(np, "exp", counted)
        C.pw_example(window_grid(d, -32.0, 32.0))
        assert 0 < sum(evaluated) <= d + 2 * d


class TestCirculantTranslates:
    @pytest.mark.parametrize("shift", [1, 5, 16])
    def test_gather_equals_roll_stack(self, rng, shift):
        g = random_vector(rng, 64)
        ms = [-20, -3, 0, 2, 11, 64]
        expected = np.column_stack([np.roll(g, shift * m) for m in ms])
        assert np.array_equal(C._translates(g, shift, ms), expected)

    def test_stacked_windows_translate_row_by_row(self, rng):
        g, gp = random_vector(rng, 48), random_vector(rng, 48)
        tg, tgp = C._translates(np.stack((g, gp)), 3, range(-4, 5))
        assert np.array_equal(tg, C._translates(g, 3, range(-4, 5)))
        assert np.array_equal(tgp, np.column_stack([np.roll(gp, 3 * m) for m in range(-4, 5)]))

    def test_translation_system_and_pw_translates(self):
        grid = window_grid(256, -8.0, 8.0)
        seq = C.translation_system(C.gaussian_window, 1.0, 3, grid)
        g = C.gaussian_window(grid.points)
        assert np.array_equal(seq.vectors, np.column_stack([np.roll(g, 16 * k) for k in range(-3, 4)]))
        phi, psi, _ = C.pw_example(window_grid(512, -8.0, 8.0))
        for fam in (phi, psi):
            base = fam.column(0)
            stack = np.column_stack([np.roll(base, 32 * n) for n in fam.index_labels])
            assert np.array_equal(fam.vectors, stack)

    def test_gabor_layout_is_m_major_with_one_modulation_table(self):
        grid = window_grid(256, -8.0, 8.0)
        b, shift = 0.25, 16
        ns = np.arange(-2, 3)
        mod = _table(grid, b, ns)
        g = C.gaussian_window(grid.points)
        gp = C.gaussian_window_deriv(grid.points)
        seq = C.gabor_system(C.gaussian_window, 1.0, b, 1, 2, grid,
                             window_deriv=C.gaussian_window_deriv, derivative=True)
        cols = [2.0 * np.pi * b * n * mod[:, j] * np.roll(g, shift * m)
                - 1j * mod[:, j] * np.roll(gp, shift * m)
                for m in range(-1, 2) for j, n in enumerate(ns)]
        assert np.array_equal(seq.vectors, np.column_stack(cols))


class TestExm1Families:
    @needs_extended
    def test_decomposition_errors_match_extended_precision_oracle(self):
        """exm1's errors at label ranges 20, 40, 80 and their worst ratio.

        The oracle runs the whole computation in long double from the
        scenario's own float64 samples of u and u': the rounding of u' alone
        moves the error at range 80 by 8e-13 relative, and no table can
        change that.  The np.exp tables missed by 3e-11.
        """
        report = json.loads(reproduce("exm1").to_json())
        b, d = 0.5, 256
        grid = interval_grid(d)
        x = grid.points
        u = (np.sin(np.pi * x) ** 3).astype(LD)
        ref = -1j * (3.0 * np.pi * np.sin(np.pi * x) ** 2 * np.cos(np.pi * x)).astype(LD)
        w = LD(1) / d
        oracle = {}
        for r in (20, 40, 80):
            ns = np.arange(-r, r + 1)
            e = _ld_table(d, 1, 0, 1024, ns)  # b h / 2 = 1/1024, x0 = 0
            coeffs = (np.conj(e * (2 * LD_PI * LD(b) * ns)) * (w * u)[:, None]).sum(axis=0)
            vec = (LD(b) * e * coeffs).sum(axis=1)
            oracle[r] = np.sqrt(np.sum(w * np.abs(vec - ref) ** 2) / np.sum(w * np.abs(ref) ** 2))
        errs = report["extras"]["decomposition_errors"]
        for r in (20, 40, 80):
            assert float(abs(errs[str(r)] - oracle[r]) / oracle[r]) <= 1e-12
        ratio = max(oracle[40] / oracle[20], oracle[80] / oracle[40])
        value = report["checks"][3]["value"]
        assert report["checks"][3]["name"] == "decomposition_error_monotone"
        assert float(abs(value - ratio) / ratio) <= 1e-12

    def test_checks_slice_one_table_per_width(self, monkeypatch):
        built = []
        real = C.exponential_system

        def counted(b, label_range, grid, derivative=False):
            built.append(label_range)
            return real(b, label_range, grid, derivative)

        monkeypatch.setattr(C, "exponential_system", counted)
        assert S.run_scenario(S.load_bundled("exm1")).all_passed
        # the construction's range 40, then weak_alpha's 256, which every
        # later check slices
        assert built == [40, 256]

    def test_sliced_families_equal_rebuilt_ones(self):
        grid = interval_grid(128)
        ctx = S.CONSTRUCTIONS["exponential"](
            {"b": 0.5, "label_range": 50, "d": 128, "derivative": True}, None)
        assert np.array_equal(ctx["seq"].vectors,
                              C.exponential_system(0.5, 50, grid, derivative=True).vectors)
        for r in (10, 50):
            plain = S._exponentials(ctx, r)
            assert np.array_equal(plain.vectors, C.exponential_system(0.5, r, grid).vectors)
            assert plain.index_labels == tuple(range(-r, r + 1))
        assert S.exm1_decomposition_error(0.5, 20, grid, S._exponentials(ctx, 20).vectors) \
            == S.exm1_decomposition_error(0.5, 20, grid)


class TestRunningSums:
    def test_partial_sum_checks_match_one_sum_per_cutoff(self):
        rng = np.random.default_rng(0)
        ctx = S.CONSTRUCTIONS["difference"]({"d": 40}, rng)
        seq = ctx["seq"]
        d = seq.n_vectors
        c = 1.0 / np.arange(1, d + 1)
        worst = max(np.linalg.norm(partial_synthesis(seq, c, n) - np.eye(d)[n - 1])
                    for n in range(1, d + 1))
        assert S.CHECKS["partial_sum_identity"][1](ctx, {}, rng) == pytest.approx(worst, abs=1e-14)
        value = S.CHECKS["strong_residual_min"][1](ctx, {}, rng)
        f = 1.0 / np.arange(1, d + 1)
        coeffs = analysis(weak_a_dual(seq, ctx["op"]).as_frame_sequence(), f)
        af = ctx["op"].apply(f)
        best = min(np.linalg.norm(partial_synthesis(seq, coeffs, n) - af) for n in range(1, d))
        assert value == pytest.approx(best, rel=1e-12)


class TestOnePointGrids:
    def test_interval_grid_needs_a_point(self):
        with pytest.raises(InvalidDimension):
            interval_grid(0)
        with pytest.raises(InvalidDimension):
            window_grid(0, -1.0, 1.0)

    def test_constructions_need_two_points(self):
        with pytest.raises(InvalidDimension, match="at least 2 points"):
            C.exponential_system(0.5, 2, interval_grid(1))
        with pytest.raises(InvalidDimension, match="at least 2 points"):
            C.gabor_system(C.gaussian_window, 1.0, 0.5, 0, 1, window_grid(1, -1.0, 1.0))

    @pytest.mark.parametrize("construction", ["exponential", "gabor"])
    def test_cli_names_the_grid_size(self, tmp_path, capsys, construction):
        f = tmp_path / "s.json"
        f.write_text(json.dumps({
            "name": "one_point", "seed": 0,
            "construction": {"name": construction, "params": {"d": 1}},
            "checks": [{"name": "frame_ratio", "tolerance": 1.0}],
        }))
        assert main(["run", str(f), "--out", str(tmp_path / "r.json")]) != 0
        err = capsys.readouterr().err
        assert "at least 2 points" in err and "out of bounds" not in err


@pytest.mark.parametrize("b", [0.25, 0.5, 1.0])
def test_tables_mirror_as_conjugates_on_interval_grids(b):
    # entries of labels n and -n gather roots j and M - j, and root M/2 is
    # exactly -1: the columns are conjugates bit for bit at every size
    for d in range(2, 601):
        grid, ns = interval_grid(d), np.arange(1, d // 2 + 4)
        assert np.array_equal(_table(grid, b, -ns), _table(grid, b, ns).conj()), d


@pytest.mark.parametrize("grid", [interval_grid(d) for d in (48, 96, 255, 384)]
                         + [window_grid(d, -2.0, 2.0) for d in (64, 100, 384, 1024)],
                         ids=lambda g: g.label)
@pytest.mark.parametrize("b", [0.25, 0.5, 1.0])
def test_exponential_families_mirror_as_conjugates(grid, b):
    """v[:, ::-1] == conj(v) bitwise, and == -conj(v) for the derivative
    family (the real form of the Gram factor reads this)."""
    for derivative, sign in ((False, 1.0), (True, -1.0)):
        v = C.exponential_system(b, grid.dim // 2 + 3, grid, derivative).vectors
        assert np.array_equal(v[:, ::-1], sign * v.conj())


def test_half_turn_root_is_exactly_minus_one():
    # M = 192 and every a_k is odd, so label 96 gathers index 96 on every row:
    # exp(i pi), which np.exp rounds to -1 + 1.2e-16 i
    col = _table(interval_grid(96, -2.0, 3.0), 1.0, [96])[:, 0]
    assert np.all(col == -1.0)
