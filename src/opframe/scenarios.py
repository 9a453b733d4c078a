"""Scenario runner: constructions, operators, named checks, and reports.

A scenario file names one construction, optionally one operator, and a list
of checks with tolerances.  Execution order is construction -> operator ->
checks; the report records every check value, the declared tolerance, and
the verdict.  Randomness flows through a single seeded generator recorded
in the report, so identical files give identical reports up to wall clock.
"""

from __future__ import annotations

import functools
import json
import operator
import time
from dataclasses import dataclass, field
from importlib import resources
from typing import Callable, Dict, List, Optional

import numpy as np

from . import constructions as C
from ._linalg import max_column_gap
from .errors import GridTooCoarse, InvalidScenario
from .hilbert import HilbertModel, interval_grid, l2_truncation, window_grid
from .opmodel import (
    OperatorModel,
    TruncationFamily,
    block_multiplier,
    diagonal_operator,
    diff_operator,
    identity_operator,
    self_adjoint_gap,
    truncation_trajectory,
)
from .relframes import aframe_bounds_graph, kframe_bounds, range_inclusion
from .seqops import FrameSequence, analysis, frame_bounds, partial_synthesis
from .weakframes import (
    DualSequence,
    user_dual,
    verify_weak_duality,
    weak_a_dual,
    weak_aframe_bound,
)

try:  # package version, for the report header
    from importlib.metadata import version as _pkg_version

    VERSION = _pkg_version("opframe")
except Exception:  # pragma: no cover
    VERSION = "0.1.0"

REPORT_SCHEMA_VERSION = 1

WINDOWS = {
    "gaussian": (C.gaussian_window, C.gaussian_window_deriv),
    "cosine_bump": (C.cosine_bump, C.cosine_bump_deriv),
    "fold_symmetric": (C.fold_symmetric_window, None),
    "half_cosine": (C.half_cosine_window, None),
}


def _window(name):
    if name not in WINDOWS:
        raise InvalidScenario(f"unknown window {name!r}; valid: {sorted(WINDOWS)}")
    return WINDOWS[name]


# --------------------------------------------------------------------------
# constructions: name -> fn(params, rng) -> ctx dict
# --------------------------------------------------------------------------


def _grid_from(params) -> HilbertModel:
    d = int(params.get("d", 256))
    x0 = float(params.get("x0", 0.0))
    x1 = float(params.get("x1", 1.0))
    return interval_grid(d, x0, x1)


def _build_exponential(params, rng):
    grid = _grid_from(params)
    b = float(params.get("b", 1.0))
    label_range = int(params.get("label_range", 40))
    seq = C.exponential_system(b, label_range, grid, derivative=params.get("derivative", False))
    return {"grid": grid, "seq": seq, "params": params}


def _build_gabor(params, rng, derivative=False):
    grid = window_grid(int(params.get("d", 1024)), float(params.get("x0", -8.0)),
                       float(params.get("x1", 8.0)))
    win, win_d = _window(params.get("window", "gaussian"))
    seq = C.gabor_system(
        win,
        float(params.get("a", 1.0)),
        float(params.get("b", 0.125)),
        int(params.get("m_range", 2)),
        int(params.get("n_range", 2)),
        grid,
        window_deriv=win_d,
        derivative=derivative,
        m_values=params.get("m_values"),
    )
    return {"grid": grid, "seq": seq, "params": params}


def _build_wavelet(params, rng, derivative=False):
    grid = window_grid(int(params.get("d", 2048)), float(params.get("x0", -8.0)),
                       float(params.get("x1", 8.0)))
    mother, mother_d = _window(params.get("mother", "cosine_bump"))
    seq = C.wavelet_system(
        mother,
        float(params.get("a", 2.0)),
        float(params.get("b", 1.0)),
        int(params.get("m_range", 1)),
        int(params.get("n_range", 2)),
        grid,
        support=tuple(params.get("support", (-1.0, 1.0))),
        mother_deriv=mother_d,
        derivative=derivative,
    )
    return {"grid": grid, "seq": seq, "params": params}


def _build_translation(params, rng):
    grid = window_grid(int(params.get("d", 512)), float(params.get("x0", -8.0)),
                       float(params.get("x1", 8.0)))
    win, _ = _window(params.get("window", "gaussian"))
    seq = C.translation_system(win, float(params.get("c", 1.0)),
                               int(params.get("k_range", 4)), grid)
    return {"grid": grid, "seq": seq, "params": params}


def _build_pw(params, rng):
    d = int(params.get("d", 4096))
    L = int(params.get("L", 64))
    grid = window_grid(d, -L / 2.0, L / 2.0)
    phi, psi, P = C.pw_example(grid, taper=params.get("taper", "linear"))
    return {
        "grid": grid,
        "seq": phi,
        "psi": psi,
        "op": P,
        "params": params,
        "extras": {"psi_closed_form_gaps": C.pw_closed_form_gaps(psi, grid)},
    }


def _build_difference(params, rng):
    d = int(params.get("d", 200))
    seq = C.difference_sequence(d)
    # A = C* o I at truncation: the matrix whose columns are the g_n
    A = OperatorModel(seq.vectors.copy(), seq.model, seq.model, name="difference A")
    return {"seq": seq, "op": A, "params": params}


def _build_multiplier(params, rng):
    d = int(params.get("d", 64))
    cond_max = float(params.get("cond_max", 10.0))
    model = l2_truncation(d)
    qa, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    qb, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    sing = 1.0 + (cond_max - 1.0) * rng.random(d)
    phi = qa @ np.diag(sing) @ qb.conj().T
    psi = qa @ np.diag(1.0 / sing) @ qb.conj().T  # (phi^-1)^H: biorthogonal pair
    alphas = np.arange(1, d + 1) * (0.5 + 0.5 * rng.random(d)) * np.exp(
        2j * np.pi * rng.random(d)
    )
    phis = FrameSequence(model, phi)
    psis = FrameSequence(model, psi)
    H = C.riesz_multiplier(phis, psis, alphas)
    seq = FrameSequence(model, phi * alphas[None, :])
    dual = user_dual(model, psi)
    return {"seq": seq, "dual": dual, "op": H, "phis": phis, "psis": psis,
            "alphas": alphas, "params": params}


def _build_not_frame(params, rng):
    cells = int(params.get("cells", 2))
    p = int(params.get("pts_per_cell", 32))
    lo, hi = params.get("alpha_range", (1.0, 2.0))
    mags = lo + (hi - lo) * rng.random(cells)
    phases = np.exp(2j * np.pi * rng.random(cells))
    A = block_multiplier(mags * phases, p)
    grid = A.input_model
    win, _ = _window(params.get("window", "fold_symmetric"))
    n_range = int(params.get("n_range", p // 2))
    seq = C.gabor_system(win, 2.0, 1.0, 0, n_range, grid,
                         m_values=list(range(cells)))
    return {"grid": grid, "seq": seq, "op": A, "params": params}


def _parseval_family(sizes):
    def gen(n):
        model = l2_truncation(n)
        diag = np.arange(1, n + 1, dtype=complex)
        A = diagonal_operator(model, diag, name=f"diag(1..{n})")
        seq = FrameSequence(model, np.diag(diag))
        return A, seq

    return TruncationFamily(gen, sizes)


def _build_parseval(params, rng):
    sizes = [int(s) for s in params.get("sizes", (8, 16, 32, 64, 128))]
    return {"family": _parseval_family(sizes), "sizes": sizes, "params": params}


CONSTRUCTIONS: Dict[str, Callable] = {
    "exponential": _build_exponential,
    "gabor": lambda p, r: _build_gabor(p, r, derivative=False),
    "gabor_derivative": lambda p, r: _build_gabor(p, r, derivative=True),
    "wavelet": lambda p, r: _build_wavelet(p, r, derivative=False),
    "wavelet_derivative": lambda p, r: _build_wavelet(p, r, derivative=True),
    "translation": _build_translation,
    "pw_quarter": _build_pw,
    "difference": _build_difference,
    "multiplier": _build_multiplier,
    "not_frame_gabor": _build_not_frame,
    "parseval_family": _build_parseval,
}


# --------------------------------------------------------------------------
# operators: name -> fn(ctx, params) -> OperatorModel
# --------------------------------------------------------------------------


def _diff_factory(name, variant):
    def build(ctx, params):
        if "grid" not in ctx:
            raise InvalidScenario(f"operator {name!r} needs a construction with a grid")
        try:
            return diff_operator(ctx["grid"], variant)
        except GridTooCoarse as exc:
            raise InvalidScenario(f"operator {name!r}: {exc}") from exc

    return build


OPERATORS: Dict[str, Callable] = {
    name: _diff_factory(name, variant)
    for name, variant in (
        ("diff_minus_i_H1", "minus_i_ddx_H1"),
        ("diff_minus_i_H10", "minus_i_ddx_H10"),
        ("diff_ddx_H1", "ddx_H1"),
        ("diff_minus_i_periodic", "minus_i_ddx_periodic"),
        ("diff_ddx_periodic", "ddx_periodic"),
    )
}


def _identity(ctx, params):
    if "seq" not in ctx:
        raise InvalidScenario("operator 'identity' needs a construction with a sequence")
    return identity_operator(ctx["seq"].model)


OPERATORS["identity"] = _identity


# --------------------------------------------------------------------------
# exm1 helpers shared by checks and the acceptance suite
# --------------------------------------------------------------------------


def exm1_probe_functions(grid: HilbertModel):
    """Smooth test families: hs in H^1, us in the Dirichlet subspace."""
    x = grid.points
    hs = np.column_stack([
        x,
        x**2,
        np.exp(np.sin(2 * np.pi * x)),
        np.sin(np.pi * x),
        np.cos(2 * np.pi * x) + x * (1 - x),
    ]).astype(complex)
    us = np.column_stack([
        np.sin(np.pi * x) ** 3,
        x**2 * (1 - x) ** 2,
        np.sin(np.pi * x) ** 2,
        np.sin(2 * np.pi * x) * np.sin(np.pi * x) ** 2,
    ]).astype(complex)
    return hs, us


def exm1_scaled_dual(b: float, label_range: int, grid: HilbertModel) -> DualSequence:
    """The canonical dual of {e_nb} is {b e_nb}; pair it with {2 pi n b e_nb}."""
    base = C.exponential_system(b, label_range, grid)
    return user_dual(grid, b * base.vectors)


def exm1_decomposition_error(b: float, label_range: int, grid: HilbertModel) -> float:
    """Relative gap of sum_n inner(u, g_n) t_n against the analytic -i u'.

    Probe u = sin^3(pi x): u and u' vanish at both interval ends, so the
    zero extension is C^1 and the truncation error decays cleanly while
    staying above the quadrature floor.
    """
    x = grid.points
    u = (np.sin(np.pi * x) ** 3).astype(complex)
    uprime = 3.0 * np.pi * np.sin(np.pi * x) ** 2 * np.cos(np.pi * x)
    seq = C.exponential_system(b, label_range, grid, derivative=True)
    dual = exm1_scaled_dual(b, label_range, grid)
    vec = dual.vectors @ analysis(seq, u)
    ref = -1j * uprime
    w = grid.weights
    return float(
        np.sqrt(np.sum(w * np.abs(vec - ref) ** 2))
        / np.sqrt(np.sum(w * np.abs(ref) ** 2))
    )


# --------------------------------------------------------------------------
# checks: registry entries are (direction, fn(ctx, params, rng) -> value)
# direction: "le" pass iff value <= tol; "ge" iff value >= tol;
#            "lt" iff value < tol
# --------------------------------------------------------------------------


def _chk_weak_duality_residual(ctx, params, rng):
    p, grid = ctx["params"], ctx["grid"]
    dual = exm1_scaled_dual(float(p.get("b", 1.0)), int(p.get("label_range", 40)), grid)
    hs, us = exm1_probe_functions(grid)
    return verify_weak_duality(ctx["seq"], dual, ctx["op"], hs=hs, us=us)


def _chk_adjoint_decomposition_error(ctx, params, rng):
    p = ctx["params"]
    return exm1_decomposition_error(
        float(p.get("b", 1.0)), int(p.get("label_range", 40)), ctx["grid"]
    )


def _chk_decomposition_monotone(ctx, params, rng):
    p = ctx["params"]
    b = float(p.get("b", 1.0))
    ranges = [int(r) for r in params.get("ranges", (20, 40, 80))]
    errs = [exm1_decomposition_error(b, r, ctx["grid"]) for r in ranges]
    ctx.setdefault("extras", {})["decomposition_errors"] = dict(zip(ranges, errs))
    return max(errs[i + 1] / errs[i] for i in range(len(errs) - 1))


def _chk_weak_alpha(ctx, params, rng):
    seq = ctx["seq"]
    if "label_range" in params:
        # rebuild at a label range that resolves the grid: a truncated family
        # covering fewer modes than the quantifier space has dimensions gives
        # alpha = 0 by a rank count
        p = dict(ctx["params"], label_range=int(params["label_range"]))
        seq = _build_exponential(p, rng)["seq"]
    return weak_aframe_bound(seq, ctx["op"]).alpha


def _derivative_gap(ctx, rng, build):
    """Relative gap between A applied to the plain family that ``build``
    rebuilds from the scenario params and the derivative family."""
    plain = build(dict(ctx["params"]), rng, derivative=False)["seq"]
    return max_column_gap(ctx["op"].apply_columns(plain.vectors), ctx["seq"].vectors,
                          ctx["grid"].weights)


def _chk_derivative_match(ctx, params, rng):
    value = _derivative_gap(ctx, rng, _build_gabor)
    h = float(ctx["grid"].points[1] - ctx["grid"].points[0])
    ctx.setdefault("extras", {})["derivative_match_C_h2"] = value / h**2
    return value


def _chk_self_adjoint_gap(ctx, params, rng):
    return self_adjoint_gap(ctx["op"])


def _chk_range_inclusion_residual(ctx, params, rng):
    included, residual = range_inclusion(ctx["op"], ctx["seq"])
    ctx.setdefault("extras", {})["range_included"] = bool(included)
    return residual


def _chk_aframe_alpha(ctx, params, rng):
    return aframe_bounds_graph(ctx["seq"], ctx["op"]).alpha


def _chk_frame_ratio(ctx, params, rng):
    fb = frame_bounds(ctx["seq"])
    ctx.setdefault("bounds", {})["frame"] = fb
    return fb.alpha / fb.beta if fb.beta > 0 else 0.0


def _chk_partial_sum_identity(ctx, params, rng):
    seq = ctx["seq"]
    d = seq.n_vectors
    c = 1.0 / np.arange(1, d + 1)
    worst = 0.0
    for n in range(1, d + 1):
        vec = partial_synthesis(seq, c, n)
        e_n = np.zeros(d)
        e_n[n - 1] = 1.0
        worst = max(worst, float(np.linalg.norm(vec - e_n)))
    return worst


def _chk_weak_certificate(ctx, params, rng):
    dual = weak_a_dual(ctx["seq"], ctx["op"])
    ctx["dual"] = dual
    return dual.certificate_residual


def _chk_strong_residual_min(ctx, params, rng):
    seq = ctx["seq"]
    A = ctx["op"]
    d = seq.n_vectors
    f = (1.0 / np.arange(1, d + 1)).astype(complex)
    dual = ctx.get("dual") or weak_a_dual(seq, A)
    coeffs = analysis(dual.as_frame_sequence(), f)
    af = A.apply(f)
    worst = np.inf
    for n in range(1, d):
        vec = partial_synthesis(seq, coeffs, n)
        worst = min(worst, float(np.linalg.norm(vec - af)))
    return worst


def _chk_pw_reconstruction(ctx, params, rng):
    seq, psi, P = ctx["seq"], ctx["psi"], ctx["op"]
    u = P.factor[0]  # weighted-orthonormal basis of the band
    q = u.shape[1]
    count = int(params.get("signals", 20))
    if count < 1:
        return 0.0
    coeffs = [rng.standard_normal(q) + 1j * rng.standard_normal(q) for _ in range(count)]
    fs = u @ np.column_stack(coeffs)
    rec = seq.vectors @ (psi.whitened().conj().T @ (seq.model.sqrt_weights[:, None] * fs))
    return max_column_gap(rec, fs, seq.model.weights)


def _chk_kframe_alpha(ctx, params, rng):
    fb = kframe_bounds(ctx["seq"], ctx["op"])
    ctx.setdefault("bounds", {})["k_frame"] = fb
    return fb.alpha


def _chk_psi_in_range(ctx, params, rng):
    psi, P = ctx["psi"], ctx["op"]
    return max_column_gap(P.apply_columns(psi.vectors), psi.vectors, psi.model.weights)


def _chk_multiplier_weak_duality(ctx, params, rng):
    pairs = int(params.get("pairs", 20))
    p = ctx["params"]
    worst = verify_weak_duality(ctx["seq"], ctx["dual"], ctx["op"], trials=20)
    for _ in range(pairs - 1):
        fresh = _build_multiplier(p, rng)
        worst = max(
            worst,
            verify_weak_duality(fresh["seq"], fresh["dual"], fresh["op"], trials=20),
        )
    return worst


def _chk_parseval_alpha_deviation(ctx, params, rng):
    traj = truncation_trajectory(ctx["family"], "weak_alpha")
    ctx.setdefault("trajectories", {})["weak_alpha"] = traj
    return max(abs(v - 1.0) for _, v in traj)


def _chk_bessel_square_deviation(ctx, params, rng):
    traj = truncation_trajectory(ctx["family"], "bessel_bound")
    ctx.setdefault("trajectories", {})["bessel_bound"] = traj
    return max(abs(v - n**2) for n, v in traj)


CHECKS: Dict[str, tuple] = {
    "weak_duality_residual": ("le", _chk_weak_duality_residual),
    "adjoint_decomposition_error": ("le", _chk_adjoint_decomposition_error),
    "decomposition_error_monotone": ("lt", _chk_decomposition_monotone),
    "weak_alpha": ("ge", _chk_weak_alpha),
    "derivative_match": ("le", _chk_derivative_match),
    "wavelet_derivative_match": (
        "le", lambda ctx, params, rng: _derivative_gap(ctx, rng, _build_wavelet)
    ),
    "self_adjoint_gap": ("le", _chk_self_adjoint_gap),
    "range_inclusion_residual": ("le", _chk_range_inclusion_residual),
    "aframe_alpha": ("ge", _chk_aframe_alpha),
    "frame_ratio": ("le", _chk_frame_ratio),
    "partial_sum_identity": ("le", _chk_partial_sum_identity),
    "weak_certificate": ("le", _chk_weak_certificate),
    "strong_residual_min": ("ge", _chk_strong_residual_min),
    "pw_reconstruction": ("le", _chk_pw_reconstruction),
    "kframe_alpha": ("ge", _chk_kframe_alpha),
    "psi_in_range": ("le", _chk_psi_in_range),
    "multiplier_weak_duality": ("le", _chk_multiplier_weak_duality),
    "parseval_alpha_deviation": ("le", _chk_parseval_alpha_deviation),
    "bessel_square_deviation": ("le", _chk_bessel_square_deviation),
}


# --------------------------------------------------------------------------
# schema + reports
# --------------------------------------------------------------------------


def load_schema() -> dict:
    with resources.files("opframe.schemas").joinpath("scenario.schema.json").open() as fh:
        return json.load(fh)


@functools.cache
def _schema_validator():
    """The scenario schema's validator, checked and compiled once per process."""
    import jsonschema

    schema = load_schema()
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


def validate_scenario(data: dict):
    import jsonschema

    # the error jsonschema.validate would raise, without re-checking the schema
    error = jsonschema.exceptions.best_match(_schema_validator().iter_errors(data))
    if error is not None:
        raise InvalidScenario(f"scenario schema violation: {error.message}")
    cname = data["construction"]["name"]
    if cname not in CONSTRUCTIONS:
        raise InvalidScenario(
            f"unknown construction {cname!r}; valid: {sorted(CONSTRUCTIONS)}"
        )
    if "operator" in data and data["operator"]["name"] not in OPERATORS:
        raise InvalidScenario(
            f"unknown operator {data['operator']['name']!r}; valid: {sorted(OPERATORS)}"
        )
    for chk in data["checks"]:
        if chk["name"] not in CHECKS:
            raise InvalidScenario(
                f"unknown check {chk['name']!r}; valid: {sorted(CHECKS)}"
            )


@dataclass
class CheckResult:
    name: str
    value: float
    tolerance: float
    direction: str
    passed: bool


@dataclass
class ScenarioReport:
    scenario: str
    version: str
    report_version: int
    seed: int
    wall_clock_s: float
    checks: List[CheckResult]
    bounds: dict = field(default_factory=dict)
    trajectories: dict = field(default_factory=dict)
    extras: dict = field(default_factory=dict)

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "tool_version": self.version,
            "report_version": self.report_version,
            "seed": self.seed,
            "wall_clock_s": self.wall_clock_s,
            "checks": [
                {
                    "name": c.name,
                    "value": c.value,
                    "tolerance": c.tolerance,
                    "direction": c.direction,
                    "pass": c.passed,
                }
                for c in self.checks
            ],
            "bounds": self.bounds,
            "trajectories": self.trajectories,
            "extras": self.extras,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


_PASSES = {"le": operator.le, "ge": operator.ge, "lt": operator.lt}


def run_scenario(
    data: dict, seed: Optional[int] = None, tol_scale: float = 1.0
) -> ScenarioReport:
    """Execute a validated scenario dict and return its report."""
    validate_scenario(data)
    start = time.perf_counter()
    used_seed = int(data.get("seed", 0) if seed is None else seed)
    rng = np.random.default_rng(used_seed)
    params = data["construction"].get("params", {})
    if "sizes" in data:
        params = dict(params, sizes=data["sizes"])
    ctx = CONSTRUCTIONS[data["construction"]["name"]](params, rng)
    if "operator" in data:
        op_spec = data["operator"]
        ctx["op"] = OPERATORS[op_spec["name"]](ctx, op_spec.get("params", {}))
    results = []
    for chk in data["checks"]:
        direction, fn = CHECKS[chk["name"]]
        tol = float(chk["tolerance"]) * tol_scale
        value = float(fn(ctx, chk.get("params", {}), rng))
        results.append(
            CheckResult(chk["name"], value, tol, direction, _PASSES[direction](value, tol))
        )
    bounds = {
        key: {"alpha": fb.alpha, "beta": fb.beta, "kind": fb.kind}
        for key, fb in ctx.get("bounds", {}).items()
    }
    trajectories = {
        key: [[int(n), float(v)] for n, v in traj]
        for key, traj in ctx.get("trajectories", {}).items()
    }
    return ScenarioReport(
        scenario=data["name"],
        version=VERSION,
        report_version=REPORT_SCHEMA_VERSION,
        seed=used_seed,
        wall_clock_s=time.perf_counter() - start,
        checks=results,
        bounds=bounds,
        trajectories=trajectories,
        extras=ctx.get("extras", {}),
    )


# --------------------------------------------------------------------------
# bundled scenarios
# --------------------------------------------------------------------------

_BUNDLED_FILES = {
    "pw_quarter": "pw_quarter.json",
    "exm1": "exm1_weak_dual.json",
    "exm2": "exm2_gabor_derivative.json",
    "wavelet": "wavelet_derivative.json",
    "not_frame": "not_frame.json",
    "difference": "difference_counterexample.json",
    "multiplier": "multiplier.json",
    "parseval_trajectory": "parseval_trajectory.json",
}
REPRODUCE_NAMES = tuple(_BUNDLED_FILES)


def load_bundled(name: str) -> dict:
    if name not in _BUNDLED_FILES:
        raise InvalidScenario(
            f"unknown example {name!r}; valid: {', '.join(REPRODUCE_NAMES)}"
        )
    path = resources.files("opframe.data").joinpath(_BUNDLED_FILES[name])
    with path.open() as fh:
        return json.load(fh)


def reproduce(name: str, seed: Optional[int] = None, tol_scale: float = 1.0):
    return run_scenario(load_bundled(name), seed=seed, tol_scale=tol_scale)
