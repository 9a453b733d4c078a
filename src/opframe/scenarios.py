"""Scenario runner: constructions, operators, named checks, and reports.

A scenario file names one construction, optionally one operator, and a list
of checks with tolerances.  Execution order is construction -> operator ->
checks; the report records every check value, the declared tolerance, and
the verdict.  Randomness flows through a single seeded generator recorded in
the report, so at one BLAS thread count identical files give byte-identical
reports up to wall clock.
"""

from __future__ import annotations

import functools
import inspect
import json
import numbers
import operator
import re
import sys
import time
from dataclasses import dataclass, field
from importlib import resources
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple, get_args, get_origin

import numpy as np

from . import __version__
from . import constructions as C
from ._linalg import _real_matmul, max_column_gap
from .errors import InvalidScenario, OpframeError
from .hilbert import HilbertModel, interval_grid, l2_truncation, window_grid
from .opmodel import (
    OperatorModel,
    block_multiplier,
    diagonal_operator,
    diff_operator,
    self_adjoint_gap,
)
from .relframes import aframe_bounds_graph, kframe_bounds, range_inclusion
from .seqops import FrameSequence, analysis, frame_bounds
from .weakframes import (
    DualSequence,
    user_dual,
    verify_weak_duality,
    weak_a_dual,
    weak_aframe_bound,
)

REPORT_SCHEMA_VERSION = 1

WINDOWS = {
    "gaussian": (C.gaussian_window, C.gaussian_window_deriv),
    "cosine_bump": (C.cosine_bump, C.cosine_bump_deriv),
    "fold_symmetric": (C.fold_symmetric_window, None),
}


def _at_least(where: str, key: str, value, low):
    """InvalidScenario naming where's param key unless value >= low."""
    if not value >= low:
        raise InvalidScenario(f"{where} param {key!r} must be >= {low}, got {value!r}")


def _lookup(kind: str, registry: dict, name):
    """registry[name], else InvalidScenario listing the valid names."""
    if name not in registry:
        raise InvalidScenario(f"unknown {kind} {name!r}; valid: {sorted(registry)}")
    return registry[name]


# --------------------------------------------------------------------------
# constructions: name -> fn(rng, **params) -> ctx dict.  A scenario may set
# each keyword param that has a default (validate_scenario); keyword-only
# params are fixed by the construction name.
# --------------------------------------------------------------------------


def _build_exponential(rng, d=256, x0=0.0, x1=1.0, b=1.0, label_range=40, derivative=False):
    if d < 2:
        raise InvalidScenario(f"exponential param 'd' must give at least 2 points, got {d}")
    _at_least("exponential", "label_range", label_range, 1 if derivative else 0)
    grid = interval_grid(d, x0, x1)
    return {"grid": grid, "seq": C.exponential_system(b, label_range, grid, derivative)}


def _build_gabor(rng, d=1024, x0=-8.0, x1=8.0, window="gaussian", a=1.0, b=0.125,
                 m_range=2, n_range=2, m_values: Optional[Tuple[int, ...]] = None):
    for key, value in ("m_range", m_range), ("n_range", n_range):  # else no column at all
        _at_least("gabor_derivative", key, value, 0)
    if m_values is not None and not m_values:
        raise InvalidScenario("gabor_derivative param 'm_values' must not be empty")
    grid = window_grid(d, x0, x1)
    win, win_d = _lookup("window", WINDOWS, window)
    family = functools.partial(C.gabor_system, win, a, b, m_range, n_range, grid,
                               window_deriv=win_d, m_values=m_values)
    # plain is what the derivative checks map onto seq, the family's image under -i d/dx
    return {"grid": grid, "plain": family(), "seq": family(derivative=True)}


def _build_wavelet(rng, d=2048, x0=-8.0, x1=8.0, mother="cosine_bump", a=2.0, b=1.0,
                   m_range=1, n_range=2, support=(-1.0, 1.0)):
    for key, value in ("m_range", m_range), ("n_range", n_range):  # else no column at all
        _at_least("wavelet_derivative", key, value, 0)
    grid = window_grid(d, x0, x1)
    win, win_d = _lookup("mother window", WINDOWS, mother)
    family = functools.partial(C.wavelet_system, win, a, b, m_range, n_range, grid,
                               support=support, mother_deriv=win_d)
    return {"grid": grid, "plain": family(), "seq": family(derivative=True)}


def _build_pw(rng, d=4096, L=64, taper="linear"):
    if L < 4 or L % 4:  # the band edges 1/4 and 1/2 must fall on the frequency grid 1/L
        raise InvalidScenario(f"pw_quarter param 'L' must be a positive multiple of 4, got {L}")
    if d < 1 or d & (d - 1) or d % L:  # a power of two whose unit translation is d / L samples
        raise InvalidScenario(f"pw_quarter param 'd' must be a power of two and a multiple of "
                              f"L = {L}, got {d}")
    grid = window_grid(d, -L / 2.0, L / 2.0)
    phi, psi, P = C.pw_example(grid, taper=taper)
    return {"grid": grid, "seq": phi, "psi": psi, "op": P,
            "extras": {"psi_closed_form_gaps": C.pw_closed_form_gaps(psi, grid)}}


def _build_difference(rng, d=200):
    _at_least("difference", "d", d, 2)
    seq = C.difference_sequence(d)
    # A = C* o I at truncation: the matrix whose columns are the g_n
    A = OperatorModel(seq.vectors.copy(), seq.model, seq.model, name="difference A")
    return {"seq": seq, "op": A}


def _build_multiplier(rng, d=64, cond_max=10.0):
    _at_least("multiplier", "d", d, 1)
    _at_least("multiplier", "cond_max", cond_max, 1)  # singular values 1 + (cond_max - 1) U[0, 1)
    model = l2_truncation(d)
    qa, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    qb, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    sing = 1.0 + (cond_max - 1.0) * rng.random(d)
    qbh = qb.conj().T
    phi = (qa * sing) @ qbh
    psi = (qa * (1.0 / sing)) @ qbh  # (phi^-1)^H: biorthogonal pair
    alphas = np.arange(1, d + 1) * (0.5 + 0.5 * rng.random(d)) * np.exp(2j * np.pi * rng.random(d))
    H = C.riesz_multiplier(FrameSequence(model, phi), FrameSequence(model, psi), alphas)
    seq = FrameSequence(model, phi * alphas[None, :])
    return {"seq": seq, "dual": user_dual(model, psi), "op": H}


def _build_not_frame(rng, cells=2, pts_per_cell=32, alpha_range=(1.0, 2.0),
                     window="fold_symmetric", n_range: Optional[int] = None):
    if n_range is None:  # every modulation a cell resolves
        n_range = pts_per_cell // 2
    for key, value, low in (("cells", cells, 1), ("pts_per_cell", pts_per_cell, 1),
                            ("n_range", n_range, 0)):
        _at_least("not_frame_gabor", key, value, low)
    if min(alpha_range) <= 0.0:  # magnitudes; a zero one makes a numerically zero operator
        raise InvalidScenario(f"not_frame_gabor param 'alpha_range' items must be positive, "
                              f"got {alpha_range}")
    lo, hi = alpha_range
    mags = lo + (hi - lo) * rng.random(cells)
    phases = np.exp(2j * np.pi * rng.random(cells))
    A = block_multiplier(mags * phases, pts_per_cell)
    grid = A.input_model
    win, _ = _lookup("window", WINDOWS, window)
    seq = C.gabor_system(win, 2.0, 1.0, 0, n_range, grid, m_values=list(range(cells)))
    return {"grid": grid, "seq": seq, "op": A}


def _build_parseval(rng, sizes=(8, 16, 32, 64, 128)):
    truncations = []  # (N, A_N = diag(1..N), the columns of A_N) at each size N
    for n in sizes:
        model = l2_truncation(n)
        diag = np.arange(1.0, n + 1)
        truncations.append((n, diagonal_operator(model, diag, name=f"diag(1..{n})"),
                            FrameSequence(model, np.diag(diag))))
    return {"truncations": truncations}


CONSTRUCTIONS: Dict[str, Callable] = {
    "exponential": _build_exponential,
    "gabor_derivative": _build_gabor,
    "wavelet_derivative": _build_wavelet,
    "pw_quarter": _build_pw,
    "difference": _build_difference,
    "multiplier": _build_multiplier,
    "not_frame_gabor": _build_not_frame,
    "parseval_family": _build_parseval,
}


# --------------------------------------------------------------------------
# operators: name -> fn(ctx) -> OperatorModel; operators take no params
# --------------------------------------------------------------------------


def _diff_factory(name, variant):
    def build(ctx):
        if "grid" not in ctx:
            raise InvalidScenario(f"operator {name!r} needs a construction with a grid")
        return diff_operator(ctx["grid"], variant)

    return build


OPERATORS: Dict[str, Callable] = {
    name: _diff_factory(name, variant)
    for name, variant in (
        ("diff_minus_i_H1", "minus_i_ddx_H1"),
        ("diff_minus_i_periodic", "minus_i_ddx_periodic"),
        ("diff_ddx_periodic", "ddx_periodic"),
    )
}


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
    ])
    us = np.column_stack([
        np.sin(np.pi * x) ** 3,
        x**2 * (1 - x) ** 2,
        np.sin(np.pi * x) ** 2,
        np.sin(2 * np.pi * x) * np.sin(np.pi * x) ** 2,
    ])
    return hs, us


def exm1_scaled_dual(b: float, label_range: int, grid: HilbertModel) -> DualSequence:
    """The canonical dual of {e_nb} is {b e_nb}; pair it with {2 pi n b e_nb}."""
    return user_dual(grid, b * C.exponential_system(b, label_range, grid).vectors)


def exm1_decomposition_error(b: float, label_range: int, grid: HilbertModel) -> float:
    """Relative gap of sum_n inner(u, g_n) t_n against the analytic -i u'.

    Probe u = sin^3(pi x): u and u' vanish at both interval ends, so the
    zero extension is C^1 and the truncation error decays cleanly while
    staying above the quadrature floor.
    """
    x = grid.points
    u = np.sin(np.pi * x) ** 3
    uprime = 3.0 * np.pi * np.sin(np.pi * x) ** 2 * np.cos(np.pi * x)
    t = exm1_scaled_dual(b, label_range, grid).vectors  # t_n = b e_nb
    g = t * (2.0 * np.pi * np.arange(-label_range, label_range + 1))[None, :]  # 2 pi n b e_nb
    vec = t @ analysis(FrameSequence(grid, g), u)
    ref = -1j * uprime
    return max_column_gap((vec - ref)[:, None], ref[:, None], grid.weights)


# --------------------------------------------------------------------------
# checks: registry entries are (direction, fn(ctx, rng, **params)).  fn reads
# the context (ctx["params"]: the construction's params, defaults filled in)
# and writes nothing into it.  It returns its float value, or a _Found that
# also gives run_scenario, the one writer of the report's sections, one entry:
# a FrameBounds in "bounds", [(N, value)] in "trajectories", or a JSON value
# in "extras".
# direction: "le" pass iff value <= tol; "ge" iff value >= tol;
#            "lt" iff value < tol
# --------------------------------------------------------------------------


class _Found(NamedTuple):
    """A check's value and its finding for report[section][key]."""

    value: float
    section: str
    key: str
    item: object


def _chk_weak_duality_residual(ctx, rng):
    p, grid = ctx["params"], ctx["grid"]
    b, r = p["b"], p["label_range"]
    dual = exm1_scaled_dual(b, r, grid)
    hs, us = exm1_probe_functions(grid)
    return verify_weak_duality(ctx["seq"], dual, ctx["op"], hs=hs, us=us)


def _chk_adjoint_decomposition_error(ctx, rng):
    b, r = ctx["params"]["b"], ctx["params"]["label_range"]
    return exm1_decomposition_error(b, r, ctx["grid"])


def _chk_decomposition_monotone(ctx, rng, ranges=(20, 40, 80)):
    b = ctx["params"]["b"]
    if len(ranges) < 2 or min(ranges) < 1:  # a ratio of successive errors needs a pair
        raise InvalidScenario(f"decomposition_error_monotone 'ranges' needs 2+ ints >= 1: {ranges}")
    errs = [exm1_decomposition_error(b, r, ctx["grid"]) for r in ranges]
    # an error of exactly 0.0 (an underflowed probe) makes the ratio after it infinite
    return _Found(max(errs[i + 1] / errs[i] if errs[i] else np.inf for i in range(len(errs) - 1)),
                  "extras", "decomposition_errors", dict(zip(ranges, errs)))


def _chk_weak_alpha(ctx, rng, label_range: Optional[int] = None):
    seq = ctx["seq"]
    if label_range is not None:
        # rebuild at a label range that resolves the grid: a truncated family covering fewer
        # modes than the quantifier space has dimensions gives alpha = 0 by a rank count
        _at_least("weak_alpha", "label_range", label_range, 1)  # else no family to rebuild
        p = ctx["params"]
        seq = C.exponential_system(p["b"], label_range, ctx["grid"], p["derivative"])
    return weak_aframe_bound(seq, ctx["op"]).alpha


def _chk_derivative_gap(ctx, rng):
    """Relative gap between A applied to the plain family and the derivative family."""
    gap = ctx["op"].apply_columns(ctx["plain"].vectors) - ctx["seq"].vectors
    return max_column_gap(gap, ctx["seq"].vectors, ctx["grid"].weights)


def _chk_derivative_match(ctx, rng):
    value = _chk_derivative_gap(ctx, rng)
    h = float(ctx["grid"].points[1] - ctx["grid"].points[0])
    return _Found(value, "extras", "derivative_match_C_h2", value / h**2)


def _chk_self_adjoint_gap(ctx, rng):
    return self_adjoint_gap(ctx["op"])


def _chk_range_inclusion_residual(ctx, rng):
    included, residual = range_inclusion(ctx["op"], ctx["seq"])
    return _Found(residual, "extras", "range_included", bool(included))


def _chk_aframe_alpha(ctx, rng):
    return aframe_bounds_graph(ctx["seq"], ctx["op"]).alpha


def _chk_frame_ratio(ctx, rng):
    fb = frame_bounds(ctx["seq"])
    return _Found(fb.alpha / fb.beta if fb.beta > 0 else 0.0, "bounds", "frame", fb)


def _chk_partial_sum_identity(ctx, rng):
    """max_n |sum_{k <= n} g_k / k - e_n|, every partial sum from one running sum."""
    seq = ctx["seq"]
    d = seq.n_vectors
    sums = np.cumsum(seq.vectors * (1.0 / np.arange(1, d + 1)), axis=1)
    return float(np.max(np.linalg.norm(sums - np.eye(d), axis=0)))


def _chk_weak_certificate(ctx, rng):
    return ctx["weak_dual"].certificate_residual


def _chk_strong_residual_min(ctx, rng):
    seq = ctx["seq"]
    A = ctx["op"]
    d = seq.n_vectors
    f = 1.0 / np.arange(1, d + 1)
    coeffs = analysis(ctx["weak_dual"].as_frame_sequence(), f)
    sums = np.cumsum(seq.vectors[:, :d - 1] * coeffs[:d - 1], axis=1)  # partial sums n < d
    return float(np.min(np.linalg.norm(sums - A.apply(f)[:, None], axis=0)))


def _chk_pw_reconstruction(ctx, rng, signals=20):
    _at_least("pw_reconstruction", "signals", signals, 1)  # else nothing would be tested
    seq, psi, P = ctx["seq"], ctx["psi"], ctx["op"]
    u = P.projection.basis  # weighted-orthonormal basis of the band
    q = u.shape[1]
    coeffs = [rng.standard_normal(q) + 1j * rng.standard_normal(q) for _ in range(signals)]
    fs = _real_matmul(u, np.column_stack(coeffs))
    # sum_n inner(f, psi_n) phi_n with inner(f, psi_n) = ((W f)^H psi)^H, as float-view GEMMs
    # against a real family (no complex copy of it) and no conjugate copy of a complex one
    wf = seq.model.weights[:, None] * fs
    c = _real_matmul(np.conjugate(wf, out=wf).T, psi.vectors).conj().T  # N x signals
    del wf
    rec = _real_matmul(seq.vectors, c)
    rec -= fs
    return max_column_gap(rec, fs, seq.model.weights)


def _chk_kframe_alpha(ctx, rng):
    fb = kframe_bounds(ctx["seq"], ctx["op"])
    return _Found(fb.alpha, "bounds", "k_frame", fb)


def _chk_psi_in_range(ctx, rng):
    psi, P = ctx["psi"], ctx["op"]
    gap = P.apply_columns(psi.vectors)  # a new array
    gap -= psi.vectors
    return max_column_gap(gap, psi.vectors, psi.model.weights)


def _chk_multiplier_weak_duality(ctx, rng, pairs=20):
    """Worst weak-duality certificate over the context's pair and pairs - 1 fresh ones.  It reads
    exactly 0.0 by GEMM determinism: ``riesz_multiplier`` forms A as the product G T^H that the
    defect subtracts, from the same operands, so the two cancel bit for bit."""
    _at_least("multiplier_weak_duality", "pairs", pairs, 1)  # the context's is the first
    worst = verify_weak_duality(ctx["seq"], ctx["dual"], ctx["op"], trials=20)
    for _ in range(pairs - 1):
        fresh = _build_multiplier(rng, **ctx["params"])
        worst = max(worst, verify_weak_duality(fresh["seq"], fresh["dual"], fresh["op"], trials=20))
    return worst


def _chk_parseval_alpha_deviation(ctx, rng):
    traj = [(n, weak_aframe_bound(seq, A).alpha) for n, A, seq in ctx["truncations"]]
    return _Found(max(abs(v - 1.0) for _, v in traj), "trajectories", "weak_alpha", traj)


def _chk_bessel_square_deviation(ctx, rng):
    traj = [(n, frame_bounds(seq).beta) for n, _, seq in ctx["truncations"]]
    return _Found(max(abs(v - n**2) for n, v in traj), "trajectories", "bessel_bound", traj)


CHECKS: Dict[str, tuple] = {
    "weak_duality_residual": ("le", _chk_weak_duality_residual),
    "adjoint_decomposition_error": ("le", _chk_adjoint_decomposition_error),
    "decomposition_error_monotone": ("lt", _chk_decomposition_monotone),
    "weak_alpha": ("ge", _chk_weak_alpha),
    "derivative_match": ("le", _chk_derivative_match),
    "wavelet_derivative_match": ("le", _chk_derivative_gap),
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


_schema = functools.cache(load_schema)  # read once per process; never mutated


def _json_types(value) -> tuple:
    """The JSON Schema types of a Python value, as jsonschema tells them: a bool is no
    number, and a float with an integral value is an integer."""
    if isinstance(value, bool):
        return ("boolean",)
    if isinstance(value, dict):
        return ("object",)
    if isinstance(value, list):
        return ("array",)
    if isinstance(value, str):
        return ("string",)
    if isinstance(value, int) or isinstance(value, float) and value.is_integer():
        return ("integer", "number")
    return ("number",) if isinstance(value, numbers.Number) else ()


#: bound keyword -> (the comparison that breaks it, its message); NaN breaks none
_BOUNDS = {
    "minimum": (operator.lt, "is less than the minimum of"),
    "maximum": (operator.gt, "is greater than the maximum of"),
    "exclusiveMinimum": (operator.le, "is less than or equal to the minimum of"),
}
#: keyword -> the JSON type it constrains; JSON Schema ignores it on a value of any other
_APPLIES_TO = {"properties": "object", "required": "object", "additionalProperties": "object",
               "items": "array", "minItems": "array", "minLength": "string", "pattern": "string",
               **dict.fromkeys(_BOUNDS, "number")}
_ANNOTATIONS = {"$schema", "$id", "title", "description"}


def _violations(schema: dict, value, path=()):
    """(path, message) of each rule of a JSON Schema that value breaks, worded as jsonschema
    words it.  Only the keywords of scenario.schema.json, in the forms it uses them, are known:
    another raises KeyError."""
    types = _json_types(value)
    for keyword, rule in schema.items():
        if keyword == "type":
            if rule not in types:
                yield path, f"{value!r} is not of type {rule!r}"
        elif keyword in _ANNOTATIONS or _APPLIES_TO[keyword] not in types:
            continue
        elif keyword == "properties":
            for key, sub in rule.items():
                if key in value:
                    yield from _violations(sub, value[key], (*path, key))
        elif keyword == "required":
            yield from ((path, f"{key!r} is a required property") for key in rule
                        if key not in value)
        elif keyword == "additionalProperties" and rule is False:
            extra = sorted(value.keys() - schema.get("properties", {}).keys(), key=str)
            if extra:
                yield path, (f"Additional properties are not allowed ({', '.join(map(repr, extra))}"
                             f" {'was' if len(extra) == 1 else 'were'} unexpected)")
        elif keyword == "items":
            for i, item in enumerate(value):
                yield from _violations(rule, item, (*path, i))
        elif keyword in ("minLength", "minItems"):
            if len(value) < rule:
                yield path, f"{value!r} {'should be non-empty' if rule == 1 else 'is too short'}"
        elif keyword == "pattern":
            if not re.search(rule, value):
                yield path, f"{value!r} does not match {rule!r}"
        elif _BOUNDS[keyword][0](value, rule):
            yield path, f"{value!r} {_BOUNDS[keyword][1]} {rule!r}"


class _Missing(LookupError):
    """A context key that neither the construction nor the operator gave."""


class _Context(dict):
    """A scenario's inputs: reading a key that nothing gave raises _Missing, save "weak_dual",
    weak_a_dual(seq, op), formed on its first read."""

    def __missing__(self, key):
        if key != "weak_dual":
            raise _Missing(key)
        dual = self["weak_dual"] = weak_a_dual(self["seq"], self["op"])
        return dual


@functools.cache
def _defaults(fn) -> dict:
    """The params a scenario may give fn: those with a default, not keyword-only."""
    return {p.name: p.default for p in inspect.signature(fn).parameters.values()
            if p.kind is p.POSITIONAL_OR_KEYWORD and p.default is not p.empty}


@functools.cache
def _optional_zero(fn, key: str):
    """The zero value of X for fn's param key, annotated Optional[X] (Union[X, None]); a
    tuple X gives a 1-tuple of its items' zero value."""
    x = get_args(inspect.signature(fn, eval_str=True).parameters[key].annotation)[0]
    return (get_args(x)[0](),) if get_origin(x) is tuple else x()


def _typed(field: str, default, value):
    """value as a param with this default: of its exact type (a bool is never a number), save
    that a float takes an int or float that a finite float holds, stored as a float, and a tuple
    a list of its items' type (and length, for floats)."""
    if isinstance(default, tuple) and isinstance(value, (list, tuple)):
        if type(default[0]) is float and len(value) != len(default):
            raise InvalidScenario(f"{field} must have {len(default)} items, got {value!r}")
        return tuple(_typed(f"{field} item", default[0], v) for v in value)
    if type(default) is float:
        if type(value) in (int, float) and abs(value) <= sys.float_info.max:
            return float(value)
    elif type(value) is type(default):
        return value
    raise InvalidScenario(
        f"{field} must be {type(default).__name__} like {default!r}, got {value!r}")


def _filled(where: str, fn, given: dict) -> _Context:
    """fn's defaults, overridden by the given params once each name and type checks; a None
    default annotated Optional[X] takes null, or what ``_typed`` takes for X's zero value."""
    defaults = _defaults(fn)
    params = _Context(defaults)
    for key, value in given.items():
        if key not in defaults:
            raise InvalidScenario(f"{where} has no param {key!r}; valid: {sorted(defaults)}")
        default = defaults[key]
        if default is None and value is not None:
            default = _optional_zero(fn, key)
        params[key] = _typed(f"{where} param {key!r}", default, value)
    return params


def _refuse(violations, what="scenario"):
    """Raise the InvalidScenario of the error jsonschema.validate would raise: the
    shallowest, the later of siblings."""
    error = max(violations, key=lambda e: (-len(e[0]), e[0]), default=None)
    if error is not None:
        where = "/".join(map(str, error[0]))
        raise InvalidScenario(f"{what} schema violation{f' at {where!r}' if where else ''}: "
                              f"{error[1]}")


def validate_scenario(data: dict):
    """Check a scenario against the schema, the registries and each named function's
    params, before anything is built; return the filled construction and check params."""
    _refuse(_violations(_schema(), data))
    for i, chk in enumerate(data["checks"]):  # the schema's number takes NaN and Infinity
        if not abs(chk["tolerance"]) <= sys.float_info.max:
            raise InvalidScenario(f"'checks[{i}].tolerance' must be a finite number, "
                                  f"got {chk['tolerance']!r:.40}")
    spec = data["construction"]
    given = spec.get("params", {})
    if "sizes" in data:
        if "sizes" in given:
            raise InvalidScenario("'sizes' is given both at the top level and as a param")
        given = dict(given, sizes=data["sizes"])
    elif "sizes" in given:  # the param keeps the rule of the top-level field
        _refuse(_violations(_schema()["properties"]["sizes"], given["sizes"],
                            ("construction", "params", "sizes")), "construction param 'sizes'")
    params = _filled(f"construction {spec['name']!r}",
                     _lookup("construction", CONSTRUCTIONS, spec["name"]), given)
    if "operator" in data:
        spec = data["operator"]
        _filled(f"operator {spec['name']!r}", _lookup("operator", OPERATORS, spec["name"]),
                spec.get("params", {}))
    return params, [
        _filled(f"check {chk['name']!r}", _lookup("check", CHECKS, chk["name"])[1],
                chk.get("params", {}))
        for chk in data["checks"]
    ]


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
            "checks": [{"name": c.name, "value": c.value, "tolerance": c.tolerance,
                        "direction": c.direction, "pass": c.passed} for c in self.checks],
            "bounds": self.bounds,
            "trajectories": self.trajectories,
            "extras": self.extras,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


_PASSES = {"le": operator.le, "ge": operator.ge, "lt": operator.lt}
#: report section -> the JSON form of a _Found item in it
_REPORTED = {"bounds": lambda fb: {"alpha": fb.alpha, "beta": fb.beta, "kind": fb.kind},
             "trajectories": lambda traj: [[int(n), float(v)] for n, v in traj],
             "extras": lambda item: item}


def run_scenario(data: dict, seed: Optional[int] = None, tol_scale: float = 1.0) -> ScenarioReport:
    """Execute a validated scenario dict and return its report."""
    params, check_params = validate_scenario(data)
    start = time.perf_counter()
    used_seed = int(data.get("seed", 0) if seed is None else seed)
    rng = np.random.default_rng(used_seed)
    name = data["construction"]["name"]
    building = given = f"construction {name!r}"
    try:  # an OpframeError here is a scenario's, named by what was being built
        ctx = _Context(CONSTRUCTIONS[name](rng, **params), params=params)
        if "operator" in data:
            name = data["operator"]["name"]
            building = f"operator {name!r}"
            ctx["op"] = OPERATORS[name](ctx)
            given += f" with operator {name!r}"
    except InvalidScenario:
        raise
    except OpframeError as exc:
        raise InvalidScenario(f"{building}: {exc}") from exc
    report = {"bounds": {}, "trajectories": {}, "extras": ctx.pop("extras", {})}
    results = []
    for chk, chk_params in zip(data["checks"], check_params):
        direction, fn = CHECKS[chk["name"]]
        tol = float(chk["tolerance"]) * tol_scale
        try:
            value = fn(ctx, rng, **chk_params)
        except _Missing as exc:
            raise InvalidScenario(
                f"check {chk['name']!r} needs {exc.args[0]!r}, which {given} does not give"
            ) from None
        if isinstance(value, _Found):
            report[value.section][value.key] = _REPORTED[value.section](value.item)
            value = value.value
        value = float(value)
        results.append(
            CheckResult(chk["name"], value, tol, direction, _PASSES[direction](value, tol))
        )
    return ScenarioReport(data["name"], __version__, REPORT_SCHEMA_VERSION, used_seed,
                          time.perf_counter() - start, results, **report)


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
    path = resources.files("opframe.data").joinpath(_lookup("example", _BUNDLED_FILES, name))
    with path.open() as fh:
        return json.load(fh)
