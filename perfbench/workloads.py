"""Seeded workloads of the opframe benchmark and their correctness gates.

Each workload turns a seed into a fixed list of operations.  ``execute``
runs one operation through opframe and is what the benchmark times;
``check`` validates its output and raises :class:`OpFailed` when the output
is wrong.  The program receives only the generated inputs.

Workloads:

* ``paper_suite``: one operation reproduces all eight bundled scenarios
  through ``opframe.cli.main``, as a user of the tool does.  Large dense
  kernels (whitening, full SVDs, pencil bounds) dominate.
* ``scenario_stream``: a stream of small valid scenario dicts (d <= 256)
  derived from the bundled examples with random params, sizes and seeds.
  Per-scenario fixed cost dominates: schema validation, construction,
  Python loops in checks and many small LAPACK calls.
* ``dual_roundtrip``: library-level dual constructions at mid sizes
  (d = 128..512), each round-tripped through ``serialize.dumps``/``loads``
  and checked after decoding.
"""

from __future__ import annotations

import contextlib
import copy
import io
import itertools
import json
import math
import time
from pathlib import Path

import numpy as np

from opframe import cli, constructions, hilbert, opmodel, relframes, scenarios
from opframe import seqops, serialize, weakframes
from tracing import CHECK, maybe_span

REFERENCE = Path(__file__).with_name("reference") / "paper_suite.json"

#: report values (timing fields excluded) must satisfy
#: |actual - expected| <= RTOL * |expected| + ATOL.  ATOL covers residuals
#: at roundoff level, which move with the BLAS thread count.
RTOL = 1e-6
ATOL = 1e-10
TIMING_FIELDS = ("wall_clock_s",)
#: placeholder, in the reference for other seeds, of a value that depends on the seed
SEED_DEPENDENT = "<seed-dependent>"

#: certificate and reconstruction residual accepted for a dual
DUAL_CERT_MAX = 1e-8
#: random vectors the decoded canonical dual must reconstruct
CANONICAL_PROBES = 4


class OpFailed(Exception):
    """An operation gave a wrong or unverifiable result."""


def strip_timing(report: dict) -> dict:
    return {k: v for k, v in report.items() if k not in TIMING_FIELDS}


def mismatches(actual, expected, path="", rtol=RTOL, atol=ATOL):
    """Paths at which two JSON-like values differ beyond the tolerance."""
    if expected == SEED_DEPENDENT:
        return []
    if isinstance(expected, dict):
        if not isinstance(actual, dict) or set(actual) != set(expected):
            return [f"{path}: keys differ"]
        out = []
        for key in sorted(expected):
            out += mismatches(actual[key], expected[key], f"{path}/{key}", rtol, atol)
        return out
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            return [f"{path}: lengths differ"]
        out = []
        for i, (a, e) in enumerate(zip(actual, expected)):
            out += mismatches(a, e, f"{path}[{i}]", rtol, atol)
        return out
    if isinstance(expected, bool) or isinstance(expected, str) or expected is None:
        return [] if actual == expected else [f"{path}: {actual!r} != {expected!r}"]
    if isinstance(expected, (int, float)) and isinstance(actual, (int, float)):
        if math.isnan(expected) and math.isnan(actual):
            return []
        if abs(actual - expected) <= rtol * abs(expected) + atol:
            return []
    return [f"{path}: {actual!r} != {expected!r}"]


# -- paper_suite ------------------------------------------------------------


class PaperSuite:
    name = "paper_suite"
    #: operations per block: the smallest stretch holding the workload's mix
    block = 1

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.names = list(scenarios.REPRODUCE_NAMES)
        self.ops = [tuple((name, seed) for name in self.names)]
        self._reference = None
        self._first = {}
        self.scenario_ms = {name: [] for name in self.names}

    def describe(self):
        sizes = {}
        for name in self.names:
            params = scenarios.load_bundled(name)["construction"].get("params", {})
            sizes[name] = {k: v for k, v in params.items() if k in ("d", "pts_per_cell", "cells")}
        return {"op": "opframe reproduce of all 8 bundled scenarios",
                "seed": self.seed, "sizes": sizes}

    def execute(self, op, tracer=None):
        codes = {}
        sink = io.StringIO()
        for name, seed in op:
            out = self.workdir / f"{name}.report.json"
            argv = ["reproduce", name, "--out", str(out), "--seed", str(seed)]
            with maybe_span(tracer, f"bench.scenario.{name}"), contextlib.redirect_stdout(sink):
                t0 = time.perf_counter()
                codes[name] = cli.main(argv)
                self.scenario_ms[name].append(1e3 * (time.perf_counter() - t0))
        return codes

    def check(self, op, codes):
        for name, _ in op:
            if codes[name] != 0:
                raise OpFailed(f"{name}: exit code {codes[name]}")
            report = self.report(name)
            if not all(c["pass"] for c in report["checks"]):
                raise OpFailed(f"{name}: a check failed")
            bad = mismatches(report, self.expected(name))
            if bad:
                raise OpFailed(f"{name}: differs from the frozen reference at {bad[:3]}")
            first = self._first.setdefault(name, report)
            bad = mismatches(report, first)
            if bad:
                raise OpFailed(f"{name}: differs from this run's first report at {bad[:3]}")

    def report(self, name):
        """The last report written for `name`, without timing fields."""
        return strip_timing(json.loads((self.workdir / f"{name}.report.json").read_text()))

    def expected(self, name):
        """The frozen report; at other seeds, its values that no seed changes."""
        if self._reference is None:
            self._reference = json.loads(REFERENCE.read_text())
        ref = self._reference
        return ref["reports" if self.seed == ref["seed"] else "any_seed"][name]


# -- scenario_stream ----------------------------------------------------------


class Balanced:
    """Seeded picks in which every value of a choice appears equally often.

    Each key draws from its own shuffled deck holding every value once; an
    empty deck is refilled.  The values a template draws jointly are the
    combinations of its size parameters, so any stretch of the stream
    holds a near-even mix of sizes, which keeps run-to-run spread low while
    the seed still changes every input.
    """

    def __init__(self, rng):
        self.rng = rng
        self.decks = {}

    def __call__(self, key, values):
        deck = self.decks.setdefault(key, [])
        if not deck:
            deck.extend(self.rng.permutation(len(values)).tolist())
        return values[deck.pop()]


def _grid(*axes):
    return list(itertools.product(*axes))


def _bundled(name):
    return copy.deepcopy(scenarios.load_bundled(name))


def _exm1(pick):
    # d = 256 only: at d <= 128 weak_duality_residual exceeds its 1e-3 tolerance
    data = _bundled("exm1")
    b, label_range = pick("exm1", _grid([0.5, 1.0], [32, 40, 48]))
    data["construction"]["params"].update(b=b, label_range=label_range, d=256)
    return data


def _exm2(pick):
    # derivative_match needs h <= 1/64 here: d = 256 on [-2, 2], one modulation
    data = _bundled("exm2")
    window, m_range = pick("exm2", _grid(["gaussian", "cosine_bump"], [1, 2]))
    data["construction"]["params"].update(
        window=window, b=0.25, m_range=m_range, n_range=1, d=256, x0=-2.0, x1=2.0,
    )
    return data


def _wavelet(pick):
    data = _bundled("wavelet")
    data["construction"]["params"].update(m_range=0, n_range=1, d=256, x0=-2.0, x1=2.0)
    return data


def _not_frame(pick):
    data = _bundled("not_frame")
    cells, p = pick("not_frame", _grid([1, 2, 3, 4], [8, 16, 32]))
    data["construction"]["params"].update(cells=cells, pts_per_cell=p, n_range=p // 2)
    return data


def _difference(pick):
    data = _bundled("difference")
    data["construction"]["params"]["d"] = pick("difference", [32, 64, 96, 128, 192, 256])
    return data


def _multiplier(pick):
    data = _bundled("multiplier")
    d, pairs = pick("multiplier", _grid([16, 32, 48, 64], [2, 5, 10]))
    cond_max = float(pick.rng.choice([2.0, 5.0, 10.0]))
    data["construction"]["params"].update(d=d, cond_max=cond_max)
    data["checks"][0]["params"]["pairs"] = pairs
    return data


#: truncation sizes of the parseval_trajectory variants
PARSEVAL_SIZES = ([8, 16, 32], [16, 32, 64], [32, 64, 128], [8, 16, 24, 32, 48],
                  [24, 48, 96], [16, 32, 64, 128])


def _parseval(pick):
    data = _bundled("parseval_trajectory")
    data["sizes"] = list(pick("parseval", PARSEVAL_SIZES))
    return data


def _pw(pick):
    data = _bundled("pw_quarter")
    (d, L), signals = pick("pw", _grid(
        [(64, 16), (128, 16), (128, 32), (256, 16), (256, 32), (256, 64)], [5, 10, 20]))
    data["construction"]["params"].update(d=d, L=L)
    data["checks"][0]["params"]["signals"] = signals
    return data


#: bundled example -> (generator of small valid variants, share of rounds).
#: exm1 is in one round of five: at d = 256 one exm1 scenario costs about
#: as much as ten of the others, and this workload measures per-scenario
#: fixed cost.
STREAM_TEMPLATES = {
    "pw_quarter": (_pw, 1),
    "exm1": (_exm1, 5),
    "exm2": (_exm2, 1),
    "wavelet": (_wavelet, 1),
    "not_frame": (_not_frame, 1),
    "difference": (_difference, 1),
    "multiplier": (_multiplier, 1),
    "parseval_trajectory": (_parseval, 1),
}
#: rounds in one pass of the stream; 40 rounds give 288 scenarios
STREAM_ROUNDS = 40
#: rounds in one block, which holds every template in its share
STREAM_BLOCK_ROUNDS = 5


class ScenarioStream:
    name = "scenario_stream"

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng([seed, 1])
        pick = Balanced(rng)
        self.ops = []
        # every round holds one scenario of each template in its share of
        # rounds, so any stretch of the stream has nearly the full mix
        for r in range(STREAM_ROUNDS):
            labels = [name for name, (_, every) in STREAM_TEMPLATES.items() if r % every == 0]
            for i in rng.permutation(len(labels)):
                data = STREAM_TEMPLATES[labels[i]][0](pick)
                data["name"] = f"stream_{labels[i]}"
                data["seed"] = int(rng.integers(2**31))
                self.ops.append((labels[i], data))
        self.block = len(self.ops) * STREAM_BLOCK_ROUNDS // STREAM_ROUNDS
        self._first = {}

    def describe(self):
        ds = [_scenario_size(data) for _, data in self.ops]
        return {"op": "scenarios.run_scenario of one small scenario dict",
                "scenarios": len(self.ops), "templates": sorted(STREAM_TEMPLATES),
                "d_max": max(ds), "d_median": float(np.median(ds))}

    def execute(self, op, tracer=None):
        label, data = op
        with maybe_span(tracer, f"bench.scenario.{label}"):
            return scenarios.run_scenario(data)

    def check(self, op, report):
        if not report.all_passed:
            failed = [c.name for c in report.checks if not c.passed]
            raise OpFailed(f"{op[1]['name']}: checks failed: {failed}")
        values = strip_timing(report.to_dict())
        first = self._first.setdefault(id(op[1]), values)
        bad = mismatches(values, first)
        if bad:
            raise OpFailed(f"{op[1]['name']}: not reproducible: {bad[:3]}")


def _scenario_size(data):
    params = data["construction"].get("params", {})
    if "sizes" in data:
        return max(data["sizes"])
    if "cells" in params:
        return 2 * params["cells"] * params["pts_per_cell"]
    return params.get("d", 0)


# -- dual_roundtrip -------------------------------------------------------------

#: kind -> (mid sizes d, operator variants, ops per block of the stream).
#: Each (size, variant) pair of a kind appears equally often.  Encoding and
#: decoding a d x N dual as JSON costs about as much as constructing it, at
#: every size, for every kind whose dual lives on the d-point grid: their
#: serialize share stays between 0.5 and 0.9 from d = 128 to 512.  k_dual,
#: whose dual lives on a small input model, spends about a quarter of its
#: time in serialize, so it runs at the largest sizes and takes half of each
#: block, which leaves construction, not serialize, most of the busy time.
#: A block holds every pair of k_dual and weak_a_dual.
DUAL_KINDS = {
    "canonical": ((128,), 1, 1),
    "k_dual": ((256, 384, 512), 2, 6),
    "a_dual_graph": ((128,), 4, 2),
    "weak_a_dual": ((128,), 2, 2),
    "interchange": ((128,), 1, 1),
}
DUAL_BLOCKS = 12


def _random_matrix(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def _frame(d, extra):
    """Sampled exponentials e_n(x) = exp(2 pi i n x), |n| <= d/2 + extra, on [0, 1).

    With more than d columns the system is a frame of the d-point grid model
    with bounds 1 and 2.
    """
    return constructions.exponential_system(1.0, d // 2 + extra, hilbert.interval_grid(d))


def _orthonormal_domain(rng, model, rank):
    return hilbert.orthonormalize(_random_matrix(rng, model.dim, rank), model)


class DualRoundtrip:
    name = "dual_roundtrip"
    block = sum(per_block for _, _, per_block in DUAL_KINDS.values())

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng([seed, 2])
        pick = Balanced(rng)
        self.ops = []
        for _ in range(DUAL_BLOCKS):
            kinds = [k for k, (_, _, per_block) in DUAL_KINDS.items() for _ in range(per_block)]
            for i in rng.permutation(len(kinds)):
                kind = kinds[i]
                sizes, variants, _ = DUAL_KINDS[kind]
                d, variant = pick(kind, [(d, v) for d in sizes for v in range(variants)])
                self.ops.append({
                    "kind": kind,
                    "d": d,
                    "variant": variant,
                    "extra": int(rng.integers(4, 17)),
                    "seed": int(rng.integers(2**31)),
                })

    def describe(self):
        return {"op": "build a family and operator, construct and certify a dual, "
                      "round-trip it through serialize",
                "ops": len(self.ops),
                "sizes": {k: list(sizes) for k, (sizes, _, _) in DUAL_KINDS.items()}}

    def execute(self, op, tracer=None):
        rng = np.random.default_rng(op["seed"])
        d, kind = op["d"], op["kind"]
        seq = _frame(d, op["extra"])
        grid = seq.model
        if kind == "canonical":
            dual = seqops.canonical_dual(seq)
        elif kind == "k_dual":
            # K: J -> H on a small input model, declared on an orthonormalized domain
            q = (32, 48)[op["variant"]]
            J = hilbert.l2_truncation(q)
            dom = _orthonormal_domain(rng, J, q // 2)
            K = opmodel.OperatorModel(_random_matrix(rng, d, q), J, grid, domain=dom)
            dual = relframes.k_dual(seq, K)
        elif kind == "a_dual_graph":
            if op["variant"] < 3:
                A = opmodel.diff_operator(grid, ("minus_i_ddx_H10", "minus_i_ddx_periodic",
                                                 "minus_i_ddx_H1")[op["variant"]])
            else:
                dom = _orthonormal_domain(rng, grid, d // 8)
                A = opmodel.OperatorModel(_random_matrix(rng, d, d), grid, grid, domain=dom)
            dual = relframes.a_dual_graph(seq, A)
        elif kind == "weak_a_dual":
            if op["variant"]:
                A = opmodel.diff_operator(grid, "minus_i_ddx_H1")
            else:
                adom = _orthonormal_domain(rng, grid, d // 8)
                A = opmodel.OperatorModel(_random_matrix(rng, d, d), grid, grid,
                                          adjoint_domain=adom)
            dual = weakframes.weak_a_dual(seq, A)
        else:  # interchange: {h_n} reconstructs every u from its coefficients
            M = np.eye(d) + 0.3 * _random_matrix(rng, d, d) / np.sqrt(d)
            A = opmodel.OperatorModel(M, grid, grid)
            dual = weakframes.interchange_dual(seq, weakframes.weak_a_dual(seq, A), A)
        kind_name = "frame_sequence" if kind == "canonical" else "dual_sequence"
        back = serialize.loads(serialize.dumps(dual, kind_name), kind_name)
        return seq, dual, back

    def check(self, op, result):
        seq, dual, back = result
        where = f"{op['kind']} d={op['d']}"
        if not (np.array_equal(back.vectors, dual.vectors)
                and np.array_equal(back.model.weights, dual.model.weights)):
            raise OpFailed(f"{where}: serialize round trip changed the dual")
        if isinstance(dual, seqops.FrameSequence):
            # the decoded canonical dual reconstructs random vectors through seq
            rng = np.random.default_rng(op["seed"])
            for _ in range(CANONICAL_PROBES):
                f = _random_matrix(rng, op["d"], 1)[:, 0]
                _, residual = seqops.reconstruct(seq, back, f)
                if not residual <= DUAL_CERT_MAX:
                    raise OpFailed(f"{where}: decoded dual reconstructs with "
                                   f"residual {residual:.3e}")
            return
        if back.producer != dual.producer or not (
            back.certificate_residual == dual.certificate_residual
        ):
            raise OpFailed(f"{where}: round trip changed the metadata")
        if not dual.certificate_residual <= DUAL_CERT_MAX:
            raise OpFailed(f"{where}: certificate residual {dual.certificate_residual:.3e}")


WORKLOADS = {w.name: w for w in (PaperSuite, ScenarioStream, DualRoundtrip)}
