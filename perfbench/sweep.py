"""Grid-size sweep of the three bound solvers, with a fitted scaling exponent.

Each solver is timed once per grid size d, untraced, on the operator of the
scenario that uses it:

* ``kframe_bounds``: the quarter-band projection of pw_quarter (L = 64);
* ``weak_aframe_bound``: the exm1 operator -i d/dx with the exponential
  derivative family resolving the grid;
* ``aframe_bounds_graph``: the two-cell fold operator of not_frame.

``sweep.<function>.exponent`` is the least-squares slope of log(time)
against log(d).  kframe_bounds runs up to d = 4096.  The other two solvers
take full dense SVDs of d x d matrices; on a 2-core machine
weak_aframe_bound needs about 7 s at d = 1024 and 40 s at d = 2048, and
aframe_bounds_graph about 15 s at d = 2048, so both stop at d = 1024 to
keep a traced run well under the benchmark's time limit per run.
"""

from __future__ import annotations

import time

import numpy as np

from opframe import constructions, hilbert, opmodel, relframes, scenarios, weakframes

SIZES = {
    "kframe_bounds": (512, 1024, 2048, 4096),
    "weak_aframe_bound": (256, 512, 1024),
    "aframe_bounds_graph": (256, 512, 1024),
}


def _kframe(d):
    grid = hilbert.window_grid(d, -32.0, 32.0)
    phi, _, P = constructions.pw_example(grid)
    return lambda: relframes.kframe_bounds(phi, P), "k_frame"


def _weak(d):
    grid = hilbert.interval_grid(d)
    seq = constructions.exponential_system(0.5, d, grid, derivative=True)
    A = opmodel.diff_operator(grid, "minus_i_ddx_H1")
    return lambda: weakframes.weak_aframe_bound(seq, A), "weak_a_frame"


def _graph(d):
    alphas = np.array([1.5, 1.25 + 0.5j])
    A = opmodel.block_multiplier(alphas, d // 4)
    seq = constructions.gabor_system(
        scenarios.WINDOWS["fold_symmetric"][0], 2.0, 1.0, 0, d // 8, A.input_model,
        m_values=[0, 1],
    )
    return lambda: relframes.aframe_bounds_graph(seq, A), "graph_a_frame"


CASES = {"kframe_bounds": _kframe, "weak_aframe_bound": _weak,
            "aframe_bounds_graph": _graph}


def exponent(ds, seconds):
    slope, _ = np.polyfit(np.log(ds), np.log(seconds), 1)
    return float(slope)


#: solves below this many seconds are repeated (up to 3 times, median taken)
REPEAT_BELOW_S = 1.0


def run():
    """Time every solver at every size; returns (metrics, all bounds valid)."""
    metrics = {}
    ok = True
    for name, ds in SIZES.items():
        CASES[name](ds[0])[0]()  # warm-up: first-call costs are not scaling
        times = []
        for d in ds:
            call, kind = CASES[name](d)
            samples = []
            while len(samples) < 3 and sum(samples) < REPEAT_BELOW_S:
                t0 = time.perf_counter()
                fb = call()
                samples.append(time.perf_counter() - t0)
                ok = ok and fb.kind == kind and fb.alpha > 0.0
            times.append(float(np.median(samples)))
            metrics[f"sweep.{name}.d{d}.s"] = {"value": times[-1], "unit": "s",
                                               "n": len(samples)}
            del call
        metrics[f"sweep.{name}.exponent"] = {"value": exponent(ds, times), "unit": "ratio"}
    return metrics, ok
