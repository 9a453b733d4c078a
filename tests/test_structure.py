"""The one structure rule: ``_linalg._classify`` decides a family's arithmetic once, into a
record that matches the brute-force definitions, and no bound or dual scans the family again."""

import sys

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from opframe import _linalg
from opframe._linalg import _classify, gram_form
from opframe.constructions import exponential_system
from opframe.hilbert import interval_grid, l2_truncation
from opframe.opmodel import OperatorModel, diff_operator
from opframe.relframes import k_dual, kframe_bounds, range_inclusion
from opframe.seqops import frame_bounds
from opframe.weakframes import weak_aframe_bound

from conftest import random_matrix

KINDS = ("real", "real_valued", "imaginary", "mirror", "parity", "general")


def _reflected(rng, d, cols):
    """d x cols real, each column even or odd under k -> d-1-k (an odd one zero on an odd d's
    middle row)."""
    top, odd = rng.standard_normal((d // 2, cols)), rng.random(cols) < 0.5
    mid = np.where(odd, 0.0, rng.standard_normal(cols))[None, :][:d % 2]
    return np.concatenate([top, mid, np.where(odd, -1.0, 1.0) * top[::-1]])


def _family(rng, kind, d, n, sign):
    """d x n of the kind; a mirrored one has column n-1-j = sign conj(column j), with a real
    (sign +1) or imaginary (sign -1) middle column when n is odd."""
    if kind in ("real", "real_valued", "imaginary"):
        b = rng.standard_normal((d, n))
        return {"real": b, "real_valued": b + 0j, "imaginary": 1j * b}[kind]
    if kind == "general":
        return random_matrix(rng, d, n)
    h = n // 2
    if kind == "mirror":
        a, mid = random_matrix(rng, d, h), rng.standard_normal((d, n % 2))
    else:  # parity: every column of the parts even or odd under the row reflection
        a, mid = _reflected(rng, d, h) + 1j * _reflected(rng, d, h), _reflected(rng, d, n % 2)
    return np.concatenate([a, mid * (1.0 if sign > 0 else 1j), sign * a[:, ::-1].conj()], axis=1)


def _brute(y):
    """(phase, sign, even) of y from the definitions, each tested on the whole of y: a real
    dtype is real already, and a mirror needs a pair of columns."""
    if np.isrealobj(y):
        return 1.0, 0.0, None
    phase = 1.0 if np.all(y.imag == 0) else 1j if np.all(y.real == 0) else None
    sign = next((s for s in (1.0, -1.0)
                 if y.shape[1] > 1 and np.array_equal(y[:, ::-1], s * y.conj())), 0.0)
    if not sign or y.shape[0] < 2:
        return phase, sign, None
    h, n = y.shape[1] // 2, y.shape[1]
    parts = np.concatenate([y[:, :h].real, y[:, :h].imag,
                            y[:, h:n - h].real + y[:, h:n - h].imag], axis=1)
    even = np.all(parts == parts[::-1], axis=0)
    odd = np.all(parts == -parts[::-1], axis=0)
    return phase, sign, even if np.all(even | odd) else None


def _selection(rng, d, form):
    """Sorted row indices: all (None), a set symmetric under k -> d-1-k holding a pair of rows
    (and maybe the middle one), or that set with one row of a pair dropped or added."""
    if form == "none" or d < 2:
        return None
    pairs = np.flatnonzero(rng.random(d // 2) < 0.5)
    pairs = pairs if pairs.size else rng.integers(d // 2, size=1)
    index = np.union1d(pairs, d - 1 - pairs)
    if d % 2 and rng.random() < 0.5:
        index = np.union1d(index, [d // 2])
    if form == "asymmetric":
        index = np.setxor1d(index, rng.integers(d // 2, size=1))
    return index


@settings(max_examples=200, deadline=None)
@given(kind=st.sampled_from(KINDS), d=st.integers(1, 64), half=st.integers(0, 20),
       odd_n=st.booleans(), sign=st.sampled_from([1.0, -1.0]), mirrored_scale=st.booleans(),
       rows=st.sampled_from(["none", "symmetric", "asymmetric"]),
       seed=st.integers(0, 2**32 - 1))
def test_record_is_the_brute_force_one(kind, d, half, odd_n, sign, mirrored_scale, rows, seed):
    """The record of (mat, scale), restricted to a row selection by ``_Structure.rows``, is that
    of the brute-force definitions on y = scale mat itself, and ``gram_form`` reads from it a
    z with z z^T = y y^H, real whenever the record allows."""
    rng = np.random.default_rng(seed)
    n = max(2 * half + odd_n, 2 if kind in ("mirror", "parity") else 1)
    mat = _family(rng, kind, d, n, sign)
    if mirrored_scale:
        top = 0.25 + rng.random(d - d // 2)
        scale = np.concatenate([top, top[:d // 2][::-1]])
    else:
        scale = 0.25 + rng.random(d)
    record, index = _classify(mat, scale), _selection(rng, d, rows)
    if index is not None:
        record, mat, scale = record.rows(index, d), mat[index], scale[index]
    y = scale[:, None] * mat
    phase, s, even = _brute(y)
    assert (record.phase, record.sign) == (phase, s)
    assert (record.even is None) == (even is None)
    assert even is None or np.array_equal(record.even, even)
    z = gram_form(mat, record, scale)
    assert np.isrealobj(z) == (record.phase is not None or record.sign != 0.0)
    gram = y @ y.conj().T
    assert np.linalg.norm(z @ z.conj().T - gram) <= 1e-13 * max(np.linalg.norm(gram), 1e-300)


def test_a_family_is_classified_once(rng, monkeypatch):
    """One family through every bound, the range test and the K-dual, and one dual's Bessel
    bound read twice: each is classified exactly once; the only other records are those of
    the operators' whitened coordinates, built by the bounds."""
    grid = interval_grid(16)
    assert exponential_system(1.0, 20, grid)._structure.even is not None  # reflection parity
    seq = exponential_system(1.0, 20, grid)  # 16 x 41
    K = OperatorModel(random_matrix(rng, 16, 6), l2_truncation(6), grid)
    A = diff_operator(grid, "minus_i_ddx_H1")
    calls, original = [], _linalg._classify

    def counted(mat, *args, **kwargs):
        calls.append(mat)
        return original(mat, *args, **kwargs)

    for module in [m for name, m in sys.modules.items() if name.startswith("opframe")]:
        if getattr(module, "_classify", None) is original:
            monkeypatch.setattr(module, "_classify", counted)
    frame_bounds(seq)
    kframe_bounds(seq, K)
    weak_aframe_bound(seq, A)
    range_inclusion(K, seq)
    dual = k_dual(seq, K)
    family = [m for m in calls if np.shares_memory(m, seq.vectors)]
    assert len(family) == 1 and family[0] is seq.vectors
    assert all(m.shape != seq.vectors.shape for m in calls if m is not seq.vectors)
    del calls[:]
    assert dual.bessel_bound == dual.bessel_bound > 0.0
    assert len(calls) == 1 and calls[0] is dual.vectors
