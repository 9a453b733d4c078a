import numpy as np
import pytest

from opframe._linalg import (
    _classify,
    _real_matmul,
    adjoint_matrix,
    as_complex_vector,
    factor,
    max_column_gap,
)
from opframe.hilbert import HilbertModel, Subspace, l2_truncation, norm
from opframe.opmodel import OperatorModel
from opframe.scenarios import load_bundled, run_scenario
from opframe.seqops import FrameSequence


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def linalg_calls(monkeypatch):
    """count(name) wraps numpy.linalg.<name> for the test and returns the
    list of (args, kwargs) of its calls.  What a solver asks LAPACK for is
    the same on every machine, unlike its timings."""

    def count(name):
        calls = []
        original = getattr(np.linalg, name)

        def counted(*args, **kwargs):
            calls.append((args, kwargs))
            return original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
        return calls

    return count


def factor_of(mat, *args, scale=None, **kwargs):
    """``_linalg.factor`` of y = scale mat with the record ``_classify`` gives y, as the package
    classifies a matrix it builds."""
    return factor(mat, _classify(mat, scale), *args, scale=scale, **kwargs)


def random_vector(rng, dim):
    return rng.standard_normal(dim) + 1j * rng.standard_normal(dim)


def random_matrix(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def random_weighted_model(rng, dim, label="weighted"):
    return HilbertModel(dim, 0.25 + rng.random(dim), label)


def random_frame(rng, dim, n_cols, model=None):
    """A random spanning family (full rank with probability one)."""
    model = model or l2_truncation(dim)
    return FrameSequence(model, random_matrix(rng, dim, n_cols))


def reproduce(name):
    """The report of a bundled scenario, as ``opframe reproduce <name>`` makes it."""
    return run_scenario(load_bundled(name))


def identity_operator(model):
    """The identity as the projection onto the whole space: no dim x dim array is stored."""
    return OperatorModel(None, model, model, name="identity", projection=Subspace.full(model))


def half_cosine_window(pts):
    """1 + cos(pi x)/2 on [0, 2]: bounded below but not unit-periodic."""
    return np.where((pts >= 0.0) & (pts < 2.0), 1.0 + 0.5 * np.cos(np.pi * pts), 0.0)


# -- the paper's literal definitions, which the package applies only in factored
# form (the solvers through _linalg.adjoint_matrix, a_dual_graph through the
# (I + A^H A) solve), as oracles for the tests

#: relative tolerance deciding approximate membership f in a Subspace
MEMBERSHIP_RTOL = 1e-8


class DomainViolation(Exception):
    """Raised when a vector lies outside a declared operator domain."""


def inner(model, f, g) -> complex:
    """Weighted inner product, linear in f and conjugate-linear in g."""
    f = as_complex_vector(f, model.dim)
    g = as_complex_vector(g, model.dim)
    return complex(np.sum(model.weights * f * np.conj(g)))


def violation(sub, f) -> float:
    """norm(f - P f), the distance of f from the subspace sub."""
    f = as_complex_vector(f, sub.ambient.dim)
    if sub.is_full:
        return 0.0
    return norm(sub.ambient, f - sub.project(f))


def contains(sub, f, rtol=MEMBERSHIP_RTOL) -> bool:
    nf = norm(sub.ambient, f)
    return violation(sub, f) <= rtol * max(nf, 1e-300)


def require_member(sub, f, what="vector", rtol=MEMBERSHIP_RTOL):
    if not contains(sub, f, rtol):
        raise DomainViolation(f"{what} lies outside the declared subspace")


def adjoint(op):
    """Weighted adjoint W_in^-1 M^H W_out with the declared adjoint domain.

    The pairing inner(op f, u) == inner(f, adjoint(op) u) holds exactly for
    f in D(op), u anywhere; the declared adjoint domain only restricts where
    the adjoint's action is trusted.
    """
    m_adj = adjoint_matrix(
        op.effective_matrix(), op.codomain.weights, op.input_model.weights
    )
    return OperatorModel(
        m_adj,
        input_model=op.codomain,
        codomain=op.input_model,
        domain=op.adjoint_domain,
        adjoint_domain=op.domain,
        name=f"{op.name}*" if op.name else "adjoint",
    )


def graph_inner(A, f, g) -> complex:
    """Graph inner product inner(f, g) + inner(Af, Ag) on the domain of A.

    Both arguments must lie in D(A) up to the membership tolerance.
    """
    dom = A.domain_subspace
    require_member(dom, f, "f")
    require_member(dom, g, "g")
    af = A.apply(f)
    ag = A.apply(g)
    return inner(A.input_model, f, g) + inner(A.codomain, af, ag)


# -- the certificates as they were read before the block reduction: every sample block
# concatenated into one array, as oracles that the block-by-block reading must match bit for bit


def concatenated(mat, coeffs):
    """mat [I | coeffs], formed whole."""
    return mat if coeffs is None else np.concatenate([mat, mat @ coeffs], axis=1)


def concatenated_weak_duality(seq, dual, A, trials=100, hs=None, us=None):
    """``verify_weak_duality`` with [I | Ru]^H D [I | Rh] formed whole and divided by the
    whole outer product of the sample norms."""
    rng, dom, adom = np.random.default_rng(0), A.domain_subspace, A.adjoint_domain_subspace
    if hs is None:
        rh, ah, th = dom.sample_coords(rng, trials), A.domain_whitened(), dom.coords(dual.vectors)
    else:
        hs, w = np.asarray(hs, dtype=complex), seq.model.weights
        rh, ah = None, seq.model.sqrt_weights[:, None] * A.apply_columns(hs)
        th = (w[:, None] * hs).conj().T @ dual.vectors
    defect = concatenated(adom.whitened_coords(ah) - adom.coords(seq.vectors) @ th.conj().T, rh)
    if us is None:
        ru = adom.sample_coords(rng, trials)
        res = np.concatenate([defect, ru.conj().T @ defect])
        n_u = np.concatenate([np.ones(adom.rank), np.linalg.norm(ru, axis=0)])
    else:
        cu = adom.coords(np.asarray(us, dtype=complex).reshape(seq.model.dim, -1))
        res, n_u = cu.conj().T @ defect, np.linalg.norm(cu, axis=0)
    n_ah = np.linalg.norm(concatenated(ah, rh), axis=0)
    return float(np.max(np.abs(res) / (np.outer(n_u, n_ah) + 1e-300)))


def concatenated_expansion(seq, K, k_vecs, graph=False):
    """``relframes._expansion_certificate`` with D [I | R] and W^(1/2) K V [I | R] formed whole
    and passed to ``max_column_gap`` as one block each."""
    sub, kv = K.domain_subspace, K.domain_whitened()
    coeffs = sub.sample_coords(np.random.default_rng(0), 100)
    c0 = sub.coords(k_vecs).conj().T
    if graph:
        ak = K.apply_columns(k_vecs)
        c0 = c0 + ((K.codomain.sqrt_weights[:, None] * kv).conj().T @ ak).conj().T
    defect = seq.model.sqrt_weights[:, None] * _real_matmul(seq.vectors, c0) - kv
    return max_column_gap(concatenated(defect, coeffs), concatenated(kv, coeffs),
                          np.ones(kv.shape[0]))
