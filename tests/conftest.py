import numpy as np
import pytest

from opframe.hilbert import HilbertModel, l2_truncation
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
