"""Self-tests of the test oracles in conftest.py: the paper's literal definitions that the
package applies only in factored form.  Nothing here covers the package beyond the calls an
oracle makes into it (``Subspace.project``, ``hilbert.norm``)."""

import numpy as np
import pytest

from opframe.hilbert import Subspace, interval_grid, l2_truncation
from opframe.opmodel import diff_operator

from conftest import DomainViolation, contains, require_member


class TestMembership:
    def test_membership_tolerance(self):
        m = l2_truncation(4)
        sub = Subspace(m, np.eye(4, dtype=complex)[:, :2])
        inside = np.array([1.0, 2.0, 0, 0])
        assert contains(sub, inside)
        assert not contains(sub, inside + np.array([0, 0, 1e-4, 0]))

    def test_outside_adjoint_domain_raises(self):
        # the decomposition holds on D(A*), the Dirichlet subspace here,
        # which the constant function misses
        A = diff_operator(interval_grid(64), "minus_i_ddx_H1")
        with pytest.raises(DomainViolation):
            require_member(A.adjoint_domain_subspace, np.ones(64), "u")
