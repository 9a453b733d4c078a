import numpy as np
import pytest

from opframe._linalg import max_column_gap
from opframe.hilbert import HilbertModel
from opframe.opmodel import identity_operator
from opframe.scenarios import CHECKS
from opframe.seqops import FrameSequence


class TestMaxColumnGap:
    w = np.array([1.0, 4.0])

    def test_weighted_relative_gap(self):
        ref = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex)
        approx = ref + np.array([[0.1, 0.0], [0.0, 0.1]])
        # column norms 1 and 2, gaps 0.1 and 0.2: both relative gaps are 0.1
        assert max_column_gap(approx, ref, self.w) == pytest.approx(0.1)

    def test_zero_reference_column_is_skipped(self):
        ref = np.array([[0.0, 2.0], [0.0, 0.0]], dtype=complex)
        approx = np.array([[5.0, 2.0], [0.0, 1.0]], dtype=complex)
        assert max_column_gap(approx, ref, self.w) == pytest.approx(1.0)

    def test_all_columns_dead(self):
        ref = np.zeros((2, 3), dtype=complex)
        assert max_column_gap(np.ones((2, 3)), ref, self.w) == 0.0


def test_psi_in_range_with_zero_column():
    model = HilbertModel(3, np.array([0.5, 1.0, 2.0]))
    psi = FrameSequence(model, np.array([[1.0, 0.0], [2.0, 0.0], [0.0, 0.0]]))
    ctx = {"psi": psi, "op": identity_operator(model)}
    _, check = CHECKS["psi_in_range"]
    with np.errstate(all="raise"):
        assert check(ctx, {}, None) == 0.0
