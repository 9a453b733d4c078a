import json

import numpy as np
import pytest

from opframe.hilbert import interval_grid, l2_truncation
from opframe.opmodel import OperatorModel, dirichlet_subspace
from opframe.seqops import FrameSequence
from opframe.serialize import (
    dual_sequence_from_dict,
    dual_sequence_to_dict,
    dumps,
    frame_sequence_from_dict,
    frame_sequence_to_dict,
    loads,
    operator_from_dict,
    operator_to_dict,
)
from opframe.weakframes import user_dual

from conftest import random_matrix, random_weighted_model


def test_frame_sequence_payload_keys(rng):
    seq = FrameSequence(l2_truncation(3), random_matrix(rng, 3, 5), [2, 4, 6, 8, 10])
    data = frame_sequence_to_dict(seq)
    assert set(data) == {"dim", "N", "weights", "labels", "re", "im"}
    assert data["labels"] == [2, 4, 6, 8, 10]
    assert len(data["re"]) == 15  # row-major flattening


def test_frame_sequence_roundtrip(rng):
    model = random_weighted_model(rng, 4)
    seq = FrameSequence(model, random_matrix(rng, 4, 7))
    back = frame_sequence_from_dict(frame_sequence_to_dict(seq))
    np.testing.assert_allclose(back.vectors, seq.vectors)
    np.testing.assert_allclose(back.model.weights, model.weights)
    assert back.index_labels == seq.index_labels


def test_frame_sequence_json_is_valid_json(rng):
    seq = FrameSequence(l2_truncation(2), random_matrix(rng, 2, 3))
    parsed = json.loads(dumps(seq, "frame_sequence"))
    assert parsed["dim"] == 2 and parsed["N"] == 3


def test_operator_roundtrip_with_domains(rng):
    grid = interval_grid(32)
    dom = dirichlet_subspace(grid)
    op = OperatorModel(
        random_matrix(rng, 32, 32), grid, grid,
        domain=dom, adjoint_domain=dom, name="restricted",
    )
    data = operator_to_dict(op)
    assert {"dim", "codomain_dim", "domain_basis", "name"} <= set(data)
    back = operator_from_dict(data)
    np.testing.assert_allclose(back.matrix, op.matrix)
    np.testing.assert_allclose(back.domain.basis, dom.dense())
    np.testing.assert_allclose(back.adjoint_domain.basis, dom.dense())
    assert back.name == "restricted"


def test_operator_roundtrip_full_domain(rng):
    m_in, m_out = l2_truncation(3), random_weighted_model(rng, 5)
    op = OperatorModel(random_matrix(rng, 5, 3), m_in, m_out, name="rect")
    back = operator_from_dict(operator_to_dict(op))
    np.testing.assert_allclose(back.matrix, op.matrix)
    assert back.domain is None


def test_dual_sequence_roundtrip(rng):
    model = l2_truncation(4)
    dual = user_dual(model, random_matrix(rng, 4, 6), certificate_residual=1.5e-9)
    data = dual_sequence_to_dict(dual)
    assert data["producer"] == "user"
    assert data["certificate_residual"] == pytest.approx(1.5e-9)
    back = dual_sequence_from_dict(data)
    np.testing.assert_allclose(back.vectors, dual.vectors)
    assert back.producer == "user"


def test_loads_inverts_dumps(rng):
    seq = FrameSequence(l2_truncation(3), random_matrix(rng, 3, 4))
    back = loads(dumps(seq, "frame_sequence"), "frame_sequence")
    np.testing.assert_allclose(back.vectors, seq.vectors)


def _strict(text):
    """json.loads that rejects the NaN and Infinity tokens JSON does not have."""

    def reject(token):
        raise ValueError(f"non-JSON constant {token}")

    return json.loads(text, parse_constant=reject)


def test_uncertified_dual_is_strict_json_and_round_trips(rng):
    dual = user_dual(l2_truncation(3), random_matrix(rng, 3, 4))  # NaN certificate
    text = dumps(dual, "dual_sequence")
    assert _strict(text)["certificate_residual"] is None
    back = loads(text, "dual_sequence")
    assert np.isnan(back.certificate_residual)
    np.testing.assert_array_equal(back.vectors, dual.vectors)
    # a finite certificate is written as before and survives exactly
    certified = user_dual(dual.model, dual.vectors, certificate_residual=1.5e-9)
    text = dumps(certified, "dual_sequence")
    assert _strict(text)["certificate_residual"] == 1.5e-9
    assert loads(text, "dual_sequence").certificate_residual == 1.5e-9
