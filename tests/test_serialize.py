import base64
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opframe.errors import InvalidDimension
from opframe.hilbert import HilbertModel, Subspace, interval_grid, l2_truncation
from opframe.opmodel import OperatorModel, dirichlet_subspace
from opframe.seqops import FrameSequence
from opframe.serialize import (
    _matrix_from,
    _matrix_payload,
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
    assert set(data) == {"dim", "N", "weights", "labels", "z"}
    assert data["labels"] == [2, 4, 6, 8, 10]
    # row-major flattening, little-endian complex128
    flat = np.frombuffer(base64.b64decode(data["z"]), dtype="<c16")
    np.testing.assert_array_equal(flat, seq.vectors.ravel())


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


def test_non_finite_payload_is_rejected(rng):
    dual = user_dual(l2_truncation(3), random_matrix(rng, 3, 4), certificate_residual=1.5e-9)
    text = dumps(dual, "dual_sequence")
    assert '"certificate_residual": 1.5e-09' in text and '"weights": [1.0, ' in text
    # hand-edited NaN, Infinity and overflowing numbers outside the matrix
    for bad in (text.replace("1.5e-09", "NaN"), text.replace("1.5e-09", "-Infinity"),
                text.replace("1.5e-09", "1e999"),
                text.replace('"weights": [1.0', '"weights": [NaN')):
        with pytest.raises(InvalidDimension, match="non-finite"):
            loads(bad, "dual_sequence")
    # a NaN entry inside the base64 matrix
    data = json.loads(text)
    vectors = dual.vectors.copy()
    vectors[1, 2] = complex(0.0, np.nan)
    data["z"] = base64.b64encode(vectors.astype("<c16").tobytes()).decode()
    with pytest.raises(InvalidDimension, match="non-finite"):
        loads(json.dumps(data), "dual_sequence")
    # a dual refuses a non-finite matrix, and so does the writer when one is
    # written into a constructed dual's array afterwards
    with pytest.raises(InvalidDimension, match="non-finite"):
        user_dual(dual.model, vectors)
    dual.vectors[1, 2] = complex(0.0, np.nan)
    with pytest.raises(ValueError, match="non-finite"):
        dumps(dual, "dual_sequence")


@pytest.mark.parametrize("text, kind, field", [
    ('{"dim": 2}', "dual_sequence", "certificate_residual"),
    ('[1]', "operator", "dim"),
    ('"text"', "frame_sequence", "dim"),
    ('{"dim": 2, "weights": [1, 1], "labels": [0]}', "frame_sequence", "N"),
    ('{"dim": "two", "weights": [1, 1]}', "frame_sequence", "dim"),
    ('{"dim": 2, "weights": [1, [1]], "N": 1}', "frame_sequence", "weights"),
    ('{"dim": 1, "weights": [1], "N": 1, "labels": 5, "z": "AAAAAAAA8D8AAAAAAAAAAA=="}',
     "frame_sequence", "labels"),
], ids=["no_certificate", "array", "string", "no_N", "text_dim", "ragged_weights", "int_labels"])
def test_malformed_payload_names_the_field(text, kind, field):
    with pytest.raises(InvalidDimension, match=f"'{field}'"):
        loads(text, kind)


@pytest.mark.parametrize("labels", [[0.9, "1", True], [0.0, 1.0, 2.0], ["x", 1, 2]],
                         ids=["mixed", "floats", "string"])
def test_non_integer_labels_are_refused_on_load(rng, labels):
    # [0.9, "1", true] does not load as (0, 1, 1)
    data = frame_sequence_to_dict(FrameSequence(l2_truncation(2), random_matrix(rng, 2, 3)))
    data["labels"] = labels
    with pytest.raises(InvalidDimension, match="index_labels"):
        loads(json.dumps(data), "frame_sequence")


def test_list_payload_is_not_read(rng):
    # the per-entry "re"/"im" float lists of the earlier layout
    def to_lists(payload, m):
        del payload["z"]
        payload["re"], payload["im"] = list(m.real.ravel()), list(m.imag.ravel())
        return payload

    seq = FrameSequence(l2_truncation(2), random_matrix(rng, 2, 3))
    old = to_lists(frame_sequence_to_dict(seq), seq.vectors)
    with pytest.raises(InvalidDimension, match="'z'"):
        frame_sequence_from_dict(old)
    grid = interval_grid(8)
    op = OperatorModel(random_matrix(rng, 8, 8), grid, grid, domain=dirichlet_subspace(grid))
    with pytest.raises(InvalidDimension, match="'z'"):
        operator_from_dict(to_lists(operator_to_dict(op), op.matrix))
    data = operator_to_dict(op)
    to_lists(data["domain_basis"], op.domain.dense())
    with pytest.raises(InvalidDimension, match="'z'"):
        operator_from_dict(data)


@pytest.mark.parametrize("z", [
    "AAAAAAAA8D8AAAAAAAAAAA=",  # truncated
    "AAAAAAAA8D8AAAAAAAAAAA",  # padding dropped
    "AAAAAAAA8D8AAAAAAAAA*A==",  # outside the base64 alphabet
    "AAAAAAAA8D8AAAAA AAAAAA==",  # embedded blank
    "AAAAAAAA8D8AAAAAAAAAAAAAAAAAAAAA",  # 24 bytes: not 16 for 1 x 1
    "",  # no bytes
    5,  # not a string
], ids=["truncated", "unpadded", "alphabet", "blank", "length", "empty", "not_string"])
def test_bad_base64_is_rejected(z):
    data = {"dim": 1, "weights": [1.0], "N": 1, "labels": [0], "z": z}
    with pytest.raises(InvalidDimension, match="'z'"):
        frame_sequence_from_dict(data)


_EDGES = (-0.0, 0.0, 5e-324, -5e-324, 1.7e308, -1.7e308, 1.0, -2.5)


def _planted(rng, shape, form, edges):
    """A random complex matrix with the edge values planted at random
    entries, made real-only or purely imaginary on request."""
    re, im = rng.standard_normal(shape), rng.standard_normal(shape)
    for value in edges:
        part = re if rng.random() < 0.5 else im
        part[tuple(rng.integers(0, n) for n in shape)] = value
    if form == "real":
        im = np.zeros(shape)
    elif form == "imag":
        re = np.zeros(shape)
    m = np.empty(shape, dtype=complex)
    m.real, m.imag = re, im
    return m


def _laid_out(m, layout):
    """m as a transposed (non-contiguous) view or a big-endian copy."""
    if layout == "transposed":
        return np.ascontiguousarray(m.T).T
    return m.astype(">c16") if layout == "big_endian" else m


def _same_bits(a, b):
    """b holds a bit for bit, as a native, writable, owned complex array."""
    assert a.shape == b.shape
    assert b.dtype == np.dtype(complex) and b.flags.writeable and b.flags.owndata
    np.testing.assert_array_equal(np.ascontiguousarray(a, dtype="<c16").view(np.uint8),
                                  np.ascontiguousarray(b, dtype="<c16").view(np.uint8))


def _round_trip(obj, kind):
    text = dumps(obj, kind)
    _strict(text)
    return loads(text, kind)


@settings(max_examples=40, deadline=None)
@given(dim=st.integers(1, 32), n=st.integers(1, 32), seed=st.integers(0, 2**32 - 1),
       form=st.sampled_from(["complex", "real", "imag"]),
       layout=st.sampled_from(["contiguous", "transposed", "big_endian"]),
       edges=st.lists(st.sampled_from(_EDGES), max_size=6))
def test_payload_round_trip_is_bit_exact(dim, n, seed, form, layout, edges):
    rng = np.random.default_rng(seed)
    model = HilbertModel(dim, 0.25 + rng.random(dim), "weighted")
    out = HilbertModel(n, 0.25 + rng.random(n), "codomain")

    def matrix(rows, cols, planted=edges):
        return _laid_out(_planted(rng, (rows, cols), form, planted), layout)

    # the raw matrix, in any layout and byte order
    m = matrix(dim, n)
    _same_bits(m, _matrix_from({"z": _matrix_payload(m)}, dim, n))
    # a frame needs finite column norms (no 1.7e308 there) and a nonzero column
    f = matrix(dim, n, planted=[e for e in edges if abs(e) < 1e300])
    f[0, 0] = 1j if form == "imag" else 1.0
    seq = FrameSequence(model, f)
    back = _round_trip(seq, "frame_sequence")
    _same_bits(seq.vectors, back.vectors)
    np.testing.assert_array_equal(back.model.weights, model.weights)
    dual = user_dual(model, matrix(dim, n), certificate_residual=float(rng.random()))
    back = _round_trip(dual, "dual_sequence")
    _same_bits(dual.vectors, back.vectors)
    assert back.certificate_residual == dual.certificate_residual
    op = OperatorModel(matrix(n, dim), model, out,
                       domain=Subspace(model, matrix(dim, dim // 2 + 1)),
                       adjoint_domain=Subspace(out, matrix(n, n)), name="op")
    back = _round_trip(op, "operator")
    _same_bits(op.matrix, back.matrix)
    _same_bits(op.domain.basis, back.domain.basis)
    _same_bits(op.adjoint_domain.basis, back.adjoint_domain.basis)
    np.testing.assert_array_equal(back.codomain.weights, out.weights)


def test_dual_payload_size_guard():
    # base64 costs 64/3 ~ 21.3 bytes per complex entry; per-float text measured 41.3
    rng = np.random.default_rng(7)
    dim, n = 48, 533
    dual = user_dual(random_weighted_model(rng, dim), random_matrix(rng, dim, n), 1e-12)
    assert len(dumps(dual, "dual_sequence")) <= 22 * dim * n + 1024
