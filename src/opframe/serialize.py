"""Binary-free JSON serialization for sequences, operators, and duals.

FrameSequence: {"dim", "N", "weights", "labels", "re", "im"} with the matrix
flattened row-major.  OperatorModel mirrors that layout plus
{"domain_basis", "codomain_dim", "codomain_weights", "adjoint_domain_basis",
"name"}.  DualSequence adds {"producer", "certificate_residual"}, null for
an uncertified (NaN) certificate.  ``dumps`` writes strict JSON.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import InvalidDimension
from .hilbert import HilbertModel, Subspace
from .opmodel import OperatorModel
from .seqops import FrameSequence
from .weakframes import DualSequence


def _matrix_payload(m: np.ndarray):
    return list(map(float, m.real.ravel())), list(map(float, m.imag.ravel()))


def _matrix_from(payload_re, payload_im, rows, cols):
    re = np.asarray(payload_re, dtype=float)
    im = np.asarray(payload_im, dtype=float)
    if re.size != rows * cols or im.size != rows * cols:
        raise InvalidDimension("matrix payload size mismatch")
    return (re + 1j * im).reshape(rows, cols)


def _family_to_dict(model: HilbertModel, vectors: np.ndarray, labels) -> dict:
    re, im = _matrix_payload(vectors)
    return {"dim": model.dim, "N": vectors.shape[1], "weights": list(map(float, model.weights)),
            "labels": list(labels), "re": re, "im": im}


def _family_from(data: dict):
    model = HilbertModel(int(data["dim"]), data["weights"], "deserialized")
    return model, _matrix_from(data["re"], data["im"], model.dim, int(data["N"]))


def frame_sequence_to_dict(seq: FrameSequence) -> dict:
    return _family_to_dict(seq.model, seq.vectors, seq.index_labels)


def frame_sequence_from_dict(data: dict) -> FrameSequence:
    return FrameSequence(*_family_from(data), data["labels"])


def _basis_payload(sub):
    basis = None if sub is None else sub.dense()
    if basis is None:
        return None
    re, im = _matrix_payload(basis)
    return {"r": basis.shape[1], "re": re, "im": im}


def _basis_from(payload, model):
    if payload is None:
        return None
    basis = _matrix_from(payload["re"], payload["im"], model.dim, int(payload["r"]))
    return Subspace(model, basis)


def operator_to_dict(op: OperatorModel) -> dict:
    re, im = _matrix_payload(op.dense())
    return {
        "dim": op.input_model.dim,
        "codomain_dim": op.codomain.dim,
        "weights": list(map(float, op.input_model.weights)),
        "codomain_weights": list(map(float, op.codomain.weights)),
        "re": re,
        "im": im,
        "domain_basis": _basis_payload(op.domain),
        "adjoint_domain_basis": _basis_payload(op.adjoint_domain),
        "name": op.name,
    }


def operator_from_dict(data: dict) -> OperatorModel:
    inp = HilbertModel(int(data["dim"]), data["weights"], "deserialized input")
    out = HilbertModel(
        int(data["codomain_dim"]), data["codomain_weights"], "deserialized codomain"
    )
    matrix = _matrix_from(data["re"], data["im"], out.dim, inp.dim)
    return OperatorModel(
        matrix,
        inp,
        out,
        domain=_basis_from(data.get("domain_basis"), inp),
        adjoint_domain=_basis_from(data.get("adjoint_domain_basis"), out),
        name=data.get("name", ""),
    )


def dual_sequence_to_dict(dual: DualSequence) -> dict:
    cert = float(dual.certificate_residual)
    return dict(_family_to_dict(dual.model, dual.vectors, range(dual.n_vectors)),
                producer=dual.producer, certificate_residual=None if np.isnan(cert) else cert)


def dual_sequence_from_dict(data: dict) -> DualSequence:
    cert = data["certificate_residual"]
    return DualSequence(*_family_from(data), data["producer"],
                        float("nan") if cert is None else float(cert))


def dumps(obj, kind: str) -> str:
    encoder = {
        "frame_sequence": frame_sequence_to_dict,
        "operator": operator_to_dict,
        "dual_sequence": dual_sequence_to_dict,
    }[kind]
    return json.dumps(encoder(obj), sort_keys=True, allow_nan=False)


def loads(text: str, kind: str):
    decoder = {
        "frame_sequence": frame_sequence_from_dict,
        "operator": operator_from_dict,
        "dual_sequence": dual_sequence_from_dict,
    }[kind]
    return decoder(json.loads(text))
