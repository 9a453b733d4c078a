"""Strict-JSON serialization for sequences and duals.

A matrix is one string "z": the padded standard base64 (RFC 4648) of its
row-major entries, each 16 bytes, the real then the imaginary part as
little-endian IEEE binary64 (numpy "<c16"); the payload gives its shape.  A
real (float64) family or dual is written the same way, with zero imaginary
parts, and reads back as complex128: the format has one type.
FrameSequence: {"dim", "N", "weights", "labels", "z" (dim x N)}.  DualSequence:
the FrameSequence keys, "producer", "certificate_residual" (null for NaN) and
"graph_space" (a bool: whether the dual was taken in the graph inner product).
NaN and infinities are refused both ways; old "re"/"im" lists are not read.
"""

from __future__ import annotations

import base64
import json
import math

import numpy as np

from .errors import InvalidDimension
from .hilbert import HilbertModel
from .seqops import FrameSequence
from .weakframes import DualSequence


def _field(data, key, cast=lambda v: v):
    """cast(data[key]); InvalidDimension naming key when that fails."""
    try:
        return cast(data[key])
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidDimension(f"payload field {key!r} is missing or malformed") from exc


def _finite(text):
    """JSON number hook rejecting NaN, Infinity and overflowing literals."""
    if not math.isfinite(value := float(text)):
        raise InvalidDimension(f"non-finite number {text} in payload")
    return value


def _matrix_payload(m: np.ndarray) -> str:
    m = np.ascontiguousarray(m, dtype="<c16")
    if not np.isfinite(m).all():
        raise ValueError("cannot serialize a non-finite matrix")
    return base64.b64encode(m.tobytes()).decode("ascii")


def _matrix_from(data, rows, cols):
    """The rows x cols matrix held in data["z"]."""
    raw = _field(data, "z", lambda z: base64.b64decode(z, validate=True))
    if len(raw) != 16 * rows * cols:
        raise InvalidDimension(f"payload field 'z' holds {len(raw)} bytes, "
                               f"not {16 * rows * cols} for {rows} x {cols}")
    m = np.frombuffer(raw, dtype="<c16").reshape(rows, cols).astype(complex)
    if not np.isfinite(m).all():
        raise InvalidDimension("payload field 'z' holds a non-finite entry")
    return m


def _family_to_dict(model: HilbertModel, vectors: np.ndarray, labels) -> dict:
    return {"dim": model.dim, "N": vectors.shape[1], "weights": list(map(float, model.weights)),
            "labels": list(labels), "z": _matrix_payload(vectors)}


def _family_from(data: dict):
    model = HilbertModel(_field(data, "dim", int),
                         _field(data, "weights", lambda w: np.asarray(w, dtype=float)),
                         "deserialized")
    return model, _matrix_from(data, model.dim, _field(data, "N", int))


def frame_sequence_to_dict(seq: FrameSequence) -> dict:
    return _family_to_dict(seq.model, seq.vectors, seq.index_labels)


def frame_sequence_from_dict(data: dict) -> FrameSequence:
    return FrameSequence(*_family_from(data), _field(data, "labels", list))


def dual_sequence_to_dict(dual: DualSequence) -> dict:
    cert = float(dual.certificate_residual)
    return dict(_family_to_dict(dual.model, dual.vectors, range(dual.n_vectors)),
                producer=dual.producer, certificate_residual=None if np.isnan(cert) else cert,
                graph_space=dual.graph_space)


def dual_sequence_from_dict(data: dict) -> DualSequence:
    cert = _field(data, "certificate_residual", lambda c: float("nan") if c is None else float(c))
    graph_space = _field(data, "graph_space")
    if not isinstance(graph_space, bool):
        raise InvalidDimension(f"payload field 'graph_space' is not a bool: {graph_space!r}")
    return DualSequence(*_family_from(data), _field(data, "producer"), cert, graph_space)


def dumps(obj, kind: str) -> str:
    encode = {"frame_sequence": frame_sequence_to_dict,
              "dual_sequence": dual_sequence_to_dict}[kind]
    payload = encode(obj)
    z = payload.pop("z")  # base64 needs no JSON escaping, and "z" sorts after every other key
    return f'{json.dumps(payload, sort_keys=True, allow_nan=False)[:-1]}, "z": "{z}"}}'


def loads(text: str, kind: str):
    decode = {"frame_sequence": frame_sequence_from_dict,
              "dual_sequence": dual_sequence_from_dict}[kind]
    return decode(json.loads(text, parse_float=_finite, parse_constant=_finite))
