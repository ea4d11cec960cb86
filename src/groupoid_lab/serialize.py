"""JSON encoding for base objects, groupoids, functors, cells, and squares.

Every encoder returns plain dict/list/scalar data; ``to_json`` renders it
with sorted keys so equal values always produce identical bytes.  Decoders
rebuild values through the public constructors, so instance-level structure
(basepoints, addition tables) is revalidated on load, while groupoid and
functor axioms are deliberately not checked here: validation of possibly
corrupted structures is its own operation.

Carrier elements may be nested tuples (limit carriers are built from
pairs); JSON stores them as nested lists and decoding restores tuples
recursively.  Carriers never contain genuine lists, so this is lossless.
"""

from __future__ import annotations

import json

from .base import (
    FINAB,
    FINPTDSET,
    BaseMorphism,
    BaseObject,
    DiagramError,
    finab_object,
    finptdset_object,
    finset_object,
    parse_instance,
)
from .groupoid import InternalFunctor, InternalGroupoid, NatTransformation
from .arrow import ArrowMorphism, ArrowObject, Diagonal


def _encode_element(x):
    if isinstance(x, tuple):
        return [_encode_element(v) for v in x]
    return x


def _decode_element(x):
    if isinstance(x, list):
        return tuple(_decode_element(v) for v in x)
    return x


# ---------------------------------------------------------------------------
# base objects and morphisms


def object_to_data(obj: BaseObject) -> dict:
    structure: dict = {}
    if obj.instance is FINPTDSET:
        structure["basepoint"] = obj.zero
    elif obj.instance is FINAB:
        structure["add"] = [list(row) for row in obj.add]
        structure["neg"] = list(obj.neg)
        structure["zero"] = obj.zero
    return {"instance": obj.instance.name,
            "carrier": [_encode_element(x) for x in obj.carrier],
            "structure": structure}


def object_from_data(data: dict) -> BaseObject:
    instance = parse_instance(data["instance"])
    if not isinstance(data["carrier"], list):
        raise DiagramError("carrier must be a JSON array")
    carrier = [_decode_element(x) for x in data["carrier"]]
    structure = data.get("structure") or {}
    if instance is FINPTDSET:
        return finptdset_object(carrier, structure["basepoint"])
    if instance is FINAB:
        return finab_object(carrier, structure["add"], structure["neg"],
                            structure["zero"])
    return finset_object(carrier)


def morphism_to_data(mor: BaseMorphism) -> dict:
    return {"dom": object_to_data(mor.dom), "cod": object_to_data(mor.cod),
            "map": list(mor.map)}


def morphism_from_data(data: dict) -> BaseMorphism:
    return BaseMorphism(object_from_data(data["dom"]),
                        object_from_data(data["cod"]), data["map"])


# ---------------------------------------------------------------------------
# composite values

# Each composite shape: its class, its kind name and its fields in
# constructor order, each field with the class it holds.  A value encodes to
# one key per field, and the keys double as its signature when data is
# decoded without a declared class.  Dispatch order is this table's order,
# then the two base formats.
_SHAPES = {
    InternalGroupoid: ("groupoid", {
        "B0": BaseObject, "B1": BaseObject, "d": BaseMorphism,
        "c": BaseMorphism, "e": BaseMorphism, "m": BaseMorphism,
        "i": BaseMorphism}),
    InternalFunctor: ("functor", {"dom": InternalGroupoid,
                                  "cod": InternalGroupoid,
                                  "F0": BaseMorphism, "F1": BaseMorphism}),
    NatTransformation: ("transformation", {"source": InternalFunctor,
                                           "target": InternalFunctor,
                                           "alpha": BaseMorphism}),
    Diagonal: ("diagonal", {"morphism": ArrowMorphism, "d": BaseMorphism}),
    ArrowMorphism: ("arrow morphism", {"dom": ArrowObject, "cod": ArrowObject,
                                       "f": BaseMorphism, "f0": BaseMorphism}),
    ArrowObject: ("arrow object", {"a": BaseMorphism}),
}

_BASE = {BaseMorphism: ("morphism", morphism_to_data, morphism_from_data),
         BaseObject: ("object", object_to_data, object_from_data)}


def _encode(cls, value):
    if cls in _BASE:
        return _BASE[cls][1](value)
    return {name: _encode(held, getattr(value, name))
            for name, held in _SHAPES[cls][1].items()}


def _decode(cls, data):
    if cls in _BASE:
        return _BASE[cls][2](data)
    return cls(*[_decode(held, data[name])
                 for name, held in _SHAPES[cls][1].items()])


def _shape(value):
    for cls in (*_SHAPES, *_BASE):
        if isinstance(value, cls):
            return cls
    raise DiagramError(f"cannot serialize a {type(value).__name__}")


def value_to_data(value):
    """Encode any serializable package value to plain data."""
    return _encode(_shape(value), value)


def kind_name(value) -> str:
    """The name of a value's shape: "groupoid", "arrow morphism", ..."""
    return {**_SHAPES, **_BASE}[_shape(value)][0]


class UnknownShapeError(DiagramError):
    """Serialized data that names no value shape the decoder knows."""


def value_from_data(data):
    """Decode plain data by key signature (inverse of value_to_data).

    A composite shape matches when its field names are among the keys; an
    arrow object, whose one key is common, only on the exact key set.
    Data that names no known shape raises UnknownShapeError.
    """
    if not isinstance(data, dict):
        raise UnknownShapeError("serialized value must be a JSON object")
    keys = data.keys()
    for cls, (_, fields) in _SHAPES.items():
        if (keys == fields.keys() if cls is ArrowObject
                else keys >= fields.keys()):
            return _decode(cls, data)
    if keys >= {"dom", "cod", "map"}:
        return morphism_from_data(data)
    if keys >= {"instance", "carrier"}:
        return object_from_data(data)
    raise UnknownShapeError("unrecognized serialized value")


def to_json(value, indent=None) -> str:
    """Render a package value as deterministic JSON text."""
    return json.dumps(value_to_data(value), sort_keys=True, indent=indent)


def from_json(text: str):
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DiagramError(f"malformed JSON: {exc}") from None
    return value_from_data(data)
