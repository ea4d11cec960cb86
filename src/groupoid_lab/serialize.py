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
        structure["basepoint"] = obj.basepoint
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
# groupoids, functors, transformations


def groupoid_to_data(grp: InternalGroupoid) -> dict:
    return {"B0": object_to_data(grp.B0), "B1": object_to_data(grp.B1),
            "d": morphism_to_data(grp.d), "c": morphism_to_data(grp.c),
            "e": morphism_to_data(grp.e), "m": morphism_to_data(grp.m),
            "i": morphism_to_data(grp.i)}


def groupoid_from_data(data: dict) -> InternalGroupoid:
    return InternalGroupoid(object_from_data(data["B0"]),
                            object_from_data(data["B1"]),
                            morphism_from_data(data["d"]),
                            morphism_from_data(data["c"]),
                            morphism_from_data(data["e"]),
                            morphism_from_data(data["m"]),
                            morphism_from_data(data["i"]))


def functor_to_data(fun: InternalFunctor) -> dict:
    return {"dom": groupoid_to_data(fun.dom), "cod": groupoid_to_data(fun.cod),
            "F0": morphism_to_data(fun.F0), "F1": morphism_to_data(fun.F1)}


def functor_from_data(data: dict) -> InternalFunctor:
    return InternalFunctor(groupoid_from_data(data["dom"]),
                           groupoid_from_data(data["cod"]),
                           morphism_from_data(data["F0"]),
                           morphism_from_data(data["F1"]))


def transformation_to_data(cell: NatTransformation) -> dict:
    return {"source": functor_to_data(cell.source),
            "target": functor_to_data(cell.target),
            "alpha": morphism_to_data(cell.alpha)}


def transformation_from_data(data: dict) -> NatTransformation:
    return NatTransformation(functor_from_data(data["source"]),
                             functor_from_data(data["target"]),
                             morphism_from_data(data["alpha"]))


# ---------------------------------------------------------------------------
# the arrow category


def arrow_object_to_data(obj: ArrowObject) -> dict:
    return {"a": morphism_to_data(obj.a)}


def arrow_object_from_data(data: dict) -> ArrowObject:
    return ArrowObject(morphism_from_data(data["a"]))


def arrow_morphism_to_data(mor: ArrowMorphism) -> dict:
    return {"dom": arrow_object_to_data(mor.dom),
            "cod": arrow_object_to_data(mor.cod),
            "f": morphism_to_data(mor.f), "f0": morphism_to_data(mor.f0)}


def arrow_morphism_from_data(data: dict) -> ArrowMorphism:
    return ArrowMorphism(arrow_object_from_data(data["dom"]),
                         arrow_object_from_data(data["cod"]),
                         morphism_from_data(data["f"]),
                         morphism_from_data(data["f0"]))


def diagonal_to_data(diag: Diagonal) -> dict:
    return {"morphism": arrow_morphism_to_data(diag.morphism),
            "d": morphism_to_data(diag.d)}


def diagonal_from_data(data: dict) -> Diagonal:
    return Diagonal(arrow_morphism_from_data(data["morphism"]),
                    morphism_from_data(data["d"]))


# ---------------------------------------------------------------------------
# dispatch


_ENCODERS = (
    (InternalGroupoid, groupoid_to_data),
    (InternalFunctor, functor_to_data),
    (NatTransformation, transformation_to_data),
    (Diagonal, diagonal_to_data),
    (ArrowMorphism, arrow_morphism_to_data),
    (ArrowObject, arrow_object_to_data),
    (BaseMorphism, morphism_to_data),
    (BaseObject, object_to_data),
)


def value_to_data(value):
    """Encode any serializable package value to plain data."""
    for cls, encoder in _ENCODERS:
        if isinstance(value, cls):
            return encoder(value)
    raise DiagramError(f"cannot serialize a {type(value).__name__}")


class UnknownShapeError(DiagramError):
    """Serialized data that names no value shape the decoder knows."""


def value_from_data(data):
    """Decode plain data by key signature (inverse of value_to_data).

    Data that names no known shape raises UnknownShapeError.
    """
    if not isinstance(data, dict):
        raise UnknownShapeError("serialized value must be a JSON object")
    keys = set(data)
    if {"B0", "B1", "d", "c", "e", "m", "i"} <= keys:
        return groupoid_from_data(data)
    if {"dom", "cod", "F0", "F1"} <= keys:
        return functor_from_data(data)
    if {"source", "target", "alpha"} <= keys:
        return transformation_from_data(data)
    if {"morphism", "d"} <= keys:
        return diagonal_from_data(data)
    if {"dom", "cod", "f", "f0"} <= keys:
        return arrow_morphism_from_data(data)
    if keys == {"a"}:
        return arrow_object_from_data(data)
    if {"dom", "cod", "map"} <= keys:
        return morphism_from_data(data)
    if {"instance", "carrier"} <= keys:
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
