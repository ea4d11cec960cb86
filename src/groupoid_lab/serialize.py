"""JSON encoding for base objects, groupoids, functors, cells, and squares.

Every encoder returns plain dict/list/scalar data; ``to_json`` renders it
with sorted keys so equal values always produce identical bytes.  Decoders
rebuild values through the validated constructors, so instance-level
structure (basepoints, addition tables) is revalidated on load, while
groupoid and functor axioms are deliberately not checked here: validation
of possibly corrupted structures is its own operation.  An object's
``structure`` holds exactly its instance's keys: ``add``, ``neg``, ``zero``
if additive, else ``basepoint`` if pointed, else none, when it may be absent.

One ``value_from_data`` call validates each distinct object once: equal
object data decodes to the same object (``is``), so a functor file's many
copies of B1 are one object.  Data holding a bool or a float, which equal
ints, is validated each time it occurs.  A groupoid's composable-pairs
object, the domain of ``m``, is accepted by exact equality (carrier,
table, ``neg``, zero) with the pullback of its validated ``c`` and ``d``,
which is a valid object by construction; the groupoid keeps that pullback
as its ``composition_pairs()``.  Any other data is validated on its own,
so it fails as it would alone.

Carrier elements may be nested tuples (limit carriers are built from
pairs); JSON stores them as nested lists and decoding restores tuples
recursively.  Carriers never contain genuine lists, so this is lossless.
"""

from __future__ import annotations

import json
from itertools import chain

from .base import (
    BaseMorphism,
    BaseObject,
    DiagramError,
    parse_instance,
    pullback,
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
    if obj.instance.additive:
        structure["add"] = [list(row) for row in obj.add]
        structure["neg"] = list(obj.neg)
        structure["zero"] = obj.zero
    elif obj.instance.pointed:
        structure["basepoint"] = obj.zero
    return {"instance": obj.instance.name,
            "carrier": [_encode_element(x) for x in obj.carrier],
            "structure": structure}


def morphism_to_data(mor: BaseMorphism) -> dict:
    return {"dom": object_to_data(mor.dom), "cod": object_to_data(mor.cod),
            "map": list(mor.map)}


# The node types a memo key may hold.  A bool or a float equals an int
# (True == 1 == 1.0) that validation tells apart from it, and other data
# may not hash, so an object with any other leaf bypasses the memo.
_EXACT_NODES = frozenset({int, str, type(None), tuple})


def _exact(*fields) -> bool:
    """Whether every leaf under these fields is an int, a str or None.

    A field is a leaf or nested tuples, read one level at a time, so each
    level's types are taken in one pass.
    """
    for field in fields:
        level = [field]
        while level:
            types = set(map(type, level))
            if not types <= _EXACT_NODES:
                return False
            if tuple not in types:
                break
            if len(types) > 1:
                level = [v for v in level if type(v) is tuple]
            level = list(chain.from_iterable(level))
    return True


def _object(data: dict, memo: dict) -> BaseObject:
    """The object of this data: the one the memo holds for equal data, else
    a validated one, which the memo then keeps.  ``memo`` maps the
    normalized constructor arguments (instance, carrier, add, neg, zero)
    to an object built from them."""
    instance = parse_instance(data["instance"])
    if not isinstance(data["carrier"], list):
        raise DiagramError("carrier must be a JSON array")
    carrier = tuple(_decode_element(x) for x in data["carrier"])
    structure = data.get("structure", {})
    add = neg = zero = None
    if instance.additive:
        add, neg, zero = structure["add"], structure["neg"], structure["zero"]
        add, neg = tuple(tuple(r) for r in add), tuple(neg)
    elif instance.pointed:
        zero = structure["basepoint"]
    keys = ({"add", "neg", "zero"} if instance.additive
            else {"basepoint"} if instance.pointed else set())
    if not isinstance(structure, dict) or structure.keys() != keys:
        raise DiagramError(f"{instance.name} structure must be an object "
                           f"with exactly the keys {sorted(keys)}")
    key = (instance, carrier, add, neg, zero)
    if not _exact(*key[1:]):
        return BaseObject(*key)
    obj = memo.get(key)
    if obj is None:
        obj = memo[key] = BaseObject(*key)
    return obj


def _morphism(data: dict, memo: dict) -> BaseMorphism:
    return BaseMorphism(_object(data["dom"], memo), _object(data["cod"], memo),
                        data["map"])


def _groupoid(data: dict, memo: dict) -> InternalGroupoid:
    """A groupoid decoded field by field, with the pullback of c against d
    offered to the memo before m: validated homs with a common codomain
    have a valid pullback, so m's domain needs no check of its own when its
    data equals that pullback.  The groupoid keeps the pullback."""
    b0, b1 = _object(data["B0"], memo), _object(data["B1"], memo)
    d, c, e = (_morphism(data[name], memo) for name in ("d", "c", "e"))
    pairs = None
    if c.cod == d.cod:
        pairs = pullback(c, d)
        apex = pairs.apex
        key = (apex.instance, apex.carrier,
               None if apex.add is None else tuple(apex.add), apex.neg,
               apex.zero)
        if _exact(apex.carrier):  # add, neg and zero are built as ints
            memo[key] = apex
    return InternalGroupoid(b0, b1, d, c, e, _morphism(data["m"], memo),
                            _morphism(data["i"], memo), _pairs=pairs)


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

_BASE = {BaseMorphism: ("morphism", morphism_to_data, _morphism),
         BaseObject: ("object", object_to_data, _object)}


def _encode(cls, value):
    if cls in _BASE:
        return _BASE[cls][1](value)
    return {name: _encode(held, getattr(value, name))
            for name, held in _SHAPES[cls][1].items()}


def _decode(cls, data, memo):
    if cls in _BASE:
        return _BASE[cls][2](data, memo)
    if cls is InternalGroupoid:
        return _groupoid(data, memo)
    return cls(*[_decode(held, data[name], memo)
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
    Data that names no known shape raises UnknownShapeError.  The call
    keeps one object memo (see the module docstring).
    """
    if not isinstance(data, dict):
        raise UnknownShapeError("serialized value must be a JSON object")
    keys = data.keys()
    for cls, (_, fields) in _SHAPES.items():
        if (keys == fields.keys() if cls is ArrowObject
                else keys >= fields.keys()):
            return _decode(cls, data, {})
    if keys >= {"dom", "cod", "map"}:
        return _morphism(data, {})
    if keys >= {"instance", "carrier"}:
        return _object(data, {})
    raise UnknownShapeError("unrecognized serialized value")


def to_json(value) -> str:
    """Render a package value as deterministic JSON text."""
    return json.dumps(value_to_data(value), sort_keys=True)


def from_json(text: str):
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DiagramError(f"malformed JSON: {exc}") from None
    return value_from_data(data)
