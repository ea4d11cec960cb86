"""Finite base categories: objects, morphisms, limits, and morphism classes.

Three concrete instances are supported, each regular and with all finite
limits computed by enumeration.  Each declares its capabilities, which the
code reads instead of asking which instance it holds:

* ``FINSET`` -- finite sets; none.
* ``FINPTDSET`` -- finite pointed sets (zero object: the one-point set);
  ``pointed``.
* ``FINAB`` -- finite abelian groups given by addition tables (zero
  object: the trivial group); ``pointed``, ``additive`` (objects carry
  ``add`` and ``neg`` tables, maps are additive) and ``protomodular``.
  Every addition table is a sequence of row tuples: input groups carry
  theirs, and a limit apex builds each row from its parts when first
  read.  A read of a whole apex table builds only its generators' rows
  that way and derives the rest from them, walking the cosets from zero.

Both pointed instances keep their distinguished point in one field, an
object's ``zero`` index: the basepoint of a pointed set, the zero of a
group.  Every construction that needs the point (zero maps, kernels, loops,
limits, subobjects, quotients) reads ``zero`` under ``instance.pointed``.

Everything is index-level: a carrier is an ordered tuple of hashable
elements, and a morphism stores, for each domain index, the codomain index
of its image.  Every limit has one shape: its apex holds exactly the index
tuples over its parts that solve the limit's equations, with a lookup from
each tuple to its index, and its legs are the coordinate projections.  So a
cone factors iff the tuples its legs pick out are in the lookup, and
``LimitResult.mediate``, that lookup, is the only place a cone is checked.
The apex's element carrier, FINAB ``neg`` and addition rows are built when
first read (``size`` is set at construction and builds nothing).
Morphisms are immutable, so a morphism keeps its kernel once built.  All
limit carriers are canonically ordered (lexicographically by constituent
indices), so "the same object built two ways" can be compared by
relabelling followed by equality.  Equality is one comparison for every
object: instance, size and zero, then carrier, ``neg`` and add rows, each
built if unread.  Every reflexive coequalizer is one union-find, in FINAB
too, where the classes it finds are the cosets of the cokernel.

Validation policy: values from outside the library are validated exactly,
at every size: the JSON decoder and the public constructors (finset_object,
finptdset_object, finab_object, morphism_from_function, functor,
transformation, and BaseObject and BaseMorphism given caller data).  Index
fields must be ints; bools are rejected.  The decoder validates each
distinct object once per decoded value, and it accepts a groupoid's object
of composable pairs by exact equality with the pullback of its validated
``c`` and ``d``, a limit and so valid by construction.  Everything the
library derives from valid values (limit apexes, legs and mediators,
subgroups, quotients, direct sums, the zero objects, homs, sections, the
structure maps of built groupoids) is built from indices, as a limit leg,
a composite of legs, a ``LimitResult.mediate`` (which checks its cone) or
an index table, and skips the check through the private ``_trusted=True``
that BaseObject and BaseMorphism take (and ``arrow.ArrowMorphism``, for the
squares the library builds).  BaseMorphism and ArrowMorphism get it as
their last positional argument: a keyword makes every class call build a
dict, which costs a small morphism a third of its construction.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from operator import itemgetter


class GroupoidLabError(Exception):
    """Base class for all structured errors raised by this package."""


class CompositionError(GroupoidLabError):
    """Domain/codomain mismatch in a composite or a cone."""


class CapabilityError(GroupoidLabError):
    """Operation needs a capability (e.g. a zero object) the instance lacks."""


class NoMediatorError(GroupoidLabError):
    """A cone does not factor through the limit it was aimed at."""


class DiagramError(GroupoidLabError):
    """A diagram, object, or morphism is structurally ill-formed."""


@dataclass(frozen=True)
class BaseInstance:
    """One of the finite base categories, with its declared capabilities."""

    name: str
    pointed: bool
    protomodular: bool
    # objects carry add and neg tables, and maps must be additive
    additive: bool

    def __repr__(self) -> str:
        return self.name


FINSET = BaseInstance("finset", pointed=False, protomodular=False,
                      additive=False)
FINPTDSET = BaseInstance("finptdset", pointed=True, protomodular=False,
                         additive=False)
FINAB = BaseInstance("finab", pointed=True, protomodular=True, additive=True)

_INSTANCES = {i.name: i for i in (FINSET, FINPTDSET, FINAB)}


def parse_instance(name: str) -> BaseInstance:
    if not isinstance(name, str):
        raise DiagramError(f"base instance name {name!r} is not a string")
    try:
        return _INSTANCES[name.lower()]
    except KeyError:
        raise DiagramError(f"unknown base instance {name!r}") from None


def _is_index(value, size: int) -> bool:
    """Whether a stored index is an int (not a bool) in range(size)."""
    return type(value) is int and 0 <= value < size


class BaseObject:
    """A finite carrier with instance-specific structure.

    ``carrier`` is an ordered tuple of hashable elements; the order is the
    object's identity as much as the elements are.  An object of a pointed
    instance carries its point as the ``zero`` index (a FINPTDSET basepoint,
    a FINAB zero), and a FINSET object holds None there.  FINAB objects also
    carry ``add``/``neg`` tables (validated abelian-group axioms), and the
    other instances carry none.  A limit apex builds
    its ``carrier`` and FINAB ``neg`` when they are first read; ``size`` is
    known from the start and builds nothing.

    >>> X = finset_object(["a", "b"])
    >>> X.size
    2
    >>> Z4 = zmod(4)
    >>> Z4.add[1][3]
    0
    """

    __slots__ = ("instance", "size", "add", "zero", "_carrier", "_elements",
                 "_neg", "_index", "_gens")

    def __init__(self, instance, carrier, add=None, neg=None, zero=None,
                 _trusted=False):
        self.instance = instance
        self._carrier = tuple(carrier)
        self._elements = None
        self.size = len(self._carrier)
        self.add = add
        self._neg = neg
        self.zero = zero
        self._index = None
        self._gens = None
        if not _trusted:
            self._validate()

    @property
    def carrier(self) -> tuple:
        if self._carrier is None:
            self._carrier = tuple(self._elements())
            self._elements = None
        return self._carrier

    @property
    def neg(self):
        if self._neg is None and type(self.add) is _TupleAddTable:
            self._neg = tuple(self.add.negs())
        return self._neg

    # -- construction-time validation ------------------------------------

    def _validate(self) -> None:
        seen = set()
        for x in self.carrier:
            if x in seen:
                raise DiagramError("carrier has duplicate elements")
            seen.add(x)
        inst = self.instance
        if inst not in _INSTANCES.values():
            raise DiagramError(f"unknown instance {inst!r}")
        if inst.additive:
            self._validate_group()
        elif self.add is not None or self._neg is not None:
            raise DiagramError(f"{inst.name} objects carry no add/neg tables")
        elif inst.pointed:
            if not _is_index(self.zero, self.size):
                raise DiagramError("a pointed set needs a basepoint index")
        elif self.zero is not None:
            raise DiagramError("finset objects carry no distinguished point")

    def _validate_group(self) -> None:
        n = self.size
        if n == 0:
            raise DiagramError("a group carrier cannot be empty")
        add, neg, zero = self.add, self.neg, self.zero
        if add is None or neg is None or zero is None:
            raise DiagramError("finab object needs add/neg tables and zero")
        if len(add) != n or any(len(r) != n for r in add) or len(neg) != n:
            raise DiagramError("group table shape mismatch")
        rng = range(n)
        if not (all(_is_index(v, n) for row in add for v in row)
                and all(_is_index(v, n) for v in neg) and _is_index(zero, n)):
            raise DiagramError("group table entry is not an int index in range")
        for i in rng:
            if add[i][zero] != i or add[zero][i] != i:
                raise DiagramError("zero is not a unit for the table")
            if add[i][neg[i]] != zero:
                raise DiagramError("neg table is not an inverse")
            for j in rng:
                if add[i][j] != add[j][i]:
                    raise DiagramError("addition table is not commutative")
        # Light's associativity test: the elements a with (x+a)+y = x+(a+y)
        # for all x, y include zero and are closed under sums, and the greedy
        # walk reaches every element from zero by adding generators, so
        # testing the generators decides associativity exactly.
        for g in self.generating_sequence():
            g_row = add[g]
            for x in rng:
                lhs = add[add[x][g]]
                x_row = add[x]
                if any(lhs[y] != x_row[g_row[y]] for y in rng):
                    raise DiagramError("addition table is not associative")

    # -- basics -----------------------------------------------------------

    def index_of(self, element) -> int:
        if self._index is None:
            self._index = {x: i for i, x in enumerate(self.carrier)}
        try:
            return self._index[element]
        except KeyError:
            raise DiagramError(f"element {element!r} is not in the carrier") from None

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not (isinstance(other, BaseObject)
                and self.instance is other.instance
                and self.size == other.size
                and self.zero == other.zero):
            return False
        add = self.add
        return (self.carrier == other.carrier and self.neg == other.neg
                and (add is None or list(add) == list(other.add)))

    def __hash__(self) -> int:
        return hash((self.instance.name, self.carrier))

    def __repr__(self) -> str:
        return f"<{self.instance.name}[{self.size}]>"

    # -- group helpers (FINAB) ---------------------------------------------

    def zero_element(self):
        if self.instance.pointed:
            return self.carrier[self.zero]
        raise CapabilityError("finset objects have no distinguished point")

    def generating_sequence(self) -> list[int]:
        """Greedy generating sequence of indices (FINAB).

        Short (length <= log2 n), used for additivity checks and hom
        enumeration without any normal-form machinery.
        """
        if self._gens is None:
            if not self.instance.additive:
                raise CapabilityError("generating sequences exist only in finab")
            self._gens = _coset_walk(self.zero, self.add, range(self.size))[1]
        return self._gens


def _coset_walk(zero: int, add, candidates) -> tuple[dict, list[int]]:
    """The subgroup the candidates generate, and the candidates that grew it.

    ``add[i]`` is the addition row of i.  A candidate already in the span
    is skipped; otherwise <i> is adjoined by walking the cosets span,
    span+i, span+2i, ... until one lands back inside, so the union is the
    enlarged subgroup.  Each step costs the size of the span it adds.  The
    span maps each element y it reached to the pair (x, i) with y = x + i,
    x reached before y (zero maps to None).
    """
    span: dict = {zero: None}
    grew: list[int] = []
    for i in candidates:
        if i in span:
            continue
        grew.append(i)
        row = add[i]
        layer = list(span)
        while True:
            step = [row[x] for x in layer]
            fresh = [(y, (x, i)) for x, y in zip(layer, step) if y not in span]
            if not fresh:
                break
            span.update(fresh)
            layer = step
    return span, grew


class BaseMorphism:
    """A structure-preserving map, stored as a tuple of codomain indices.

    Composition is written in diagram order throughout the package:
    ``compose(f, g)`` is "f then g".  A morphism is immutable, so it keeps
    its preimage buckets and its kernel once built.

    >>> X = finset_object([0, 1]); Y = finset_object(["p"])
    >>> f = morphism_from_function(X, Y, lambda x: "p")
    >>> f(1)
    'p'
    """

    __slots__ = ("dom", "cod", "map", "_preimages", "_kernel")

    def __init__(self, dom: BaseObject, cod: BaseObject, map,
                 _trusted=False):
        self.dom = dom
        self.cod = cod
        self.map = tuple(map)
        self._preimages = None
        self._kernel = None
        if not _trusted:
            self._validate()

    def _validate(self) -> None:
        if self.dom.instance is not self.cod.instance:
            raise DiagramError("morphism crosses base instances")
        if len(self.map) != self.dom.size:
            raise DiagramError("morphism table length mismatch")
        n = self.cod.size
        if not all(_is_index(j, n) for j in self.map):
            raise DiagramError("morphism image is not an int index in range")
        dom, cod, f = self.dom, self.cod, self.map
        if dom.instance.pointed and f[dom.zero] != cod.zero:
            raise DiagramError("map does not preserve the basepoint (zero)")
        if dom.instance.additive:
            # Additivity on (everything) x (generators) implies additivity.
            for g in dom.generating_sequence():
                dom_g, cod_g = dom.add[g], cod.add[f[g]]
                if any(f[dom_g[x]] != cod_g[f[x]] for x in range(dom.size)):
                    raise DiagramError("map is not additive")

    def __call__(self, element):
        return self.cod.carrier[self.map[self.dom.index_of(element)]]

    def preimages(self) -> list[list[int]]:
        """Domain indices bucketed by image index (ascending in each bucket)."""
        if self._preimages is None:
            buckets: list[list[int]] = [[] for _ in range(self.cod.size)]
            for i, j in enumerate(self.map):
                buckets[j].append(i)
            self._preimages = buckets
        return self._preimages

    def __eq__(self, other) -> bool:
        return self is other or (
            isinstance(other, BaseMorphism) and self.map == other.map
            and self.dom == other.dom and self.cod == other.cod)

    def __hash__(self) -> int:
        return hash((hash(self.dom), hash(self.cod), self.map))

    def __repr__(self) -> str:
        return f"<map {self.dom!r}->{self.cod!r}>"


# ---------------------------------------------------------------------------
# constructors


def finset_object(elements) -> BaseObject:
    return BaseObject(FINSET, elements)


def finptdset_object(elements, basepoint_index: int = 0) -> BaseObject:
    return BaseObject(FINPTDSET, elements, zero=basepoint_index)


def finab_object(elements, add, neg, zero) -> BaseObject:
    return BaseObject(FINAB, elements, add=tuple(tuple(r) for r in add),
                      neg=tuple(neg), zero=zero)


def _check_order(n) -> None:
    """Reject a cyclic group order that is not an int (or is a bool) >= 1."""
    if type(n) is not int:
        raise DiagramError(f"cyclic group order must be an int, not {n!r}")
    if n < 1:
        raise DiagramError("cyclic group order must be >= 1")


def zmod(n: int) -> BaseObject:
    """The cyclic group of order n on carrier 0..n-1."""
    _check_order(n)
    rng = range(n)
    add = tuple(tuple((i + j) % n for j in rng) for i in rng)
    neg = tuple((-i) % n for i in rng)
    return BaseObject(FINAB, rng, add=add, neg=neg, zero=0, _trusted=True)


def direct_sum(a: BaseObject, b: BaseObject) -> BaseObject:
    """Componentwise group structure on the pair carrier (lexicographic)."""
    if not (a.instance.additive and b.instance.additive):
        raise CapabilityError("direct_sum is a finab construction")
    return product(a, b).apex


def subobject_limit(parent: BaseObject, indices) -> LimitResult:
    """The subobject on a set of indices as a limit: the inclusion "incl"
    and the lookup ``{(i,): k}``; a cone mediates when it lands inside.

    Parent order is kept.  Each index must be an int in range; a pointed
    subobject must keep the zero, and a FINAB one must be a subgroup
    (closed under the group structure).  A finite set S holding zero is a
    subgroup iff the subgroup it generates is no larger.
    """
    indices = list(indices)
    # None when some index is not an int (a bool, a float, ...)
    idx = sorted(set(indices)) if set(map(type, indices)) <= {int} else None
    if idx is None or idx and not (0 <= idx[0] and idx[-1] < parent.size):
        raise DiagramError("subobject indices must be int indices in range")
    if parent.instance.pointed and parent.zero not in idx:
        raise DiagramError("a pointed subobject must keep the zero")
    if (parent.instance.additive
            and len(_coset_walk(parent.zero, parent.add, idx)[0]) != len(idx)):
        raise DiagramError("subset is not closed under the group structure")
    return _tuple_limit(("incl",), [parent], [(i,) for i in idx],
                        lambda: map(parent.carrier.__getitem__, idx))


def generated_subgroup_indices(obj: BaseObject, seed_indices) -> list[int]:
    """Indices of the subgroup generated by a set of indices (FINAB)."""
    if not obj.instance.additive:
        raise CapabilityError("subgroups are a finab construction")
    seed_indices = list(seed_indices)
    if not all(_is_index(i, obj.size) for i in seed_indices):
        raise DiagramError("subgroup generators must be int indices in range")
    return sorted(_coset_walk(obj.zero, obj.add, seed_indices)[0])


def quotient_by_subgroup(obj: BaseObject, indices):
    """Quotient by the subgroup ``indices`` generate, and its projection.

    Cosets are named by their least-index member (see ``_quotient``).
    """
    sub = generated_subgroup_indices(obj, indices)
    proj = _quotient(obj, (p for s in sub for p in enumerate(obj.add[s])))
    return proj.cod, proj


def _quotient(obj: BaseObject, pairs) -> BaseMorphism:
    """The projection onto obj modulo the equivalence ``pairs`` generates.

    One union-find merges each index pair into the smaller root, so a class
    is named by its least member, and the quotient lists its classes in
    that order.  The classes must respect the structure (in FINAB, the
    cosets of a subgroup), so the quotient's zero and tables are read off
    the least members, and it is built trusted.
    """
    parent = list(range(obj.size))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for x, y in pairs:
        a, b = find(x), find(y)
        if a != b:
            parent[max(a, b)] = min(a, b)
    rep = [find(i) for i in range(obj.size)]
    reps = sorted(set(rep))
    pos = {r: k for k, r in enumerate(reps)}
    proj = [pos[r] for r in rep]
    inst, add, neg = obj.instance, None, None
    if inst.additive:
        add = tuple(tuple(proj[obj.add[a][b]] for b in reps) for a in reps)
        neg = tuple(proj[obj.neg[a]] for a in reps)
    q_obj = BaseObject(inst, [obj.carrier[r] for r in reps], add=add, neg=neg,
                       zero=proj[obj.zero] if inst.pointed else None,
                       _trusted=True)
    return BaseMorphism(obj, q_obj, proj, True)


def zero_object(instance: BaseInstance) -> BaseObject:
    if instance not in _INSTANCES.values():
        raise DiagramError(f"{instance!r} is not a base instance")
    if not instance.pointed:
        raise CapabilityError("finset has no zero object")
    if instance.additive:
        return zmod(1)
    return BaseObject(instance, ["*"], zero=0, _trusted=True)


def identity(obj: BaseObject) -> BaseMorphism:
    return BaseMorphism(obj, obj, range(obj.size), True)


def zero_morphism(dom: BaseObject, cod: BaseObject) -> BaseMorphism:
    if dom.instance is not cod.instance:
        raise DiagramError("zero morphism crosses base instances")
    if not dom.instance.pointed:
        raise CapabilityError("finset has no zero morphisms")
    return BaseMorphism(dom, cod, [cod.zero] * dom.size, True)


def morphism_from_function(dom: BaseObject, cod: BaseObject, fn) -> BaseMorphism:
    """Build and validate the index table of an element-level function."""
    return BaseMorphism(dom, cod, [cod.index_of(fn(x)) for x in dom.carrier])


def compose(*morphisms: BaseMorphism) -> BaseMorphism:
    """Composite in diagram order: compose(f, g)(x) = g(f(x))."""
    if not morphisms:
        raise CompositionError("empty composite")
    out = morphisms[0]
    for g in morphisms[1:]:
        if out.cod is not g.dom and out.cod != g.dom:
            raise CompositionError("codomain/domain mismatch in composite")
        out = BaseMorphism(out.dom, g.cod, [g.map[j] for j in out.map],
                           True)
    return out


# ---------------------------------------------------------------------------
# limits


class _TupleAddTable:
    """Componentwise addition on the index-tuple carrier of a limit apex.

    A sequence of row tuples, like an input's table, but row i is built
    from the parts' rows when first read and then kept, so a table costs
    the rows read of it.  Readers that add one fixed g to many x read row
    g (the groups are commutative), and a read through nested apexes
    builds only the parts' rows it needs.  A read of the whole table
    derives every row but the generators' (see ``__iter__``).
    """

    __slots__ = ("parts", "tuples", "lookup", "zero", "_rows", "_columns")

    def __init__(self, parts, tuples, lookup, zero):
        self.parts = tuple(parts)
        self.tuples = tuples
        self.lookup = lookup
        self.zero = zero
        self._rows = {}
        self._columns = None

    def __getitem__(self, i):
        row = self._rows.get(i)
        if row is None:
            if self._columns is None:
                self._columns = tuple(zip(*self.tuples))
            # entry j: tuples[i] + tuples[j] part by part, looked up here
            sums = [map(p.add[x].__getitem__, column) for p, x, column
                    in zip(self.parts, self.tuples[i], self._columns)]
            try:
                row = tuple(map(self.lookup.__getitem__, zip(*sums)))
            except KeyError:
                raise DiagramError("limit carrier is not sum-closed") from None
            self._rows[i] = row
        return row

    def negs(self):
        """The neg table, each entry looked up from the parts' negs."""
        negs = [p.neg for p in self.parts]
        try:
            return [self.lookup[tuple([n[i] for n, i in zip(negs, t)])]
                    for t in self.tuples]
        except KeyError:
            raise DiagramError("limit carrier is not sum-closed") from None

    def __len__(self):
        return len(self.tuples)

    def __iter__(self):
        """Every row, the unread ones derived rather than looked up.

        The zero row is the identity and a generator's row is looked up by
        ``__getitem__``.  Walking the cosets from zero, the row of y = x + g
        is row x read through row g, as (x + g) + z = x + (g + z) holds in
        the apex's componentwise addition, its parts being groups.
        """
        n, rows = len(self.tuples), self._rows
        if len(rows) < n:
            span = _coset_walk(self.zero, self, range(n))[0]
            rows.setdefault(self.zero, tuple(range(n)))
            for y, step in span.items():
                if y not in rows:  # so not zero, whose step is None
                    x, g = step
                    rows[y] = itemgetter(*rows[g])(rows[x])
        return map(rows.__getitem__, range(n))


def _tuple_elements(parts, tuples):
    """The element carrier of a limit apex: each index tuple read in its parts."""
    carriers = [p.carrier for p in parts]
    return [tuple([c[i] for c, i in zip(carriers, t)]) for t in tuples]


def _tuple_limit(names, parts, tuples, elements=None):
    """The limit whose apex is the given index tuples over ``parts``.

    The apex's ``lookup`` is ``{index tuple: index}`` and its legs, named by
    ``names``, are the coordinate projections.  The element carrier
    (``elements()``, or each tuple read in the parts), a FINAB ``neg``
    table and each row of a FINAB ``add`` table are built when first read.
    A pointed apex's zero is the tuple of its parts' zeros.
    """
    tuples = tuple(tuples)
    lookup = {t: i for i, t in enumerate(tuples)}
    instance = parts[0].instance
    apex = BaseObject(instance, (), _trusted=True)
    apex._carrier, apex.size = None, len(tuples)
    apex._elements = elements or (lambda: _tuple_elements(parts, tuples))
    if instance.pointed:
        apex.zero = lookup.get(tuple([p.zero for p in parts]))
        if apex.zero is None:
            raise DiagramError("limit carrier lost the zero")
    if instance.additive:
        apex.add = _TupleAddTable(parts, tuples, lookup, apex.zero)
    columns = zip(*tuples) if tuples else [()] * len(parts)
    legs = {name: BaseMorphism(apex, part, column, True)
            for name, part, column in zip(names, parts, columns)}
    return LimitResult(apex, legs, lookup)


class LimitResult:
    """A computed limit: apex object, named legs, and its one mediator.

    ``legs`` maps leg names to the coordinate projections out of the apex;
    ``lookup`` maps the tuple of leg indices of each apex element (legs in
    order) to its index, in apex order.  The apex holds exactly the tuples
    that solve the limit's equations, so a cone factors iff the tuple its
    legs pick out at each source element is in ``lookup``: ``mediate`` is
    that lookup, and the only place a cone is checked.
    """

    def __init__(self, apex: BaseObject, legs: dict, lookup: dict):
        self.apex = apex
        self.legs = dict(legs)
        self.lookup = lookup

    def mediate(self, cone: dict) -> BaseMorphism:
        """The unique factorization of a cone (leg name -> morphism).

        Names that are not legs are ignored.  A leg into the wrong object or
        legs from different sources raise CompositionError; a missing leg or
        a cone that does not land raise NoMediatorError.  Of two broken
        rules the first of these raises: a mistyped leg, a missing leg,
        different sources, a cone that does not land.
        """
        maps, source, missing, mixed = [], None, None, False
        for name, leg in self.legs.items():
            u = cone.get(name)
            if u is None:
                if missing is None:
                    missing = name
            elif u.cod is not leg.cod and u.cod != leg.cod:
                raise CompositionError(f"cone leg {name!r}: codomain mismatch")
            else:
                if source is None:
                    source = u.dom
                elif u.dom is not source and u.dom != source:
                    mixed = True
                maps.append(u.map)
        if missing is not None:
            raise NoMediatorError(f"cone has no leg {missing!r}")
        if mixed:
            raise CompositionError("cone legs have different sources")
        try:
            table = list(map(self.lookup.__getitem__, zip(*maps)))
        except KeyError:
            raise NoMediatorError("cone does not land in the limit") from None
        return BaseMorphism(source, self.apex, table, True)


def pullback(f: BaseMorphism, g: BaseMorphism) -> LimitResult:
    """Pullback of a cospan; apex carrier = pairs (x, y) with f(x) = g(y).

    Legs are named "p1" (to dom f) and "p2" (to dom g); pairs are ordered
    lexicographically by (index in dom f, index in dom g).
    """
    if f.cod is not g.cod and f.cod != g.cod:
        raise CompositionError("pullback needs a common codomain")
    buckets = g.preimages()
    return _tuple_limit(("p1", "p2"), [f.dom, g.dom],
                        [(i, j) for i in range(f.dom.size)
                         for j in buckets[f.map[i]]])


def product(a: BaseObject, b: BaseObject) -> LimitResult:
    """Binary product as the pullback over the terminal shape (all pairs)."""
    if a.instance is not b.instance:
        raise DiagramError("product crosses base instances")
    return _tuple_limit(("p1", "p2"), [a, b],
                        [(i, j) for i in range(a.size) for j in range(b.size)])


def comma(left: BaseMorphism, d: BaseMorphism, c: BaseMorphism,
          right: BaseMorphism, names) -> LimitResult:
    """The comma object of two cospans that share a middle object M.

    Its apex holds the triples (x, m, y) with left x = d m and right y = c m,
    lexicographic in (x, m, y), and its three legs, named by ``names``, run
    to dom left, M and dom right.  Each element reads (x, m, y, d m, c m) in
    the five objects, so the two base coordinates stay in the carrier.
    """
    if ((left.cod is not d.cod and left.cod != d.cod)
            or (right.cod is not c.cod and right.cod != c.cod)
            or (d.dom is not c.dom and d.dom != c.dom)):
        raise CompositionError("comma needs left, d and right, c to share "
                               "codomains, and d, c a domain")
    fibres, ends_at, dm, cm = d.preimages(), right.preimages(), d.map, c.map
    tuples = tuple([(x, m, y) for x, b in enumerate(left.map)
                    for m in fibres[b] for y in ends_at[cm[m]]])
    ends = (left.dom, d.dom, right.dom, d.cod, c.cod)

    def elements():
        xs, ms, ys, ds, cs = (o.carrier for o in ends)
        return [(xs[x], ms[m], ys[y], ds[dm[m]], cs[cm[m]])
                for x, m, y in tuples]

    return _tuple_limit(names, ends[:3], tuples, elements)


def kernel(f: BaseMorphism) -> LimitResult:
    """Kernel of a morphism in a pointed instance, as a subobject.

    The apex keeps the domain's carrier order; the single leg is named
    "ker" (the inclusion).  A morphism keeps its kernel once built: later
    calls return the same limit, whose ``mediate`` checks every cone.
    """
    if f._kernel is not None:
        return f._kernel
    if not f.dom.instance.pointed:
        raise CapabilityError("kernels need a pointed instance")
    z = f.cod.zero
    sub = subobject_limit(f.dom, [i for i, j in enumerate(f.map) if j == z])
    f._kernel = LimitResult(sub.apex, {"ker": sub.legs["incl"]}, sub.lookup)
    return f._kernel


def reflexive_coequalizer(d: BaseMorphism, c: BaseMorphism,
                          e: BaseMorphism) -> BaseMorphism:
    """Coequalizer of a reflexive pair; returns the quotient projection.

    The quotient of the codomain by the equivalence generated by
    d(x) ~ c(x): ``_quotient`` merges the pairs (d x, c x).  In FINAB they
    form a subgroup of the codomain squared that holds the diagonal (through
    e), so their classes are the cosets of {c x - d x}: the cokernel of d - c.
    """
    if d.dom != c.dom or d.cod != c.cod:
        raise CompositionError("parallel pair is mistyped")
    if e.dom != d.cod or e.cod != d.dom:
        raise CompositionError("section is mistyped")
    if compose(e, d) != identity(d.cod) or compose(e, c) != identity(d.cod):
        raise DiagramError("the pair is not reflexive along the section")
    return _quotient(d.cod, zip(d.map, c.map))


# ---------------------------------------------------------------------------
# morphism classes


@dataclass(frozen=True)
class MorphismFlags:
    """Morphism flags; ``split_epi`` is decided when read (not in eq or repr)."""

    mono: bool
    regular_epi: bool
    iso: bool
    morphism: BaseMorphism = field(repr=False, compare=False)

    @cached_property
    def split_epi(self) -> bool:
        # The inverse of an additive bijection is additive, so an iso splits.
        f = self.morphism
        return self.regular_epi and (self.iso or not f.dom.instance.additive
                                     or additive_section(f) is not None)


def additive_section(f: BaseMorphism):
    """An additive section of a FINAB map, or None.

    Exhaustive over images of a generating sequence of the codomain, each
    taken from its fibre; the first choice that closes into a homomorphism
    is a section, since it fixes every generator.  A map that is not onto
    misses a generator, whose empty fibre leaves no choice.
    """
    fibers = f.preimages()
    candidates = [fibers[g] for g in f.cod.generating_sequence()]
    return next(_closed_homs(f.cod, f.dom, candidates), None)


def split_section(f: BaseMorphism):
    """A section of f (basepoint-respecting in pointed instances), or None."""
    if set(f.map) != set(range(f.cod.size)):
        return None
    inst = f.dom.instance
    if inst.additive:
        return additive_section(f)
    table = [-1] * f.cod.size
    for i, j in enumerate(f.map):
        if table[j] < 0:
            table[j] = i
    if inst.pointed:
        table[f.cod.zero] = f.dom.zero
    return BaseMorphism(f.cod, f.dom, table, True)


def classify_morphism(f: BaseMorphism) -> MorphismFlags:
    """Mono / regular-epi / split-epi / iso flags of a base morphism.

    In all three instances regular epi = surjective and mono = injective;
    split epi = surjective except in FINAB, where an additive section must
    exist.  That is decided only when ``flags.split_epi`` is read: an iso
    splits at once, another FINAB epi by the search of ``additive_section``.
    """
    image = set(f.map)
    mono = len(image) == len(f.map)
    epi = len(image) == f.cod.size
    return MorphismFlags(mono=mono, regular_epi=epi, iso=mono and epi,
                         morphism=f)


def jointly_strongly_epi(morphisms) -> bool:
    """Whether a family into a common codomain is jointly strongly epic.

    Union of images covers the codomain (FINSET/FINPTDSET); in FINAB the
    images must generate the codomain as a subgroup.  Images of homs are
    subgroups and |S + T| = |S| |T| / |S & T|: with S generated by all
    images but the last (for two maps, the first image, with no coset walk;
    for one map, 0) and T the last image, test |S| |T| = |cod| |S & T|.
    """
    ms = list(morphisms)
    if not ms:
        raise CompositionError("empty family")
    cod, hit = ms[-1].cod, set()
    for m in ms[:-1]:
        if m.cod is not cod and m.cod != cod:
            raise CompositionError("family has mixed codomains")
        hit.update(m.map)
    last = set(ms[-1].map)
    if not cod.instance.additive:
        return len(hit | last) == cod.size
    if len(ms) != 2:
        hit = set(generated_subgroup_indices(cod, hit))
    return len(hit) * len(last) == cod.size * len(hit & last)


# ---------------------------------------------------------------------------
# morphism enumeration (small-scale oracles and searches)


def enumerate_morphisms(dom: BaseObject, cod: BaseObject):
    """Yield every base morphism dom -> cod (use only at desk scale)."""
    if dom.instance is not cod.instance:
        raise DiagramError("enumeration crosses base instances")
    inst = dom.instance
    if inst.additive:
        candidates = []
        for g in dom.generating_sequence():
            og = _element_order(dom, g)
            candidates.append([b for b in range(cod.size)
                               if og % _element_order(cod, b) == 0])
        yield from _closed_homs(dom, cod, candidates)
        return
    slots = []
    for i in range(dom.size):
        if inst.pointed and i == dom.zero:
            slots.append((cod.zero,))
        else:
            slots.append(range(cod.size))
    for table in itertools.product(*slots):
        yield BaseMorphism(dom, cod, table, True)


def _element_order(obj: BaseObject, i: int) -> int:
    n, x, row = 1, i, obj.add[i]
    while x != obj.zero:
        x = row[x]
        n += 1
    return n


def _closed_homs(dom: BaseObject, cod: BaseObject, candidates):
    """Every FINAB hom dom -> cod with generator images from ``candidates``.

    ``candidates`` holds one list of codomain indices per generator of dom.
    Each choice is closed from zero along the generators and dropped when
    two paths disagree; a closed table is additive on (everything) x
    (generators), the additivity test of BaseMorphism, so it is a hom.
    """
    gens = dom.generating_sequence()

    def close(images):
        hom = {dom.zero: cod.zero}
        frontier = [dom.zero]
        rows = [(dom.add[g], cod.add[img]) for g, img in zip(gens, images)]
        while frontier:
            x = frontier.pop()
            for dom_g, cod_img in rows:
                y = dom_g[x]
                v = cod_img[hom[x]]
                if y in hom:
                    if hom[y] != v:
                        return None
                else:
                    hom[y] = v
                    frontier.append(y)
        return hom

    for images in itertools.product(*candidates):
        hom = close(images)
        if hom is not None:
            yield BaseMorphism(dom, cod, [hom[i] for i in range(dom.size)],
                               True)
