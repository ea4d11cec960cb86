"""Internal groupoids, functors, and transformations over a base instance.

An internal groupoid is a tuple (B0, B1, d, c, e, m, i) of base objects and
morphisms: arrows B1 over objects B0 with source d, target c, unit e,
composition m, and inverse i.  Composition is defined on the canonical
pullback of c against d, whose carrier consists of pairs (x, y) with
c(x) = d(y), and is written in diagram order: m(x, y) is "x then y".

Validators return lists of named axioms that fail instead of raising, so
corrupted structures can be diagnosed; constructors in this module always
produce valid structures.
"""

from __future__ import annotations

from operator import getitem

from .base import (BaseMorphism, BaseObject, CapabilityError, DiagramError,
                   LimitResult, _INSTANCES, _check_order, compose,
                   finset_object, identity, morphism_from_function, product,
                   pullback, reflexive_coequalizer, subobject_limit,
                   zero_morphism, zero_object, zmod)


class InternalGroupoid:
    """Arrows B1 over objects B0 with the five structure maps.

    ``m.dom`` must be the canonical pullback carrier of composable pairs; the
    structure maps take elements (``g.e(obj)``, ``g.i(x)``), and ``mul`` checks
    that two arrows compose.  A groupoid built by the library (``_assemble``)
    has structure maps built from indices, keeps its composition on arrow
    indices and fills the table of ``m`` (trusted) on first read; one built
    from outside data is given its table.  The private ``_pairs=`` hands over a
    ``pullback(c, d)`` already built (the JSON decoder's).

    >>> g = discrete_groupoid(finset_object(["p", "q"]))
    >>> g.e("p")
    'p'
    """

    __slots__ = ("B0", "B1", "d", "c", "e", "i", "_m", "_mul", "_pairs")

    def __init__(self, B0, B1, d, c, e, m, i, _pairs=None):
        self.B0 = B0
        self.B1 = B1
        self.d = d
        self.c = c
        self.e = e
        self.i = i
        self._m = m
        self._mul = None
        self._pairs = _pairs

    @property
    def m(self) -> BaseMorphism:
        if self._m is None:
            pairs = self.composition_pairs()
            table = list(map(self._mul, pairs.legs["p1"].map,
                             pairs.legs["p2"].map))
            self._m = BaseMorphism(pairs.apex, self.B1, table, True)
        return self._m

    @property
    def instance(self):
        return self.B0.instance

    def composition_pairs(self) -> LimitResult:
        """The canonical composable-pairs pullback (cached)."""
        if self._pairs is None:
            self._pairs = pullback(self.c, self.d)
        return self._pairs

    def mul(self, x, y):
        b1 = self.B1
        xi, yi = b1.index_of(x), b1.index_of(y)
        if self.c.map[xi] != self.d.map[yi]:
            raise DiagramError(f"arrows {x!r}, {y!r} are not composable")
        return b1.carrier[_index_mul(self)(xi, yi)]

    def __eq__(self, other):
        return self is other or (
            isinstance(other, InternalGroupoid)
            and all(getattr(self, a) == getattr(other, a)
                    for a in ("B0", "B1", "d", "c", "e", "m", "i")))

    def __hash__(self):
        return hash((self.B0, self.B1, self.d.map, self.c.map))

    def __repr__(self):
        return (f"<groupoid {self.instance.name} |B0|={self.B0.size} "
                f"|B1|={self.B1.size}>")


def validate_groupoid(g: InternalGroupoid) -> list[str]:
    """Names of groupoid axioms that fail (empty list = valid groupoid).

    Typing problems are reported as "source-map" / "target-map" /
    "identity-map" / "inverse-map" / "composition-carrier" and abort the
    deeper checks they would crash.
    """
    bad = _typing_failures(g)
    if bad:
        return bad
    n0, n1 = g.B0.size, g.B1.size
    pairs = g.composition_pairs()
    lookup = pairs.lookup
    p1, p2 = pairs.legs["p1"].map, pairs.legs["p2"].map
    d, c, e, m, i = g.d.map, g.c.map, g.e.map, g.m.map, g.i.map

    if any(d[e[o]] != o for o in range(n0)):
        bad.append("identity-source")
    if any(c[e[o]] != o for o in range(n0)):
        bad.append("identity-target")

    comp_src = any(d[m[k]] != d[x] for k, x in enumerate(p1))
    comp_tgt = any(c[m[k]] != c[y] for k, y in enumerate(p2))
    if comp_src:
        bad.append("composition-source")
    if comp_tgt:
        bad.append("composition-target")

    # with a broken identity law the unit pairs need not be composable
    units = ((f, lookup.get((e[d[f]], f)), lookup.get((f, e[c[f]])))
             for f in range(n1))
    if any(left is None or right is None or m[left] != f or m[right] != f
           for f, left, right in units):
        bad.append("unit-law")

    if not comp_src and not comp_tgt:
        by_source: list[list[int]] = [[] for _ in range(n0)]
        for h in range(n1):
            by_source[d[h]].append(h)
        if any(m[lookup[(m[k], h)]] != m[lookup[(x, m[lookup[(y, h)]])]]
               for k, (x, y) in enumerate(zip(p1, p2))
               for h in by_source[c[y]]):
            bad.append("associativity")

    if any(d[i[f]] != c[f] for f in range(n1)):
        bad.append("inverse-source")
    if any(c[i[f]] != d[f] for f in range(n1)):
        bad.append("inverse-target")
    inverses = ((f, lookup.get((f, i[f])), lookup.get((i[f], f)))
                for f in range(n1))
    if any(right is None or left is None
           or m[right] != e[d[f]] or m[left] != e[c[f]]
           for f, right, left in inverses):
        bad.append("inverse-law")
    return bad


def _typing_failures(g: InternalGroupoid) -> list[str]:
    """Names of the structure maps of g that are mistyped."""
    bad: list[str] = []
    b0, b1 = g.B0, g.B1
    if g.d.dom != b1 or g.d.cod != b0:
        bad.append("source-map")
    if g.c.dom != b1 or g.c.cod != b0:
        bad.append("target-map")
    if g.e.dom != b0 or g.e.cod != b1:
        bad.append("identity-map")
    if g.i.dom != b1 or g.i.cod != b1:
        bad.append("inverse-map")
    # an unbuilt composition table is built on the pairs apex, so typed
    m = g._m
    if not bad and m is not None and (m.dom != g.composition_pairs().apex
                                      or m.cod != b1):
        bad.append("composition-carrier")
    return bad


class InternalFunctor:
    """A pair (F0, F1) of base morphisms commuting with all structure maps.

    A functor keeps the squares of its codomain once a strong h-pullback
    of it has built them, so its T and J share them: the n^3 |G|^2 with an
    identity top, not all n^4 |G|^3 of a connected codomain with n objects
    and vertex group G.  The codomain does not keep them: the squares
    refer back to the codomain, and that cycle would leave every such
    groupoid to the cycle collector.
    """

    __slots__ = ("dom", "cod", "F0", "F1", "_squares")

    def __init__(self, dom: InternalGroupoid, cod: InternalGroupoid,
                 F0: BaseMorphism, F1: BaseMorphism):
        self.dom = dom
        self.cod = cod
        self.F0 = F0
        self.F1 = F1
        self._squares = None

    def __eq__(self, other):
        return (isinstance(other, InternalFunctor) and self.dom == other.dom
                and self.cod == other.cod and self.F0 == other.F0
                and self.F1 == other.F1)

    def __hash__(self):
        return hash((self.F0.map, self.F1.map))

    def __repr__(self):
        return f"<functor {self.dom!r} -> {self.cod!r}>"


def validate_functor(fun: InternalFunctor) -> list[str]:
    """Names of functor axioms that fail (empty list = valid functor).

    A mistyped structure map of either groupoid is reported under its
    validate_groupoid name and aborts the checks it would crash.
    """
    bad = _functor_typing_failures(fun)
    if bad:
        return bad
    a, b = fun.dom, fun.cod
    if compose(fun.F1, b.d) != compose(a.d, fun.F0):
        bad.append("functor-source")
    if compose(fun.F1, b.c) != compose(a.c, fun.F0):
        bad.append("functor-target")
    if compose(a.e, fun.F1) != compose(fun.F0, b.e):
        bad.append("functor-identity")
    if "functor-source" not in bad and "functor-target" not in bad:
        # F1 then sends composable pairs to composable pairs
        amul, bmul, f1 = _index_mul(a), _index_mul(b), fun.F1.map
        legs = a.composition_pairs().legs
        if any(f1[amul(x, y)] != bmul(f1[x], f1[y])
               for x, y in zip(legs["p1"].map, legs["p2"].map)):
            bad.append("functor-composition")
    return bad


def _functor_typing_failures(fun: InternalFunctor) -> list[str]:
    """Typing failures of either groupoid, or "functor-typing"."""
    a, b = fun.dom, fun.cod
    bad = _typing_failures(a) or _typing_failures(b)
    if not bad and (fun.F0.dom != a.B0 or fun.F0.cod != b.B0
                    or fun.F1.dom != a.B1 or fun.F1.cod != b.B1):
        bad.append("functor-typing")
    return bad


class NatTransformation:
    """A 2-cell between parallel functors: a map alpha of objects to arrows.

    alpha(x) runs from source-functor image to target-functor image;
    naturality is the usual exchange law stated internally on A1.
    """

    __slots__ = ("source", "target", "alpha")

    def __init__(self, source: InternalFunctor, target: InternalFunctor,
                 alpha: BaseMorphism):
        self.source = source
        self.target = target
        self.alpha = alpha

    def __eq__(self, other):
        return (isinstance(other, NatTransformation)
                and self.source == other.source and self.target == other.target
                and self.alpha == other.alpha)

    def __repr__(self):
        return "<2-cell>"


def validate_transformation(cell: NatTransformation) -> list[str]:
    """Names of 2-cell axioms that fail (empty list = valid).  A source or
    target that is no functor, so that a pair fails to compose, raises."""
    f, g = cell.source, cell.target
    if f.dom != g.dom or f.cod != g.cod:
        return ["transformation-typing"]
    a, b = f.dom, f.cod
    if cell.alpha.dom != a.B0 or cell.alpha.cod != b.B1:
        return ["transformation-typing"]
    if _functor_typing_failures(f) or _functor_typing_failures(g):
        raise DiagramError("2-cell between mistyped functors")
    bad = []
    if compose(cell.alpha, b.d) != f.F0:
        bad.append("component-source")
    if compose(cell.alpha, b.c) != g.F0:
        bad.append("component-target")
    if not bad:
        alpha, mul, d, c = cell.alpha.map, _index_mul(b), b.d.map, b.c.map
        for x, y, fx, gx in zip(a.d.map, a.c.map, f.F1.map, g.F1.map):
            if c[alpha[x]] != d[gx] or c[fx] != d[alpha[y]]:
                raise DiagramError("naturality pair does not compose: "
                                   "source or target is no functor")
            if mul(alpha[x], gx) != mul(fx, alpha[y]):
                bad.append("naturality")
                break
    return bad


# ---------------------------------------------------------------------------
# construction helpers


def make_groupoid(B0, B1, d, c, e, i, compose_fn) -> InternalGroupoid:
    """Assemble a groupoid from a caller's element-level pair function.

    The library builds its own groupoids from indices.  compose_fn is called
    only on composable pairs, when ``mul`` or ``m`` needs them; m is filled
    trusted on first read, so ``validate_groupoid`` is the axiom check.
    """
    arrows = B1.carrier
    return _assemble(B0, B1, d, c, e, i, lambda x, y: B1.index_of(
        compose_fn(arrows[x], arrows[y])))


def _assemble(B0, B1, d, c, e, i, mul) -> InternalGroupoid:
    """Assemble a groupoid whose structure maps are morphisms or index
    tables (wrapped trusted) and whose composition sends composable arrow
    indices x, y to the index mul(x, y); m is filled from it (trusted) on
    first read."""
    def typed(f, dom, cod):
        return (f if isinstance(f, BaseMorphism)
                else BaseMorphism(dom, cod, f, True))
    g = InternalGroupoid(B0, B1, typed(d, B1, B0), typed(c, B1, B0),
                         typed(e, B0, B1), None, typed(i, B1, B1))
    g._mul = mul
    return g


def _index_mul(g: InternalGroupoid):
    """g's composition on arrow indices: the stored one, or read off the
    table of m at the pair's index in the composable pairs."""
    if g._mul is not None:
        return g._mul
    lookup, m = g.composition_pairs().lookup, g.m.map
    return lambda x, y: m[lookup[x, y]]


def levelwise_groupoid(lim0: LimitResult, lim1: LimitResult, parts):
    """The groupoid of a limit computed level-wise, with its projections.

    ``lim0`` and ``lim1`` are limits of one diagram of objects and of
    arrows, leg k of each landing in ``parts[k]``.  The structure maps and
    the composition act legwise; each result is found by its tuple of leg
    indices in the limit's ``lookup``.  Returns (groupoid, projection
    functors in leg order).
    """
    legs0, legs1 = lim0.legs.values(), lim1.legs.values()
    obj_index, arr_index = lim0.lookup, lim1.lookup
    objs, arrs = list(obj_index), list(arr_index)
    b0, b1 = lim0.apex, lim1.apex

    def mediator(rows, index, structure_map):
        maps = [getattr(p, structure_map).map for p in parts]
        try:
            return [index[tuple(map(getitem, maps, row))] for row in rows]
        except KeyError:  # a part that is no groupoid
            raise DiagramError(f"structure map {structure_map!r} of a part "
                               "leaves the limit") from None

    muls = [_index_mul(p) for p in parts]
    grp = _assemble(
        b0, b1, mediator(arrs, obj_index, "d"), mediator(arrs, obj_index, "c"),
        mediator(objs, arr_index, "e"), mediator(arrs, arr_index, "i"),
        lambda x, y: arr_index[
            tuple(mul(u, v) for mul, u, v in zip(muls, arrs[x], arrs[y]))])
    return grp, [InternalFunctor(grp, p, l0, l1)
                 for p, l0, l1 in zip(parts, legs0, legs1)]


def functor(dom, cod, f0_fn, f1_fn) -> InternalFunctor:
    """Assemble a functor from element-level functions (validated)."""
    fun = InternalFunctor(dom, cod,
                          morphism_from_function(dom.B0, cod.B0, f0_fn),
                          morphism_from_function(dom.B1, cod.B1, f1_fn))
    bad = validate_functor(fun)
    if bad:
        raise DiagramError(f"functor construction failed axioms {bad}")
    return fun


def transformation(source, target, alpha_fn) -> NatTransformation:
    cell = NatTransformation(source, target,
                             morphism_from_function(source.dom.B0,
                                                    source.cod.B1, alpha_fn))
    bad = validate_transformation(cell)
    if bad:
        raise DiagramError(f"2-cell construction failed axioms {bad}")
    return cell


def identity_functor(g: InternalGroupoid) -> InternalFunctor:
    return InternalFunctor(g, g, identity(g.B0), identity(g.B1))


def compose_functors(f: InternalFunctor, g: InternalFunctor) -> InternalFunctor:
    """Composite in diagram order (f then g)."""
    if f.cod != g.dom:
        raise DiagramError("functor composite is mistyped")
    return InternalFunctor(f.dom, g.cod, compose(f.F0, g.F0),
                           compose(f.F1, g.F1))


def whisker(cell: NatTransformation, fun: InternalFunctor) -> NatTransformation:
    """Post-compose a 2-cell with a functor out of its codomain groupoid."""
    if cell.source.cod != fun.dom:
        raise DiagramError("whisker is mistyped")
    return NatTransformation(compose_functors(cell.source, fun),
                             compose_functors(cell.target, fun),
                             compose(cell.alpha, fun.F1))


def whisker_left(fun: InternalFunctor, cell: NatTransformation) -> NatTransformation:
    """Pre-compose a 2-cell with a functor into its domain groupoid."""
    if fun.cod != cell.source.dom:
        raise DiagramError("whisker is mistyped")
    return NatTransformation(compose_functors(fun, cell.source),
                             compose_functors(fun, cell.target),
                             compose(fun.F0, cell.alpha))


def identity_cell(fun: InternalFunctor) -> NatTransformation:
    return NatTransformation(fun, fun, compose(fun.F0, fun.cod.e))


# ---------------------------------------------------------------------------
# stock groupoids


def discrete_groupoid(x: BaseObject) -> InternalGroupoid:
    """Only identity arrows: B1 = B0 with every structure map trivial."""
    idm = identity(x)
    return _assemble(x, x, idm, idm, idm, idm, lambda a, b: a)


def indiscrete_groupoid(x: BaseObject) -> InternalGroupoid:
    """Exactly one arrow between any two objects: B1 = B0 x B0."""
    pairs = product(x, x)
    d, c, look = pairs.legs["p1"], pairs.legs["p2"], pairs.lookup
    return _assemble(x, pairs.apex, d, c,
                     pairs.mediate({"p1": identity(x), "p2": identity(x)}),
                     pairs.mediate({"p1": c, "p2": d}),
                     lambda p, q: look[d.map[p], c.map[q]])


def cyclic_delooping(instance, k: int) -> InternalGroupoid:
    """One object with Z_k worth of loops, in any instance."""
    _check_order(k)
    if instance not in _INSTANCES.values():
        raise DiagramError(f"{instance!r} is not a base instance")
    if instance.additive:
        return delooping(zmod(k))
    zero = 0 if instance.pointed else None
    b0 = BaseObject(instance, ["*"], zero=zero)
    b1 = BaseObject(instance, range(k), zero=zero)
    return _assemble(b0, b1, [0] * k, [0] * k, [0],
                     [(-j) % k for j in range(k)], lambda a, b: (a + b) % k)


def delooping(group: BaseObject) -> InternalGroupoid:
    """One object whose loops are the given abelian group."""
    if not group.instance.additive:
        raise CapabilityError("delooping of a group object needs finab")
    b0 = zmod(1)
    d = zero_morphism(group, b0)
    return _assemble(b0, group, d, d, zero_morphism(b0, group), group.neg,
                     lambda x, y: group.add[x][y])


def groupoid_from_arrow(delta: BaseMorphism) -> InternalGroupoid:
    """The groupoid with objects cod(delta) and arrows cod(delta)+dom(delta).

    An arrow (a, n) runs from a to a + delta(n); composition adds the
    N-components.  Connected components are the cosets of the image, and
    the loops at 0 form the kernel of delta.
    """
    if not delta.dom.instance.additive:
        raise CapabilityError("groupoid_from_arrow needs finab")
    a0, n = delta.cod, delta.dom
    lim = product(a0, n)  # the direct sum
    look, arrows = lim.lookup, list(lim.lookup)
    c = [a0.add[a][delta.map[k]] for a, k in arrows]
    return _assemble(
        a0, lim.apex, lim.legs["p1"], c,
        lim.mediate({"p1": identity(a0), "p2": zero_morphism(a0, n)}),
        [look[t, n.neg[k]] for t, (_, k) in zip(c, arrows)],
        lambda p, q: look[arrows[p][0], n.add[arrows[p][1]][arrows[q][1]]])


def action_groupoid(perm: BaseMorphism) -> InternalGroupoid:
    """Action groupoid of the cyclic group generated by a permutation (FINSET).

    Objects are the permuted set; an arrow (x, j) runs from x to perm^j(x).
    """
    if perm.dom.instance.pointed or perm.dom != perm.cod:
        raise CapabilityError("action_groupoid needs a finset permutation")
    if sorted(perm.map) != list(range(perm.dom.size)):
        raise DiagramError("action map must be a permutation")
    x = perm.dom
    k = 1
    power = list(perm.map)
    while power != list(range(x.size)):
        power = [perm.map[j] for j in power]
        k += 1
    orbit = [list(range(x.size))]
    for _ in range(k - 1):
        orbit.append([perm.map[j] for j in orbit[-1]])
    lim = product(x, finset_object(range(k)))
    look, arrows = lim.lookup, list(lim.lookup)
    c = [orbit[j][o] for o, j in arrows]
    return _assemble(
        x, lim.apex, lim.legs["p1"], c, [look[o, 0] for o in range(x.size)],
        [look[t, (k - j) % k] for t, (_, j) in zip(c, arrows)],
        lambda p, q: look[arrows[p][0], (arrows[p][1] + arrows[q][1]) % k])


def product_groupoid(g: InternalGroupoid, h: InternalGroupoid):
    """Componentwise product with the two projection functors."""
    prod, (proj_g, proj_h) = levelwise_groupoid(
        product(g.B0, h.B0), product(g.B1, h.B1), [g, h])
    return prod, proj_g, proj_h


def full_subgroupoid(g: InternalGroupoid, object_indices):
    """Full subgroupoid on a subset of objects, with its inclusion functor.

    In a pointed instance the subset must contain the zero; in FINAB it must
    be a subgroup.
    """
    lim0 = subobject_limit(g.B0, object_indices)
    keep = set(lim0.legs["incl"].map)
    lim1 = subobject_limit(g.B1, [k for k in range(g.B1.size)
                                  if g.d.map[k] in keep and g.c.map[k] in keep])
    sub, (incl,) = levelwise_groupoid(lim0, lim1, [g])
    return sub, incl


def zero_groupoid(instance) -> InternalGroupoid:
    return discrete_groupoid(zero_object(instance))


def zero_functor(a: InternalGroupoid, b: InternalGroupoid) -> InternalFunctor:
    return InternalFunctor(a, b, zero_morphism(a.B0, b.B0),
                           zero_morphism(a.B1, b.B1))


def discrete_embedding(b: InternalGroupoid) -> InternalFunctor:
    """The identity-on-objects functor from the discrete groupoid on B0."""
    disc = discrete_groupoid(b.B0)
    return InternalFunctor(disc, b, identity(b.B0), b.e)


# ---------------------------------------------------------------------------
# connected components and loops


def pi0(g: InternalGroupoid):
    """Connected components: quotient object and projection from B0."""
    proj = reflexive_coequalizer(g.d, g.c, g.e)
    return proj.cod, proj


def _loops(g: InternalGroupoid) -> LimitResult:
    if not g.instance.pointed:
        raise CapabilityError("pi1 needs a pointed instance")
    z = g.B0.zero
    return subobject_limit(g.B1, [k for k in range(g.B1.size)
                                  if g.d.map[k] == z and g.c.map[k] == z])


def pi1(g: InternalGroupoid):
    """Loops at the zero object, with their inclusion into B1 (pointed)."""
    loops = _loops(g)
    return loops.apex, loops.legs["incl"]


def pi0_induced(fun: InternalFunctor) -> BaseMorphism:
    """The map of component objects induced by a functor: each component
    goes where F0 sends its least member, the object it is named by."""
    _, qa = pi0(fun.dom)
    _, qb = pi0(fun.cod)
    f0, proj = fun.F0.map, qb.map
    return BaseMorphism(qa.cod, qb.cod,
                        [proj[f0[c[0]]] for c in qa.preimages()], True)


def pi1_induced(fun: InternalFunctor) -> BaseMorphism:
    """The restriction of F1 to loops at zero."""
    return _loops(fun.cod).mediate(
        {"incl": compose(_loops(fun.dom).legs["incl"], fun.F1)})
