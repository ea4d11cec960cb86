"""Seeded generators and the corruption helpers the verify suites draw on.

Generators assemble small structures from hand-picked families so that
every classifier flag shows up on both sides somewhere in a run: base
objects and maps, groupoids, functors (with fibration floors, weak
equivalences and fully faithful functors among them), 2-cells and
arrow squares.  Each corruption helper returns a copy of a valid
groupoid, functor or 2-cell that breaks one named axiom, or None.

Determinism: every generator derives its stream from a string seed of the
form "<instance>:<seed>", and each case of a per-case suite gets the seed
"<instance>:<suite>:<seed>:<k>".  Searches use no randomness at all, so
the number of cases in the report is the number of candidates examined.
"""

from __future__ import annotations

import random
from math import gcd, isqrt

from .arrow import (
    ArrowMorphism,
    ArrowObject,
    comparison_J_arr,
    graph_comparison,
    identity_arr,
    kernel_arr,
    normalize,
)
from .base import (
    FINAB,
    FINPTDSET,
    FINSET,
    BaseMorphism,
    BaseObject,
    GroupoidLabError,
    compose,
    direct_sum,
    enumerate_morphisms,
    finptdset_object,
    finset_object,
    generated_subgroup_indices,
    identity,
    morphism_from_function,
    quotient_by_subgroup,
    zero_morphism,
    zmod,
)
from .classify import (
    classify_fibration,
    fibration_at_least,
    is_weak_equivalence,
)
from .groupoid import (
    InternalFunctor,
    InternalGroupoid,
    NatTransformation,
    action_groupoid,
    cyclic_delooping,
    delooping,
    discrete_groupoid,
    full_subgroupoid,
    functor,
    groupoid_from_arrow,
    identity_cell,
    identity_functor,
    indiscrete_groupoid,
    pi0,
    product_groupoid,
    transformation,
    zero_functor,
    zero_groupoid,
)
from .holim import strong_h_kernel


# ---------------------------------------------------------------------------
# base-level generators


def _budget(instance, size_budget):
    if size_budget is not None:
        return size_budget
    return 16 if instance is FINAB else 8


def _random_object(instance, rng, max_size) -> BaseObject:
    max_size = max(1, max_size)
    if instance is FINAB:
        shapes = [("cyclic", k) for k in range(1, max_size + 1)]
        shapes += [("sum", a, b)
                   for a in range(2, max_size + 1)
                   for b in range(2, max_size + 1) if a * b <= max_size]
        shape = rng.choice(shapes)
        if shape[0] == "cyclic":
            return zmod(shape[1])
        return direct_sum(zmod(shape[1]), zmod(shape[2]))
    n = rng.randint(1, max_size)
    if instance is FINPTDSET:
        return finptdset_object(["*"] + [f"x{i}" for i in range(1, n)], 0)
    return finset_object([f"a{i}" for i in range(n)])


def _random_map(dom: BaseObject, cod: BaseObject, rng) -> BaseMorphism:
    if dom.instance is FINAB:
        return rng.choice(list(enumerate_morphisms(dom, cod)))
    table = [rng.randrange(cod.size) for _ in range(dom.size)]
    if dom.instance is FINPTDSET:
        table[dom.zero] = cod.zero
    return BaseMorphism(dom, cod, table)


def _random_surjection(dom: BaseObject, rng) -> BaseMorphism:
    """A surjective map onto a fresh, weakly smaller object."""
    inst = dom.instance
    if inst is FINAB:
        seeds = rng.sample(range(dom.size), rng.randint(1, min(2, dom.size)))
        return quotient_by_subgroup(dom, seeds)[1]
    size = rng.randint(1, dom.size)
    if inst is FINPTDSET:
        cod = finptdset_object(["*"] + [f"q{i}" for i in range(1, size)], 0)
    else:
        cod = finset_object([f"q{i}" for i in range(size)])
    # onto, as size <= dom.size; the swap below pins the basepoint
    table = [i % size for i in range(dom.size)]
    rng.shuffle(table)
    if inst is FINPTDSET:
        base_pre = table.index(cod.zero)
        table[base_pre], table[dom.zero] = table[dom.zero], table[base_pre]
    return BaseMorphism(dom, cod, table)


# ---------------------------------------------------------------------------
# groupoid generators


def _fam_discrete(instance, rng, budget):
    return discrete_groupoid(_random_object(instance, rng, budget))


def _fam_indiscrete(instance, rng, budget):
    return indiscrete_groupoid(_random_object(instance, rng,
                                              max(1, isqrt(budget))))


def _fam_delooping(instance, rng, budget):
    if instance is FINAB:
        return delooping(_random_object(instance, rng, budget))
    return cyclic_delooping(instance, rng.randint(1, budget))


def _fam_action(instance, rng, budget):
    pairs = [(s, c) for s in range(1, budget + 1)
             for c in range(1, s + 1) if s * c <= budget]
    s, c = rng.choice(pairs)
    x = finset_object([f"a{i}" for i in range(s)])
    table = list(range(s))
    for i in range(c):
        table[i] = (i + 1) % c
    return action_groupoid(BaseMorphism(x, x, table))


def _cyclic_hom(m, n, j) -> BaseMorphism:
    """The j-th hom Z_m -> Z_n, x -> x * j * n / gcd(m, n)."""
    t = n // gcd(m, n) * j
    return morphism_from_function(zmod(m), zmod(n), lambda x: x * t % n)


def _fam_graph(instance, rng, budget):
    pairs = [(m, n) for m in range(1, budget + 1)
             for n in range(1, budget + 1) if m * n <= budget]
    m, n = rng.choice(pairs)
    return groupoid_from_arrow(_cyclic_hom(m, n, rng.randrange(gcd(m, n))))


def _basic_families(instance):
    fams = [_fam_discrete, _fam_indiscrete, _fam_delooping]
    if instance is FINSET:
        fams.append(_fam_action)
    if instance is FINAB:
        fams.append(_fam_graph)
    return fams


def _random_product(instance, rng, budget):
    """``product_groupoid`` of two basic groupoids: (product, pr1, pr2)."""
    p = rng.randint(1, max(1, budget // 2))
    q = max(1, budget // max(p, 2))
    left = rng.choice(_basic_families(instance))(instance, rng, p)
    right = rng.choice(_basic_families(instance))(instance, rng, q)
    return product_groupoid(left, right)


def _fam_product(instance, rng, budget):
    return _random_product(instance, rng, budget)[0]


def _random_groupoid(instance, rng, budget) -> InternalGroupoid:
    fams = _basic_families(instance) + [_fam_product]
    return rng.choice(fams)(instance, rng, budget)


def gen_groupoid(instance, seed) -> InternalGroupoid:
    """Seeded random groupoid drawn from the family mixture."""
    rng = random.Random(f"{instance.name}:{seed}")
    return _random_groupoid(instance, rng, _budget(instance, None))


# ---------------------------------------------------------------------------
# functor generators


def _terminal_groupoid(instance):
    if instance is FINSET:
        return discrete_groupoid(finset_object(["*"]))
    return zero_groupoid(instance)


def _functor_into_indiscrete(instance, rng, budget):
    a = _random_groupoid(instance, rng, budget)
    y = _random_object(instance, rng, max(1, isqrt(budget)))
    b = indiscrete_groupoid(y)
    f0 = _random_map(a.B0, y, rng)
    return functor(a, b, f0, lambda x: (f0(a.d(x)), f0(a.c(x))))


def _functor_from_discrete(instance, rng, budget):
    a = discrete_groupoid(_random_object(instance, rng, budget))
    b = _random_groupoid(instance, rng, budget)
    f0 = _random_map(a.B0, b.B0, rng)
    return functor(a, b, f0, lambda o: b.e(f0(o)))


def _subgroupoid_inclusion(g: InternalGroupoid, rng) -> InternalFunctor:
    inst = g.instance
    if inst is FINAB:
        seeds = rng.sample(range(g.B0.size),
                           rng.randint(1, min(2, g.B0.size)))
        idx = generated_subgroup_indices(g.B0, seeds)
    else:
        pool = list(range(g.B0.size))
        take = rng.randint(1, g.B0.size)
        idx = set(rng.sample(pool, take))
        if inst is FINPTDSET:
            idx.add(g.B0.zero)
    return full_subgroupoid(g, idx)[1]


def _delooping_collapse(instance, rng, budget):
    k = rng.randint(2, max(2, budget))
    divisors = [l for l in range(1, k) if k % l == 0]
    l = rng.choice(divisors)
    dom = cyclic_delooping(instance, k)
    cod = cyclic_delooping(instance, l)
    if instance is FINAB:
        floor = ("split_epi_fibration" if gcd(l, k // l) == 1
                 else "fibration")
    else:
        floor = "split_epi_fibration"
    return functor(dom, cod, lambda o: cod.B0.carrier[0],
                   lambda x: x % l), floor


def _delooping_embedding(instance, rng, budget):
    # callers pass budgets of at least 5, so (1, 2) is always a pair
    factors = [(k, m) for k in range(1, budget + 1)
               for m in range(2, budget + 1) if k * m <= budget]
    k, m = rng.choice(factors)
    dom = cyclic_delooping(instance, k)
    cod = cyclic_delooping(instance, k * m)
    return functor(dom, cod, lambda o: cod.B0.carrier[0],
                   lambda x: (x * m) % (k * m))


def _random_functor(instance, rng, budget=None) -> InternalFunctor:
    budget = _budget(instance, budget)

    def s_identity():
        return identity_functor(_random_groupoid(instance, rng, budget))

    def s_projection():
        return _fibration_family(instance, rng, budget)[0]

    def s_inclusion():
        return _subgroupoid_inclusion(_random_groupoid(instance, rng, budget),
                                      rng)

    def s_indiscrete():
        return _functor_into_indiscrete(instance, rng, budget)

    def s_discrete():
        return _functor_from_discrete(instance, rng, budget)

    def s_embedding():
        return _delooping_embedding(instance, rng, budget)

    strategies = [s_identity, s_projection, s_inclusion, s_indiscrete,
                  s_discrete, s_embedding]
    if instance.pointed:
        def s_zero():
            if instance is FINAB and rng.random() < 0.5:
                dom = zero_groupoid(instance)
            else:
                dom = _random_groupoid(instance, rng, max(1, budget // 2))
            return zero_functor(dom, _random_groupoid(instance, rng, budget))
        strategies.append(s_zero)
    return rng.choice(strategies)()


def gen_functor(instance, seed) -> InternalFunctor:
    """Seeded random functor drawn from the strategy mixture."""
    rng = random.Random(f"{instance.name}:{seed}")
    return _random_functor(instance, rng)


def _fibration_family(instance, rng, budget):
    """A functor known to be a fibration by construction, with its floor.

    The floor is the weakest classification the construction guarantees:
    "fibration", "split_epi_fibration", or "discrete_fibration".
    """
    def f_projection():
        return (_random_product(instance, rng, budget)[1],
                "split_epi_fibration")

    def f_identity():
        g = _random_groupoid(instance, rng, budget)
        return identity_functor(g), "discrete_fibration"

    def f_terminal():
        g = _random_groupoid(instance, rng, budget)
        t = _terminal_groupoid(instance)
        return functor(g, t, lambda o: t.B0.carrier[0],
                       lambda x: t.B1.carrier[0]), "split_epi_fibration"

    def f_collapse():
        return _delooping_collapse(instance, rng, budget)

    def f_indiscrete():
        x = _random_object(instance, rng, max(1, isqrt(budget)))
        surj = _random_surjection(x, rng)
        dom = indiscrete_groupoid(x)
        cod = indiscrete_groupoid(surj.cod)
        fun = functor(dom, cod, surj,
                      lambda p: (surj(p[0]), surj(p[1])))
        floor = "fibration" if instance is FINAB else "split_epi_fibration"
        return fun, floor

    choices = [f_projection, f_identity, f_terminal, f_collapse,
               f_indiscrete]
    if instance is FINSET:
        def f_cover():
            g = _fam_action(instance, rng, budget)
            k = max(x[1] for x in g.B1.carrier) + 1
            cod = cyclic_delooping(FINSET, k)
            star = cod.B0.carrier[0]
            return functor(g, cod, lambda o: star,
                           lambda t: t[1]), "discrete_fibration"
        choices.append(f_cover)
    return rng.choice(choices)()


def gen_fibration(instance, seed) -> InternalFunctor:
    """Seeded fibration, checked against the classifier before returning."""
    rng = random.Random(f"{instance.name}:{seed}")
    fun, floor = _fibration_family(instance, rng, _budget(instance, None))
    label = classify_fibration(fun)
    if not fibration_at_least(label, "fibration"):
        raise GroupoidLabError(
            f"generator produced a non-fibration (classified {label})")
    return fun


def _tagged_functor(instance, rng, budget=None):
    """Either an untagged functor or a fibration with its floor tag."""
    if rng.random() < 0.5:
        return _random_functor(instance, rng, budget), None
    return _fibration_family(instance, rng, _budget(instance, budget))


def _discrete_fibration_into(base: InternalGroupoid, rng):
    """A functor into ``base`` expected to classify as a discrete fibration."""
    roll = rng.random()
    if roll < 0.35:
        return identity_functor(base)
    if roll < 0.75 or not base.instance.pointed:
        extra = discrete_groupoid(_random_object(base.instance, rng, 3))
        return product_groupoid(base, extra)[1]
    target = _random_groupoid(base.instance, rng, 4)
    return strong_h_kernel(zero_functor(base, target)).to_f_dom


def _weak_equivalence_into(base: InternalGroupoid, rng):
    """A functor into ``base`` expected to be a weak equivalence."""
    if rng.random() < 0.4:
        return identity_functor(base)
    for _ in range(4):
        incl = _meet_all_components(base, rng)
        if incl is not None and is_weak_equivalence(incl):
            return incl
    return identity_functor(base)


def _meet_all_components(g: InternalGroupoid, rng):
    inst = g.instance
    if inst is FINAB:
        return _subgroupoid_inclusion(g, rng)
    _, proj = pi0(g)
    reps = {}
    order = list(range(g.B0.size))
    rng.shuffle(order)
    for o in order:
        reps.setdefault(proj.map[o], o)
    idx = set(reps.values())
    if inst is FINPTDSET:
        idx.add(g.B0.zero)
    extras = [o for o in range(g.B0.size) if o not in idx]
    for o in extras:
        if rng.random() < 0.3:
            idx.add(o)
    return full_subgroupoid(g, idx)[1]


def _random_weak_equivalence(instance, rng, budget=None):
    budget = _budget(instance, budget)
    roll = rng.random()
    if roll < 0.25:
        return identity_functor(_random_groupoid(instance, rng, budget))
    if roll < 0.5:
        a = _random_groupoid(instance, rng, max(1, budget // 4))
        x = _random_object(instance, rng, 2)
        prod, proj, _ = product_groupoid(a, indiscrete_groupoid(x))
        if rng.random() < 0.5:
            return proj
        z = x.zero_element() if instance is not FINSET else x.carrier[0]
        return functor(a, prod, lambda o: (o, z),
                       lambda f: (f, (z, z)))
    if roll < 0.75:
        k = rng.randint(1, min(budget, 8))
        g = cyclic_delooping(instance, k)
        units = [u for u in range(1, k + 1) if gcd(u, k) == 1]
        u = rng.choice(units)
        return functor(g, g, lambda o: o, lambda x: (x * u) % k)
    return _weak_equivalence_into(_random_groupoid(instance, rng, budget),
                                  rng)


def _random_fully_faithful(instance, rng, budget=None):
    budget = _budget(instance, budget)
    roll = rng.random()
    if roll < 0.3:
        return identity_functor(_random_groupoid(instance, rng, budget))
    if roll < 0.65:
        return _subgroupoid_inclusion(
            _random_groupoid(instance, rng, budget), rng)
    return _random_weak_equivalence(instance, rng, budget)


# ---------------------------------------------------------------------------
# transformation generators


def gen_transformation(instance, seed) -> NatTransformation:
    """Seeded random 2-cell drawn from a small family mixture."""
    rng = random.Random(f"{instance.name}:{seed}")
    return _random_transformation(instance, rng)


def _random_transformation(instance, rng, budget=None):
    budget = _budget(instance, budget)
    roll = rng.random()
    if roll < 0.4:
        return identity_cell(_random_functor(instance, rng, budget))
    if instance is FINSET and roll < 0.6:
        k = rng.randint(1, budget)
        g = cyclic_delooping(FINSET, k)
        z = rng.randrange(k)
        return transformation(identity_functor(g), identity_functor(g),
                              lambda o: z)
    a = _random_groupoid(instance, rng, max(1, budget // 2))
    y = _random_object(instance, rng, max(1, isqrt(budget)))
    b = indiscrete_groupoid(y)
    f0 = _random_map(a.B0, y, rng)
    g0 = _random_map(a.B0, y, rng)
    fun = functor(a, b, f0, lambda x: (f0(a.d(x)), f0(a.c(x))))
    gun = functor(a, b, g0, lambda x: (g0(a.d(x)), g0(a.c(x))))
    return transformation(fun, gun, lambda o: (f0(o), g0(o)))


# ---------------------------------------------------------------------------
# arrow-square generators


def _random_arrow_morphism(instance, rng, budget=None) -> ArrowMorphism:
    budget = _budget(instance, budget)

    def s_id_dom():
        a0 = _random_object(instance, rng, budget)
        b = _random_map(_random_object(instance, rng, budget),
                        _random_object(instance, rng, budget), rng)
        f = _random_map(a0, b.dom, rng)
        return ArrowMorphism(ArrowObject(identity(a0)), ArrowObject(b),
                             f, compose(f, b))

    def s_id_cod():
        a = _random_map(_random_object(instance, rng, budget),
                        _random_object(instance, rng, budget), rng)
        b0 = _random_object(instance, rng, budget)
        f0 = _random_map(a.cod, b0, rng)
        return ArrowMorphism(ArrowObject(a), ArrowObject(identity(b0)),
                             compose(a, f0), f0)

    def s_normalized():
        return normalize(_random_functor(instance, rng, budget))

    def s_identity():
        a = _random_map(_random_object(instance, rng, budget),
                        _random_object(instance, rng, budget), rng)
        return identity_arr(ArrowObject(a))

    def s_kernel():
        return kernel_arr(rng.choice([s_id_dom, s_id_cod])())

    def s_comparison():
        return comparison_J_arr(rng.choice([s_id_dom, s_id_cod])())

    strategies = [s_id_dom, s_id_cod, s_normalized, s_identity, s_kernel,
                  s_comparison]
    if instance is FINAB:
        def s_graph():
            m = rng.randint(1, 4)
            n = rng.randint(1, 4)
            return graph_comparison(
                _cyclic_hom(m, n, rng.randrange(gcd(m, n))))
        strategies.append(s_graph)
    return rng.choice(strategies)()


# ---------------------------------------------------------------------------
# corruption


def _first_corruption(strategies, rng):
    """The first result that is not None, trying strategies in shuffled order."""
    rng.shuffle(strategies)
    for strategy in strategies:
        out = strategy()
        if out is not None:
            return out
    return None


def corrupt_groupoid(g: InternalGroupoid, rng):
    """A structurally valid but axiom-breaking copy, or None.

    Returns (corrupted groupoid, expected axiom name); the expected axiom
    is guaranteed to appear in validate_groupoid's report.
    """
    def retype_source():
        if g.B1 == g.B0:
            return None
        return InternalGroupoid(g.B0, g.B1, identity(g.B1), g.c, g.e, g.m,
                                g.i), "source-map"

    def retype_identity():
        if g.B1 == g.B0:
            return None
        return InternalGroupoid(g.B0, g.B1, g.d, g.c, identity(g.B0), g.m,
                                g.i), "identity-map"

    def drop_inverse():
        if g.d.map != g.c.map:
            return (InternalGroupoid(g.B0, g.B1, g.d, g.c, g.e, g.m,
                                     identity(g.B1)), "inverse-source")
        if any(g.i.map[k] != k for k in range(g.B1.size)):
            return (InternalGroupoid(g.B0, g.B1, g.d, g.c, g.e, g.m,
                                     identity(g.B1)), "inverse-law")
        return None

    def project_compose():
        pairs = g.composition_pairs()
        proj = pairs.legs["p1"]
        if proj.map == g.m.map:
            return None
        bad = InternalGroupoid(g.B0, g.B1, g.d, g.c, g.e, proj, g.i)
        c = g.c.map
        if any(c[x] != c[y] for x, y in zip(proj.map, pairs.legs["p2"].map)):
            return bad, "composition-target"
        # some arrow is no identity, else m would be the projection
        return bad, "unit-law"

    def zero_source():
        if not g.instance.pointed:
            return None
        d_bad = zero_morphism(g.B1, g.B0)
        if d_bad.map == g.d.map:
            return None
        # d_bad y differs from d y for some arrow y; as c.e = id, the pair
        # (e(d y), y) is composable under d and not under d_bad
        return (InternalGroupoid(g.B0, g.B1, d_bad, g.c, g.e, g.m, g.i),
                "composition-carrier")

    return _first_corruption([retype_source, retype_identity, drop_inverse,
                              project_compose, zero_source], rng)


def corrupt_functor(fun: InternalFunctor, rng):
    """A mistyped or law-breaking copy of a functor, or None."""
    a, b = fun.dom, fun.cod

    def collapse_arrows():
        f1 = compose(a.d, fun.F0, b.e)
        sources = compose(a.d, fun.F0)
        targets = compose(a.c, fun.F0)
        if sources.map == targets.map:
            return None
        return InternalFunctor(a, b, fun.F0, f1), "functor-target"

    def retype_arrows():
        if a.B1 == b.B1:
            return None
        return (InternalFunctor(a, b, fun.F0, identity(a.B1)),
                "functor-typing")

    def zero_objects():
        if not a.instance.pointed:
            return None
        f0 = zero_morphism(a.B0, b.B0)
        if compose(a.d, f0).map == compose(fun.F1, b.d).map:
            return None
        return InternalFunctor(a, b, f0, fun.F1), "functor-source"

    def scramble_objects():
        if a.instance is not FINSET or b.B0.size < 2:
            return None
        for _ in range(8):
            f0 = _random_map(a.B0, b.B0, rng)
            if f0.map != fun.F0.map:
                return InternalFunctor(a, b, f0, fun.F1), "functor-source"
        return None

    return _first_corruption([collapse_arrows, retype_arrows, zero_objects,
                              scramble_objects], rng)


def corrupt_transformation(cell: NatTransformation, rng):
    """A mistyped or law-breaking copy of a 2-cell, or None."""
    f, g = cell.source, cell.target
    b = f.cod

    def invert_components():
        if f.F0.map == g.F0.map:
            return None
        return (NatTransformation(f, g, compose(cell.alpha, b.i)),
                "component-source")

    def unit_components():
        if f.F0.map == g.F0.map:
            return None
        return (NatTransformation(f, g, compose(f.F0, b.e)),
                "component-target")

    def retype_components():
        if f.dom.B0 == b.B1:
            return None
        return (NatTransformation(f, g, identity(f.dom.B0)),
                "transformation-typing")

    return _first_corruption([invert_components, unit_components,
                              retype_components], rng)
