"""Seeded generators and the verification suites behind the verify command.

Generators assemble small structures from hand-picked families so that
every classifier flag shows up on both sides somewhere in a run.  Each
suite checks one structural fact at desk scale and reports serialized
witnesses for whatever failed.  Each suite is registered once, in
``SUITES``, with the instances it applies to, the instances that expect
witnesses, its default case bound, and a stream that yields one failure
list per case.  ``@_suite`` runs a per-case check; ``@_search`` numbers a
bounded search's verdicts over a fixed catalogue by candidate.
``run_suite`` is the one loop over a stream: it applies the bound, stops
at the third witness on a witness instance, and records whether the run
expects a witness.  The star search expects a witness on FinAb;
protomodularity expects one on FinPtdSet and a clean pass on FinAb.

Determinism: every generator derives its stream from a string seed of the
form "<instance>:<seed>", and each case of a per-case suite gets the seed
"<instance>:<suite>:<seed>:<k>".  Searches use no randomness at all, so
the number of cases in the report is the number of candidates examined.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import count, islice
from math import gcd, isqrt

from .arrow import (
    ArrowMorphism,
    ArrowObject,
    Diagonal,
    _fibre_flags,
    _then,
    act_on_diagonal,
    classify_arrow_morphism,
    comparison_J_arr,
    compose_arr,
    graph_comparison,
    h_kernel_factorization,
    h_kernel_preservation_comparison,
    identity_arr,
    is_essentially_surjective_arr,
    kernel_arr,
    kernel_preservation_comparison,
    normalize,
    normalize_homotopy,
    partial_zero_arr,
    strong_h_kernel_arr,
)
from .base import (
    FINAB,
    FINPTDSET,
    FINSET,
    BaseMorphism,
    BaseObject,
    DiagramError,
    GroupoidLabError,
    NoMediatorError,
    classify_morphism,
    compose,
    direct_sum,
    enumerate_morphisms,
    finptdset_object,
    finset_object,
    generated_subgroup_indices,
    identity,
    kernel,
    morphism_from_function,
    parse_instance,
    product,
    pullback,
    quotient_by_subgroup,
    subobject_limit,
    zero_morphism,
    zmod,
)
from .classify import (
    FunctorClassification,
    classify_equivalence,
    classify_fibration,
    classify_star_fibration,
    fibration_at_least,
    is_fully_faithful,
    is_weak_equivalence,
    partial_zero,
    star_at_least,
)
from .groupoid import (
    InternalFunctor,
    InternalGroupoid,
    NatTransformation,
    action_groupoid,
    compose_functors,
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
    pi0_induced,
    pi1_induced,
    product_groupoid,
    transformation,
    validate_functor,
    validate_groupoid,
    validate_transformation,
    zero_functor,
    zero_groupoid,
)
from .holim import (
    _square_map,
    comparison_J_data,
    comparison_T_data,
    h_kernel_into_pullback,
    is_levelwise_pullback_square,
    kernel_groupoid,
    mediate_pullback,
    pullback_groupoid,
    strong_h_kernel,
    strong_h_pullback,
)
from .serialize import value_to_data


# ---------------------------------------------------------------------------
# reports


@dataclass
class SuiteReport:
    """Outcome of one suite run on one instance.  No suite is timed: the
    payload keeps its ``elapsed_ms`` key, and it is always 0."""

    suite: str
    instance: str
    seed: object
    cases: int
    failures: list
    # a search on one of its witness instances; a skipped run expects none
    expects_witness: bool

    @property
    def expectation_met(self) -> bool:
        """At least one witness where one is expected, else no failure."""
        return bool(self.failures) == self.expects_witness

    @property
    def status(self) -> str:
        """The verdict ``groupoid-lab verify`` prints after the counts."""
        n = len(self.failures)
        if self.expects_witness:
            return f"witness found ({n})" if n else "UNMET: no witness found"
        return f"UNMET: {n} failures" if n else "ok"

    def payload(self) -> dict:
        return {
            "suite": self.suite,
            "instance": self.instance,
            "seed": self.seed,
            "cases": self.cases,
            "failures": self.failures,
            "elapsed_ms": 0,
        }


def _witness(case, reason, **values) -> dict:
    data = {key: v if isinstance(v, (str, int, float, bool)) or v is None
            else value_to_data(v) for key, v in values.items()}
    return {"case": case, "reason": reason, "witness": data}


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


# ---------------------------------------------------------------------------
# search catalogs


def _finab_catalog(max_order):
    objs = [zmod(k) for k in range(1, max_order + 1)]
    if max_order >= 4:
        objs.append(direct_sum(zmod(2), zmod(2)))
    return sorted(objs, key=lambda o: o.size)


def _finptdset_catalog(max_size):
    return [finptdset_object(["*"] + [f"x{i}" for i in range(1, n)], 0)
            for n in range(1, max_size + 1)]


def _groupoid_catalog(max_arrows):
    """FinAb groupoids with at most ``max_arrows`` arrows, smallest first."""
    out = []
    for g in _finab_catalog(max_arrows):
        out.append(delooping(g))
        out.append(discrete_groupoid(g))
    out.append(indiscrete_groupoid(zmod(2)))
    for m in range(1, max_arrows + 1):
        for n in range(1, max_arrows // m + 1):
            for j in range(gcd(m, n)):
                out.append(groupoid_from_arrow(_cyclic_hom(m, n, j)))
    return sorted(out, key=lambda b: (b.B1.size, b.B0.size))


def _hom_memo():
    """``enumerate_morphisms`` as a list, memoized per pair of objects."""
    homs = {}

    def hom(x, y):
        key = (id(x), id(y))
        if key not in homs:
            homs[key] = list(enumerate_morphisms(x, y))
        return homs[key]

    return hom


def _fibration_squares(instance):
    """Deterministic stream of the squares the protomodularity sweep reads.

    These are the commutative squares of the catalogue whose top map is a
    regular epi, smallest carriers first; each hom list is classified once.
    Quadruples (a, a0, b, b0) with no regular epi a -> b hold no square and
    are dropped before the (stable) sort.  Squares commute on index tables:
    per quadruple the table of top;f0 is built once, per bottom map the
    epis f are bucketed by the table of f;bot, so each (top, f0) finds its
    squares by one lookup.
    """
    if instance is FINAB:
        objs = _finab_catalog(8)
    else:
        objs = _finptdset_catalog(3)
    hom = _hom_memo()
    epis = {(id(x), id(y)): [f for f in hom(x, y)
                             if classify_morphism(f).regular_epi]
            for x in objs for y in objs}
    quads = sorted(
        ((a, a0, b, b0) for a in objs for a0 in objs
         for b in objs if epis[id(a), id(b)] for b0 in objs),
        key=lambda q: (sum(o.size for o in q),
                       tuple(o.size for o in q)))
    for a_obj, a0_obj, b_obj, b0_obj in quads:
        f0s = hom(a0_obj, b0_obj)
        sides = [(ArrowObject(top), [(f0, _then(top, f0)) for f0 in f0s])
                 for top in hom(a_obj, a0_obj)]
        for bot in hom(b_obj, b0_obj):
            cod = ArrowObject(bot)
            by_table = {}
            for f in epis[id(a_obj), id(b_obj)]:
                by_table.setdefault(_then(f, bot), []).append(f)
            for dom, tables in sides:
                for f0, table in tables:
                    for f in by_table.get(table, ()):
                        yield ArrowMorphism(dom, cod, f, f0, True)


def _shrink_square(m: ArrowMorphism, still_bad) -> ArrowMorphism:
    """Greedy element removal on a pointed square: take the first smaller
    square that is still bad, until none is."""
    while True:
        corners = (m.dom.top, m.dom.bottom, m.cod.top, m.cod.bottom)
        smaller = (_remove_element(m, which, drop)
                   for which, obj in enumerate(corners)
                   for drop in range(obj.size) if drop != obj.zero)
        bad = next((s for s in smaller if s is not None and still_bad(s)),
                   None)
        if bad is None:
            return m
        m = bad


def _remove_element(m: ArrowMorphism, which, drop):
    """The square with element ``drop`` of corner ``which`` (domain top and
    bottom, then codomain top and bottom) removed, or None when a kept
    element still maps onto it."""
    corner = (m.dom.top, m.dom.bottom, m.cod.top, m.cod.bottom)[which]
    sub = subobject_limit(corner, [i for i in range(corner.size) if i != drop])
    maps = {}
    for (src, dst), mor in {(0, 1): m.dom.a, (2, 3): m.cod.a,
                            (0, 2): m.f, (1, 3): m.f0}.items():
        if src == which:
            mor = compose(sub.legs["incl"], mor)
        if dst == which:
            try:
                mor = sub.mediate({"incl": mor})
            except NoMediatorError:
                return None
        maps[src, dst] = mor
    return ArrowMorphism(ArrowObject(maps[0, 1]), ArrowObject(maps[2, 3]),
                         maps[0, 2], maps[1, 3])


# ---------------------------------------------------------------------------
# registry


@dataclass(frozen=True)
class _Suite:
    # stream(instance, seed) yields one failure list per case
    stream: object
    instances: tuple
    witness_instances: frozenset
    # Witness searches need room to reach their first witness; everything
    # else gets a quick default that the acceptance run then scales up.
    default_cases: int


_ALL = ("finset", "finptdset", "finab")
_POINTED = ("finptdset", "finab")

# Filled by @_suite and @_search in definition order, which is the order
# verify runs the suites in.
SUITES = {}


class _Case:
    """Case ``k`` of a suite run: its replay tag, its own rng, its failures."""

    def __init__(self, name, instance, seed, k):
        self.k = k
        self.tag = f"{name}:{seed}:{k}"
        self.rng = random.Random(f"{instance.name}:{self.tag}")
        self.failures = []

    def fail(self, reason, **values):
        self.failures.append(_witness(self.k, reason, **values))


def _suite(name, instances):
    """Register ``check(instance, case)``, run on cases 0, 1, ... with a
    default bound of 50; each case's failures are those of its ``fail``."""
    def register(check):
        def stream(instance, seed):
            for k in count():
                case = _Case(name, instance, seed, k)
                check(instance, case)
                yield case.failures
        SUITES[name] = _Suite(stream, instances, frozenset(), 50)
        return check
    return register


def _search(name, instances, witness_instances, default_cases):
    """Register a generator ``search(instance)`` that yields one verdict per
    catalogue candidate, in order: None, or a failure ``(reason, values)``.
    Candidate k is case k, and its failure is a witness numbered k."""
    def register(search):
        def stream(instance, seed):
            for k, verdict in enumerate(search(instance)):
                yield (() if verdict is None
                       else [_witness(k, verdict[0], **verdict[1])])
        SUITES[name] = _Suite(stream, instances, frozenset(witness_instances),
                              default_cases)
        return search
    return register


def _floor_holds(case, fun, floor):
    """The fibration label of ``fun``, or None once the case has failed
    because the label is below the generator's ``floor`` (if it has one)."""
    label = classify_fibration(fun)
    if floor and not fibration_at_least(label, floor):
        case.fail(f"generator floor {floor!r} disagrees with label {label!r}",
                  functor=fun)
        return None
    return label


# ---------------------------------------------------------------------------
# suites


@_suite("axioms", _ALL)
def _check_axioms(instance, case):
    """Generated structures validate; corrupted ones name the broken axiom."""
    validators = {"groupoid": validate_groupoid,
                  "functor": validate_functor,
                  "transformation": validate_transformation}
    triple = {"groupoid": gen_groupoid(instance, case.tag),
              "functor": gen_functor(instance, case.tag),
              "transformation": gen_transformation(instance, case.tag)}
    for kind, value in triple.items():
        bad = validators[kind](value)
        if bad:
            case.fail(f"generated {kind} failed validation: {bad}",
                      value=value)
    if case.k % 5 != 4:
        return
    rng = random.Random(f"{instance.name}:{case.tag}:corrupt")
    kind = ("groupoid", "functor", "transformation")[(case.k // 5) % 3]
    corrupter = {"groupoid": corrupt_groupoid,
                 "functor": corrupt_functor,
                 "transformation": corrupt_transformation}[kind]
    out = corrupter(triple[kind], rng)
    if out is None:
        return
    bad_value, expected = out
    got = validators[kind](bad_value)
    if expected not in got:
        case.fail(f"corrupted {kind} expected axiom {expected!r}, "
                  f"validator reported {got}", value=bad_value)


def _refinement_square_holds(fun: InternalFunctor, tdata):
    """The proof-level square: arrows against the strict comparison.

    Sends an arrow x to the degenerate square on its image, mediates into
    the relaxed pullback's arrow level, and checks the resulting square
    over the comparison functor is a pullback at the object level.
    """
    a, b = fun.dom, fun.cod
    v = tdata.relaxed
    u = compose(a.d, fun.F0, b.e)
    try:
        sq_map = _square_map(v.squares.pairs, b.composition_pairs(),
                             u, fun.F1, u, fun.F1)
        fbar = v.arrow_limit.mediate({"g_arr": compose(a.d, fun.F0),
                                      "squares": sq_map,
                                      "f_arr": identity(a.B1)})
        strict_iso = tdata.strict.object_limit.mediate(
            {"p1": fun.F0, "p2": identity(a.B0)})
    except NoMediatorError:
        return False, "refinement cone fails to mediate"
    t0 = compose(strict_iso, tdata.functor.F0)
    dv = v.groupoid.d
    if compose(fbar, dv) != compose(a.d, t0):
        return False, "refinement square does not commute"
    try:
        med = pullback(t0, dv).mediate({"p1": a.d, "p2": fbar})
    except NoMediatorError:
        return False, "refinement square has no mediator"
    if not classify_morphism(med).iso:
        return False, "refinement square is not a pullback"
    return True, ""


@_suite("prop-fibration-T", _ALL)
def _check_prop_fibration_t(instance, case):
    """Fibration flags match weak equivalence of the strict comparison,
    with the proof-level refinement square."""
    heavy = 8 if instance is FINAB else 6
    fun, floor = _tagged_functor(instance, case.rng, heavy)
    label = _floor_holds(case, fun, floor)
    if label is None:
        return
    tdata = comparison_T_data(fun)
    t = classify_equivalence(tdata.functor)
    if fibration_at_least(label, "fibration") != t["weak_equivalence"]:
        case.fail("fibration flag disagrees with weak equivalence of the "
                  "strict comparison", functor=fun, label=label)
    if (fibration_at_least(label, "split_epi_fibration")
            != t["equivalence"]):
        case.fail("split fibration flag disagrees with equivalence of the "
                  "strict comparison", functor=fun, label=label)
    if case.k % 4 == 0:
        ok, reason = _refinement_square_holds(fun, tdata)
        if not ok:
            case.fail(reason, functor=fun)


@_suite("prop-star-fibration-J", _POINTED)
def _check_prop_star_fibration_j(instance, case):
    """Star flags match weak equivalence of the kernel comparison."""
    heavy = 6 if instance is FINPTDSET else 8
    fun, floor = _tagged_functor(instance, case.rng, heavy)
    if _floor_holds(case, fun, floor) is None:
        return
    star = classify_star_fibration(fun)
    j = classify_equivalence(comparison_J_data(fun).functor)
    if star_at_least(star, "star_fibration") != j["weak_equivalence"]:
        case.fail("star flag disagrees with weak equivalence of the kernel "
                  "comparison", functor=fun, star=star)
    if (star_at_least(star, "split_epi_star_fibration")
            != j["equivalence"]):
        case.fail("split star flag disagrees with equivalence of the kernel "
                  "comparison", functor=fun, star=star)


def _kernel_square_checks(fun: InternalFunctor, jdata):
    """The kernel comparison against the strict comparison, as one square."""
    tdata = comparison_T_data(fun)
    kg, hk = jdata.strict, jdata.relaxed
    try:
        ell = mediate_pullback(tdata.strict, zero_functor(
            kg.groupoid, tdata.strict.to_first.cod), kg.to_second)
    except NoMediatorError:
        return "kernel cone misses the strict pullback"
    try:
        i_fun = h_kernel_into_pullback(tdata.relaxed, hk)
    except NoMediatorError:
        return "h-kernel cone misses the relaxed pullback"
    if compose_functors(jdata.functor, i_fun) != compose_functors(
            ell, tdata.functor):
        return "kernel square does not commute"
    if not is_levelwise_pullback_square(jdata.functor, ell, i_fun,
                                        tdata.functor):
        return "kernel square is not a level-wise pullback"
    if classify_fibration(i_fun) != "discrete_fibration":
        return "h-kernel inclusion is not a discrete fibration"
    return None


@_suite("cor-weak-equivalence-J", _POINTED)
def _check_cor_weak_equivalence_j(instance, case):
    """Fibrations have weakly invertible kernel comparisons, through a
    pullback square of comparisons."""
    heavy = 6 if instance is FINPTDSET else 8
    fun, floor = _fibration_family(instance, case.rng, heavy)
    label = _floor_holds(case, fun, floor)
    if label is None:
        return
    jdata = comparison_J_data(fun)
    j = classify_equivalence(jdata.functor)
    if not j["weak_equivalence"]:
        case.fail("fibration whose kernel comparison is not a weak "
                  "equivalence", functor=fun, label=label)
    if (fibration_at_least(label, "split_epi_fibration")
            and not j["equivalence"]):
        case.fail("split fibration whose kernel comparison is not an "
                  "equivalence", functor=fun, label=label)
    if case.k % 3 == 0:
        reason = _kernel_square_checks(fun, jdata)
        if reason:
            case.fail(reason, functor=fun)


@_suite("fibration-implies-star", _POINTED)
def _check_fibration_implies_star(instance, case):
    """Every generated fibration is a star-fibration."""
    fun, floor = _fibration_family(instance, case.rng,
                                   _budget(instance, None))
    label = _floor_holds(case, fun, floor)
    if label is None:
        return
    star = classify_star_fibration(fun)
    if not star_at_least(star, "star_fibration"):
        case.fail("fibration that is not a star-fibration", functor=fun,
                  label=label, star=star)
    if (fibration_at_least(label, "split_epi_fibration")
            and not star_at_least(star, "split_epi_star_fibration")):
        case.fail("split fibration that is not a split star-fibration",
                  functor=fun, label=label, star=star)


@_search("star-not-fibration-search", ("finab",), ("finab",), 200)
def _search_star_not_fibration(instance):
    """Search for a star-fibration that is not a fibration: each functor
    between small groupoid pairs, smallest first, is one candidate."""
    catalog = _groupoid_catalog(8)
    hom = _hom_memo()
    pairs = sorted(
        ((a, b) for a in catalog for b in catalog),
        key=lambda p: (p[0].B1.size + p[1].B1.size,
                       p[0].B1.size, p[1].B1.size))
    for dom, cod in pairs:
        for f0 in hom(dom.B0, cod.B0):
            for f1 in hom(dom.B1, cod.B1):
                candidate = InternalFunctor(dom, cod, f0, f1)
                if validate_functor(candidate):
                    continue
                label = classify_fibration(candidate)
                if label == "not_fibration":
                    star = classify_star_fibration(candidate)
                    if star_at_least(star, "star_fibration"):
                        yield ("star-fibration that is not a fibration",
                               {"functor": candidate, "label": label,
                                "star": star})
                        continue
                yield None


@_suite("hkernel-discrete-fibration", _POINTED)
def _check_hkernel_discrete_fibration(instance, case):
    """h-kernel projections classify as discrete fibrations."""
    heavy = 6 if instance is FINPTDSET else 8
    fun = _random_functor(instance, case.rng, heavy)
    label = classify_fibration(strong_h_kernel(fun).to_f_dom)
    if label != "discrete_fibration":
        case.fail(f"h-kernel projection classified {label!r}", functor=fun)


@_suite("ff-normalization-pullback", _POINTED)
def _check_ff_normalization_pullback(instance, case):
    """Normalized squares of fully faithful functors are pullbacks."""
    fun = _random_fully_faithful(instance, case.rng)
    if not is_fully_faithful(fun):
        case.fail("generator produced a functor that is not fully faithful",
                  functor=fun)
        return
    if not classify_morphism(partial_zero_arr(normalize(fun))).iso:
        case.fail("fully faithful functor whose normalized square is not "
                  "a pullback", functor=fun)


@_suite("pullback-discrete-fibration-transfer", _ALL)
def _check_pullback_transfer(instance, case):
    """Weak equivalence transfers across pullbacks along discrete
    fibrations."""
    rng = case.rng
    base = _random_groupoid(instance, rng, 6)
    disc = _discrete_fibration_into(base, rng)
    if classify_fibration(disc) != "discrete_fibration":
        case.fail("generator produced a non-discrete fibration leg",
                  functor=disc)
        return
    weq = _weak_equivalence_into(base, rng)
    weq_flags = classify_equivalence(weq)
    if not weq_flags["weak_equivalence"]:
        case.fail("generator produced a non-weak-equivalence leg",
                  functor=weq)
        return
    pulled = classify_equivalence(pullback_groupoid(weq, disc).to_second)
    if not pulled["weak_equivalence"]:
        case.fail("weak equivalence fails to transfer across the pullback",
                  functor=weq, along=disc)
    if weq_flags["equivalence"] and not pulled["equivalence"]:
        case.fail("equivalence fails to transfer across the pullback",
                  functor=weq, along=disc)


@_suite("normalization-preserves-kernels", _POINTED)
def _check_normalization_preserves_kernels(instance, case):
    """Normalization commutes with kernels and strong h-kernels up to
    canonical isomorphism."""
    heavy = 5 if instance is FINPTDSET else 8
    fun = _random_functor(instance, case.rng, heavy)
    nf = normalize(fun)
    incl, ker = kernel_groupoid(fun)[1], kernel_arr(nf)
    cmp_k = kernel_preservation_comparison(incl, nf, ker)
    if not (classify_morphism(cmp_k.f).iso
            and classify_morphism(cmp_k.f0).iso):
        case.fail("kernel comparison is not an isomorphism", functor=fun)
    elif compose_arr(cmp_k, ker) != normalize(incl):
        case.fail("kernel comparison does not commute with inclusions",
                  functor=fun)
    hk = strong_h_kernel(fun)
    arr = strong_h_kernel_arr(nf)
    cmp_h = h_kernel_preservation_comparison(hk, arr)
    if not (classify_morphism(cmp_h.f).iso
            and classify_morphism(cmp_h.f0).iso):
        case.fail("h-kernel comparison is not an isomorphism", functor=fun)
        return
    if compose_arr(cmp_h, arr.inclusion) != normalize(hk.to_f_dom):
        case.fail("h-kernel comparison does not commute with projections",
                  functor=fun)
        return
    direct = normalize_homotopy(hk.cell)
    acted = act_on_diagonal(cmp_h, arr.diagonal, identity_arr(arr.of.cod))
    if direct.d != acted.d:
        case.fail("h-kernel comparison does not respect the diagonal",
                  functor=fun)


@_suite("kernel-pullback-rows", _POINTED)
def _check_kernel_pullback_rows(instance, case):
    """Kernel rows of the partial-map rectangle, with its pullback square."""
    fun = _random_functor(instance, case.rng)
    a = fun.dom
    pz = partial_zero(fun)
    nf = normalize(fun)
    npz = partial_zero_arr(nf)
    kd = kernel(a.d).legs["ker"]
    zero_a0 = a.B0.zero_element()
    bottom = morphism_from_function(
        npz.cod, pz.morphism.cod,
        lambda p: ((zero_a0, p[1]), p[0]))
    if compose(pz.morphism, pz.to_dom) != a.d:
        case.fail("partial map does not project back to the source",
                  functor=fun)
        return
    if compose(npz, bottom) != compose(kd, pz.morphism):
        case.fail("restricted square does not commute", functor=fun)
        return
    try:
        row = kernel(pz.to_dom).mediate({"ker": bottom})
        top = kernel(a.d).mediate({"ker": kd})
        med = pullback(pz.morphism, bottom).mediate({"p1": kd, "p2": npz})
    except NoMediatorError:
        case.fail("kernel rows fail to mediate", functor=fun)
        return
    if not classify_morphism(top).iso:
        case.fail("arrow-level row is not a kernel", functor=fun)
    if not classify_morphism(row).iso:
        case.fail("restricted row is not a kernel", functor=fun)
    if not classify_morphism(med).iso:
        case.fail("restriction square is not a pullback", functor=fun)


@_suite("normalization-transfer", _POINTED)
def _check_normalization_transfer(instance, case):
    """Classification flags move along normalization, item by item."""
    rng = case.rng
    roll = rng.random()
    if roll < 0.4:
        fun, _ = _tagged_functor(instance, rng)
    elif roll < 0.7:
        fun = _random_fully_faithful(instance, rng)
    else:
        fun = _random_functor(instance, rng)
    record = FunctorClassification(fun)
    pz, ff = record.zero, record.fully_faithful
    ess = record.essential.regular_epi
    fib = fibration_at_least(record.fibration, "fibration")
    arrow_flags = classify_arrow_morphism(normalize(fun))
    items = [
        (1, pz.faithful, arrow_flags["faithful"]),
        (2, ff, arrow_flags["fully_faithful"]),
        (3, pz.full, arrow_flags["full"]),
        (8, arrow_flags["essentially_surjective"], ess),
        (9, fib, arrow_flags["fibration"]),
    ]
    if instance is FINAB:
        items += [
            (4, arrow_flags["faithful"], pz.faithful),
            (5, arrow_flags["fully_faithful"], ff),
            (6, arrow_flags["full"], pz.full),
            (7, ess, arrow_flags["essentially_surjective"]),
            (10, arrow_flags["fibration"], fib),
        ]
    for item, premise, conclusion in items:
        if premise and not conclusion:
            case.fail(f"transfer item {item} fails", functor=fun, item=item)


@_suite("kernels-strong-arr", _POINTED)
def _check_kernels_strong_arr(instance, case):
    """Square-level kernel comparisons are fully faithful, by the endpoint
    pullback and by the fibrewise count alike, and factor kernel cones.
    The two counts are also compared on the square itself, whose flags
    take every value, as J's are always true."""
    m = _random_arrow_morphism(instance, case.rng, 6)
    j = comparison_J_arr(m)
    for square, name in ((m, "square"), (j, "kernel comparison")):
        flags = classify_morphism(partial_zero_arr(square))
        if _fibre_flags(square) != (flags.mono, flags.regular_epi):
            case.fail(f"fibrewise flags of the {name} disagree with its "
                      "endpoint pullback", square=m)
            return
    if not flags.iso:  # J's flags, read last
        case.fail("kernel comparison of a square is not fully faithful",
                  square=m)
        return
    hk = strong_h_kernel_arr(m)
    if hk.diagonal.morphism != compose_arr(hk.inclusion, m):
        case.fail("h-kernel diagonal sits on the wrong square", square=m)
        return
    karr = kernel_arr(m)
    mu = Diagonal(compose_arr(karr, m),
                  zero_morphism(karr.dom.bottom, m.cod.top))
    try:
        factor = h_kernel_factorization(hk, karr, mu)
    except NoMediatorError:
        case.fail("kernel cone fails to factor through the h-kernel",
                  square=m)
        return
    if factor != j:
        case.fail("factorization disagrees with the kernel comparison",
                  square=m)
    # J(m) is essentially surjective iff its bottom map and its codomain's
    # arrow are jointly strongly epic: their images cover the codomain
    # (FinPtdSet) or generate it as a subgroup (FinAb)
    cover = set(j.f0.map) | set(j.cod.a.map)
    if instance is FINAB:
        cover = generated_subgroup_indices(j.f0.cod, cover)
    joint_epi = len(cover) == j.f0.cod.size
    if classify_arrow_morphism(m)["star_fibration"] != joint_epi:
        case.fail("star flag disagrees with the joint-epi oracle", square=m)


def _j_flags(m: ArrowMorphism):
    """(J(m) is fully faithful, J(m) is essentially surjective)."""
    j = comparison_J_arr(m)
    return all(_fibre_flags(j)), is_essentially_surjective_arr(j)


@_search("protomodularity-char", _POINTED,
         [n for n in _POINTED if not parse_instance(n).protomodular], 100)
def _search_protomodularity(instance):
    """Fibration squares have weakly invertible kernel comparisons exactly
    in a protomodular instance.

    Sweeps fibration squares and tests the kernel comparison.  Where the
    instance declares itself protomodular (FinAb) the comparison must
    always be a weak equivalence (violations are failures); elsewhere
    (FinPtdSet) the sweep is a counterexample search and found witnesses,
    shrunk while they stay bad, are the expected outcome.
    """
    def still_bad(cand):
        return (classify_morphism(cand.f).regular_epi
                and not all(_j_flags(cand)))

    for m in _fibration_squares(instance):
        if all(_j_flags(m)):
            yield None
        elif instance.protomodular:
            yield ("fibration square whose kernel comparison fails weak "
                   "equivalence", {"square": m})
        else:
            small = _shrink_square(m, still_bad)
            fully_faithful, joint_epi = _j_flags(small)
            yield ("fibration square whose kernel comparison fails the "
                   "joint-epi oracle",
                   {"square": small, "joint_epi": joint_epi,
                    "fully_faithful": fully_faithful})


@_suite("pi-invariance", _ALL)
def _check_pi_invariance(instance, case):
    """Weak equivalences induce isomorphisms on components and loops."""
    fun = _random_weak_equivalence(instance, case.rng)
    if not is_weak_equivalence(fun):
        case.fail("generator produced a non-weak-equivalence", functor=fun)
        return
    if not classify_morphism(pi0_induced(fun)).iso:
        case.fail("weak equivalence with non-isomorphic component map",
                  functor=fun)
    if instance.pointed and not classify_morphism(pi1_induced(fun)).iso:
        case.fail("weak equivalence with non-isomorphic loop map",
                  functor=fun)


@_suite("mediator-uniqueness", _ALL)
def _check_mediator_uniqueness(instance, case):
    """A limit's apex lists each tuple of leg values once, so its legs
    are jointly injective and a cone factors through it at most once."""
    rng = case.rng
    kinds = ["pullback", "product", "h-object", "h-arrow"]
    if instance.pointed:
        kinds.append("kernel")
    kind = rng.choice(kinds)
    if kind in ("pullback", "product", "kernel"):
        x = _random_object(instance, rng, 5)
        z = _random_object(instance, rng, 5)
        if kind == "pullback":
            y = _random_object(instance, rng, 5)
            lim = pullback(_random_map(x, z, rng), _random_map(y, z, rng))
        elif kind == "product":
            lim = product(x, z)
        else:
            lim = kernel(_random_map(x, z, rng))
    else:
        small = 3 if instance is not FINAB else 4
        b = _random_groupoid(instance, rng, small)
        f = _cospan_leg(b, rng)
        g = _cospan_leg(b, rng)
        hp = strong_h_pullback(f, g)
        lim = hp.object_limit if kind == "h-object" else hp.arrow_limit
    if len(set(zip(*(leg.map for leg in lim.legs.values())))) < lim.apex.size:
        case.fail("apex lists an element twice", kind=kind, apex=lim.apex)


def _cospan_leg(b: InternalGroupoid, rng) -> InternalFunctor:
    roll = rng.random()
    if roll < 0.4:
        return identity_functor(b)
    if roll < 0.7:
        return _subgroupoid_inclusion(b, rng)
    a = discrete_groupoid(_random_object(b.instance, rng, 2))
    f0 = _random_map(a.B0, b.B0, rng)
    return functor(a, b, f0, lambda o: b.e(f0(o)))


def suite_names():
    return list(SUITES)


def run_suite(name, instance, n_cases, seed) -> SuiteReport:
    """Run the first ``n_cases`` cases (``None``: the registered bound) of
    a suite on one instance, up to the third witness on a witness instance.

    Instances outside the suite's capability list produce an empty report
    with zero cases, so "all" loops can iterate uniformly.
    """
    spec = SUITES.get(name)
    if spec is None:
        raise DiagramError(f"unknown suite {name!r}")
    if n_cases is None:
        n_cases = spec.default_cases
    if type(n_cases) is not int or n_cases < 1:
        raise DiagramError(f"a suite's case count must be an int >= 1, "
                           f"not {n_cases!r}")
    applies = instance.name in spec.instances
    expects_witness = applies and instance.name in spec.witness_instances
    cases, failures = 0, []
    if applies:
        for cases, found in enumerate(
                islice(spec.stream(instance, seed), n_cases), 1):
            failures += found
            if expects_witness and len(failures) >= 3:
                break
    return SuiteReport(suite=name, instance=instance.name, seed=seed,
                       cases=cases, failures=failures,
                       expects_witness=expects_witness)
