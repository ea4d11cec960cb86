"""Base limits against brute-force element-level oracles.

Mediation is index-level (a cone is looked up by the index tuples its legs
pick out), so these tests decide each mediator from the elements alone: for
every source element, the apex elements whose legs agree with the cone's.
"""

import gc
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupoid_lab import arrow, base, catalog, holim, serialize
from groupoid_lab.base import (
    FINAB, FINPTDSET, FINSET, BaseMorphism, CapabilityError,
    CompositionError, DiagramError, NoMediatorError, comma, direct_sum,
    enumerate_morphisms, finab_object, finptdset_object, finset_object,
    generated_subgroup_indices, identity, kernel, product, pullback,
    quotient_by_subgroup, subobject_limit, zmod)
from groupoid_lab.classify import classification_report
from groupoid_lab.generators import gen_functor
from groupoid_lab.groupoid import delooping
from groupoid_lab.harness import run_suite


def _objects(instance):
    if instance is FINSET:
        return [finset_object([f"s{i}" for i in range(n)]) for n in (1, 2, 3)]
    if instance is FINPTDSET:
        return [finptdset_object(["*"] + [f"x{i}" for i in range(1, n)])
                for n in (1, 2, 3)]
    return [zmod(1), zmod(2), zmod(4), direct_sum(zmod(2), zmod(2))]


def _random_map(rng, dom, cod):
    """A uniformly drawn morphism dom -> cod."""
    return rng.choice(list(enumerate_morphisms(dom, cod)))


def _brute_force_images(lim, cone):
    """For each source element, the apex elements the cone pins down."""
    src = next(iter(cone.values())).dom
    return [[a for a in lim.apex.carrier
             if all(lim.legs[name](a) == u(x) for name, u in cone.items())]
            for x in src.carrier]


def _assert_mediates_as_brute_force(lim, cone):
    images = _brute_force_images(lim, cone)
    assert all(len(found) <= 1 for found in images)
    if all(images):
        med = lim.mediate(cone)
        src = next(iter(cone.values())).dom
        assert [med(x) for x in src.carrier] == [found[0] for found in images]
        BaseMorphism(src, lim.apex, med.map)  # validates the structure
        return True
    with pytest.raises(NoMediatorError):
        lim.mediate(cone)
    return False


_INSTANCES = [FINSET, FINPTDSET, FINAB]


@pytest.mark.parametrize("instance", _INSTANCES, ids=lambda i: i.name)
class TestMediationAgainstBruteForce:
    def test_pullback(self, instance):
        rng = random.Random(f"pullback:{instance.name}")
        objs = _objects(instance)
        outcomes = set()
        for _ in range(40):
            a, b, c, s = (rng.choice(objs) for _ in range(4))
            f, g = _random_map(rng, a, c), _random_map(rng, b, c)
            lim = pullback(f, g)
            cone = {"p1": _random_map(rng, s, a), "p2": _random_map(rng, s, b)}
            outcomes.add(_assert_mediates_as_brute_force(lim, cone))
        assert outcomes == {True, False}

    def test_product(self, instance):
        rng = random.Random(f"product:{instance.name}")
        objs = _objects(instance)
        for _ in range(30):
            a, b, s = (rng.choice(objs) for _ in range(3))
            cone = {"p1": _random_map(rng, s, a), "p2": _random_map(rng, s, b)}
            assert _assert_mediates_as_brute_force(product(a, b), cone)

    def test_finite_limit(self, instance):
        # a comma object of two random cospans on one middle object
        rng = random.Random(f"finite_limit:{instance.name}")
        objs = _objects(instance)
        outcomes = set()
        for _ in range(40):
            x, m, y, b, b2, s = (rng.choice(objs) for _ in range(6))
            lim = _random_comma(rng, x, m, y, b, b2)
            cone = {"x": _random_map(rng, s, x), "m": _random_map(rng, s, m),
                    "y": _random_map(rng, s, y)}
            outcomes.add(_assert_mediates_as_brute_force(lim, cone))
        assert outcomes == {True, False}

    def test_kernel(self, instance):
        if not instance.pointed:
            with pytest.raises(CapabilityError):
                kernel(_random_map(random.Random(0), *_objects(instance)[:2]))
            return
        rng = random.Random(f"kernel:{instance.name}")
        objs = _objects(instance)
        outcomes = set()
        for _ in range(40):
            a, b, s = (rng.choice(objs) for _ in range(3))
            lim = kernel(_random_map(rng, a, b))
            cone = {"ker": _random_map(rng, s, a)}
            outcomes.add(_assert_mediates_as_brute_force(lim, cone))
        assert outcomes == {True, False}


@pytest.mark.parametrize("instance", _INSTANCES, ids=lambda i: i.name)
class TestMistypedCones:
    def test_pullback(self, instance):
        a, b = _objects(instance)[1:3]
        rng = random.Random(0)
        f, g = _random_map(rng, a, b), _random_map(rng, b, b)
        lim = pullback(f, g)
        ida, idb = _random_map(rng, a, a), _random_map(rng, b, b)
        with pytest.raises(CompositionError):
            lim.mediate({"p1": ida, "p2": idb})  # different sources
        with pytest.raises(CompositionError):
            lim.mediate({"p1": _random_map(rng, b, b), "p2": idb})

    def test_product(self, instance):
        a, b = _objects(instance)[1:3]
        rng = random.Random(0)
        lim = product(a, a)
        with pytest.raises(CompositionError):
            lim.mediate({"p1": _random_map(rng, a, a),
                         "p2": _random_map(rng, b, a)})
        # a leg into another object
        with pytest.raises(CompositionError):
            lim.mediate({"p1": _random_map(rng, a, b),
                         "p2": _random_map(rng, a, a)})

    def test_finite_limit(self, instance):
        a, b = _objects(instance)[1:3]
        rng = random.Random(0)
        f, g = _random_map(rng, a, b), _random_map(rng, a, b)
        lim = comma(f, g, g, f, "xmy")
        ida = _random_map(rng, a, a)
        with pytest.raises(CompositionError):
            lim.mediate({"x": _random_map(rng, a, b), "m": ida, "y": ida})
        # the middle leg is checked too
        with pytest.raises(CompositionError):
            lim.mediate({"x": ida, "m": _random_map(rng, a, b), "y": ida})
        with pytest.raises(CompositionError):
            lim.mediate({"x": ida, "m": ida, "y": _random_map(rng, b, a)})
        with pytest.raises(NoMediatorError):
            lim.mediate({})

    def test_a_cone_without_a_leg(self, instance):
        a, b = _objects(instance)[1:3]
        rng = random.Random(0)
        f = _random_map(rng, a, b)
        u = _random_map(rng, a, a)
        with pytest.raises(NoMediatorError, match="no leg 'p2'"):
            pullback(f, f).mediate({"p1": u})
        with pytest.raises(NoMediatorError, match="no leg 'p1'"):
            product(a, b).mediate({"p2": _random_map(rng, a, b)})
        with pytest.raises(NoMediatorError, match="no leg 'incl'"):
            subobject_limit(a, range(a.size)).mediate({})
        if instance.pointed:
            with pytest.raises(NoMediatorError, match="no leg 'ker'"):
                kernel(f).mediate({})

    def test_every_limit_names_a_mistyped_or_missing_leg(self, instance):
        a, b = _objects(instance)[1:3]
        rng = random.Random(0)
        f = _random_map(rng, a, b)
        limits = [pullback(f, f), product(a, b),
                  comma(f, f, f, f, "xmy"),
                  subobject_limit(a, range(a.size))]
        if instance.pointed:
            limits.append(kernel(f))
        for lim in limits:
            cone = {name: _random_map(rng, a, leg.cod)
                    for name, leg in lim.legs.items()}
            for name, leg in lim.legs.items():
                wrong = b if leg.cod == a else a
                with pytest.raises(CompositionError,
                                   match=f"^cone leg {name!r}"):
                    lim.mediate({**cone, name: _random_map(rng, a, wrong)})
            # a cone without its first leg names it
            first = next(iter(lim.legs))
            with pytest.raises(NoMediatorError, match=f"no leg {first!r}"):
                lim.mediate({n: u for n, u in cone.items() if n != first})

    def test_non_commuting_pullback_cone(self, instance):
        a, b = _objects(instance)[1:3]
        # a constant map and another one, which disagree on some element
        homs = list(enumerate_morphisms(a, b))
        f = next(h for h in homs if len(set(h.map)) == 1)
        g = next(h for h in homs if h.map != f.map)
        lim = pullback(f, g)
        ida = next(h for h in enumerate_morphisms(a, a)
                   if list(h.map) == list(range(a.size)))
        with pytest.raises(NoMediatorError):
            lim.mediate({"p1": ida, "p2": ida})


def _random_comma(rng, x, m, y, b, b2):
    """The comma of random maps x -> b <- m -> b2 <- y, legs x, m, y."""
    return comma(_random_map(rng, x, b), _random_map(rng, m, b),
                 _random_map(rng, m, b2), _random_map(rng, y, b2), "xmy")


def _oracle_triples(left, d, c, right):
    """Every (x, m, y) in X x M x Y with left x = d m and right y = c m."""
    return [(x, m, y) for x, m, y in itertools.product(
                range(left.dom.size), range(d.dom.size), range(right.dom.size))
            if left.map[x] == d.map[m] and right.map[y] == c.map[m]]


@pytest.mark.parametrize("instance", _INSTANCES, ids=lambda i: i.name)
class TestFiniteLimitAgainstOracle:
    """The comma object against a brute-force scan of X x M x Y."""

    def test_apex_tuples_and_order(self, instance):
        rng = random.Random(f"finite_limit_oracle:{instance.name}")
        objs = _objects(instance)
        sizes = set()
        for _ in range(60):
            x, m, y, b, b2 = (rng.choice(objs) for _ in range(5))
            maps = [_random_map(rng, x, b), _random_map(rng, m, b),
                    _random_map(rng, m, b2), _random_map(rng, y, b2)]
            left, d, c, right = maps
            expected = _oracle_triples(*maps)
            lim = comma(*maps, ("x", "m", "y"))
            sizes.add(len(expected) > 1)
            assert list(lim.lookup) == expected
            assert list(lim.lookup.values()) == list(range(len(expected)))
            assert lim.apex.size == len(expected)
            assert list(lim.legs) == ["x", "m", "y"]
            for k, name in enumerate("xmy"):
                assert lim.legs[name].map == tuple(t[k] for t in expected)
            assert list(lim.apex.carrier) == [
                (x.carrier[i], m.carrier[j], y.carrier[k],
                 b.carrier[d.map[j]], b2.carrier[c.map[j]])
                for i, j, k in expected]
        assert sizes == {True, False}

    def test_identity_middle_gives_the_pullback(self, instance):
        rng = random.Random(f"comma_pullback:{instance.name}")
        objs = _objects(instance)
        for _ in range(30):
            x, y, b = (rng.choice(objs) for _ in range(3))
            f, g = _random_map(rng, x, b), _random_map(rng, y, b)
            lim = comma(f, identity(b), identity(b), g, ("p1", "mid", "p2"))
            pb = pullback(f, g)
            assert [(i, k) for i, _, k in lim.lookup] == list(pb.lookup)
            assert lim.legs["p1"].map == pb.legs["p1"].map
            assert lim.legs["p2"].map == pb.legs["p2"].map
            assert lim.legs["mid"].map == tuple(f.map[i] for i, _ in pb.lookup)
            assert [(e[0], e[2]) for e in lim.apex.carrier] == list(
                pb.apex.carrier)


def test_mediating_a_finite_limit_composes_nothing(monkeypatch):
    onto = BaseMorphism(zmod(4), zmod(2), (0, 1, 0, 1))
    lim = comma(onto, onto, onto, onto, "xmy")
    calls = []
    compose_ = base.compose
    monkeypatch.setattr(base, "compose", lambda *ms: (
        calls.append(ms), compose_(*ms))[1])
    ident = identity(zmod(4))
    double = BaseMorphism(zmod(4), zmod(4), (0, 2, 0, 2))
    assert lim.mediate({"x": ident, "m": ident, "y": ident}).map == tuple(
        lim.lookup[(i, i, i)] for i in range(4))
    with pytest.raises(NoMediatorError, match="does not land"):
        lim.mediate({"x": ident, "m": double, "y": ident})
    assert calls == []


@pytest.mark.parametrize("instance", [FINPTDSET, FINAB], ids=lambda i: i.name)
def test_mistyped_kernel_cone(instance):
    a, b = _objects(instance)[1:3]
    rng = random.Random(0)
    lim = kernel(_random_map(rng, b, a))
    with pytest.raises(CompositionError):
        lim.mediate({"ker": _random_map(rng, b, a)})


@pytest.mark.parametrize("instance", [FINPTDSET, FINAB], ids=lambda i: i.name)
class TestKernelMemo:
    @staticmethod
    def _onto(instance):
        """An onto map with a proper kernel, its domain and codomain."""
        b, a = _objects(instance)[1:3]
        f = next(f for f in enumerate_morphisms(a, b)
                 if len(set(f.map)) == b.size)
        return f, a, b

    def test_a_morphism_keeps_its_kernel(self, instance):
        f, _, _ = self._onto(instance)
        assert kernel(f) is kernel(f)

    def test_the_kept_kernel_still_checks_every_cone(self, instance):
        f, a, b = self._onto(instance)
        zero = f.cod.zero
        bad = next(u for u in enumerate_morphisms(a, a)
                   if any(f.map[x] != zero for x in u.map))
        good = kernel(f).legs["ker"]
        first = kernel(f).mediate({"ker": good})
        for _ in range(2):
            lim = kernel(f)
            with pytest.raises(NoMediatorError):
                lim.mediate({"ker": bad})
            with pytest.raises(CompositionError):
                lim.mediate({"ker": _random_map(random.Random(0), b, b)})
            assert lim.mediate({"ker": good}) == first

    def test_an_equal_morphism_builds_an_equal_kernel(self, instance):
        f, _, _ = self._onto(instance)
        g = BaseMorphism(f.dom, f.cod, f.map)
        assert kernel(g) is not kernel(f)
        assert kernel(g).apex == kernel(f).apex
        assert kernel(g).legs == kernel(f).legs


def test_finset_kernels_raise_on_every_call():
    f = _random_map(random.Random(0), *_objects(FINSET)[1:3])
    for _ in range(2):
        with pytest.raises(CapabilityError):
            kernel(f)
    assert f._kernel is None


def test_the_sweep_builds_each_kernel_once(monkeypatch):
    taken, built = {}, []

    def keeping(f):
        taken[id(f)] = f  # kept alive, so no id is reused
        return kernel(f)

    for module in (base, arrow):
        monkeypatch.setattr(module, "kernel", keeping)
    subobject_limit = base.subobject_limit
    monkeypatch.setattr(base, "subobject_limit", lambda *args: (
        built.append(args), subobject_limit(*args))[1])
    report = run_suite("protomodularity-char", FINAB, 25000, 0)
    assert (report.cases, report.failures) == (20796, [])
    assert 0 < len(built) <= len(taken)


def test_the_sweep_builds_only_the_squares_j_returns(monkeypatch):
    # per square: the streamed square and J itself, both built trusted;
    # J reads the two base kernels, so neither the kernel square nor the
    # strong h-kernel's inclusion, composite and diagonal are built
    built = {arrow.ArrowMorphism: 0, arrow.Diagonal: 0}
    checked = dict(built)
    for cls in built:
        def counted(self, *trusted, _cls=cls, _check=cls.__post_init__):
            built[_cls] += 1
            checked[_cls] += not any(trusted)
            _check(self, *trusted)
        monkeypatch.setattr(cls, "__post_init__", counted)
    report = run_suite("protomodularity-char", FINAB, 25000, 0)
    assert (report.cases, report.failures) == (20796, [])
    assert built == {arrow.ArrowMorphism: 41592, arrow.Diagonal: 0}
    assert checked == {arrow.ArrowMorphism: 0, arrow.Diagonal: 0}


def test_the_sweep_builds_each_endpoint_pullback_once_per_codomain(
        monkeypatch):
    # one pullback per (codomain object, f0) for the 20796 streamed squares;
    # J's flags are read off fibres, so J, whose codomain object is new for
    # every square, builds none
    calls = []

    def counted(f, g):
        calls.append(None)
        return pullback(f, g)

    for module in (base, arrow):
        monkeypatch.setattr(module, "pullback", counted)
    report = run_suite("protomodularity-char", FINAB, 25000, 0)
    assert (report.cases, report.failures) == (20796, [])
    assert len(calls) == 4928


def test_the_sweep_mediates_each_j_bottom_once_per_codomain(monkeypatch):
    # per square: the kernel's restricted arrow and the endpoint
    # factorization; J's bottom once per (codomain object, f0), beside the
    # 4928 kept pullbacks: 2 * 20796 + 4928
    calls = []
    mediate = base.LimitResult.mediate

    def counted(self, cone):
        calls.append(None)
        return mediate(self, cone)

    monkeypatch.setattr(base.LimitResult, "mediate", counted)
    report = run_suite("protomodularity-char", FINAB, 25000, 0)
    assert (report.cases, report.failures) == (20796, [])
    assert len(calls) == 46520


@pytest.mark.parametrize("instance, squares, thens, arrow_objects", [
    (FINAB, 20796, 17979, 7308), (FINPTDSET, 795, 779, 276)],
    ids=["finab", "finptdset"])
def test_the_stream_walks_only_quadruples_with_an_epi(
        monkeypatch, instance, squares, thens, arrow_objects):
    # a quadruple (a, a0, b, b0) with no regular epi a -> b holds no square,
    # so it builds no arrow object and no table of top;f0
    built = {"_then": 0, "ArrowObject": 0}
    for name in built:
        def counted(*args, _name=name, _real=getattr(catalog, name)):
            built[_name] += 1
            return _real(*args)
        monkeypatch.setattr(catalog, name, counted)
    assert sum(1 for _ in catalog._fibration_squares(instance)) == squares
    assert built == {"_then": thens, "ArrowObject": arrow_objects}


def _squares_into_one_object():
    """Two squares into one codomain object with one bottom map f0."""
    z2 = zmod(2)
    cod = arrow.ArrowObject(identity(z2))
    f0 = identity(z2)
    zero = base.zero_morphism(z2, z2)
    return (arrow.ArrowMorphism(arrow.ArrowObject(identity(z2)), cod,
                                identity(z2), f0),
            arrow.ArrowMorphism(arrow.ArrowObject(zero), cod, zero, f0))


def test_squares_sharing_codomain_and_f0_share_the_endpoint_pullback():
    m, n = _squares_into_one_object()
    lim = arrow.strong_h_kernel_arr(m).limit
    assert arrow.strong_h_kernel_arr(n).limit is lim
    j = arrow.comparison_J_arr(n)
    assert j.cod.a.cod is lim.apex
    assert list(m.cod._pullbacks.values()) == [[m.f0, lim, j.f0]]


def test_squares_sharing_codomain_and_f0_share_the_j_bottom():
    m, n = _squares_into_one_object()
    bottom = arrow.comparison_J_arr(m).f0
    assert arrow.comparison_J_arr(n).f0 is bottom
    assert bottom.cod is arrow.strong_h_kernel_arr(n).limit.apex


def test_another_codomain_object_or_f0_builds_its_own_pullback():
    m, _ = _squares_into_one_object()
    lim = arrow.strong_h_kernel_arr(m).limit
    other_cod = arrow.ArrowMorphism(m.dom, arrow.ArrowObject(m.cod.a),
                                    m.f, m.f0)
    equal_f0 = BaseMorphism(m.f0.dom, m.f0.cod, m.f0.map)
    other_f0 = arrow.ArrowMorphism(m.dom, m.cod, m.f, equal_f0)
    assert other_cod == m and other_f0 == m
    own = [arrow.strong_h_kernel_arr(x).limit for x in (other_cod, other_f0)]
    assert own[0] is not lim and own[1] is not lim and own[0] is not own[1]
    assert all(x.apex == lim.apex for x in own)
    assert len(m.cod._pullbacks) == 2


def test_another_codomain_object_or_f0_builds_its_own_j_bottom():
    m, _ = _squares_into_one_object()
    bottom = arrow.comparison_J_arr(m).f0
    other_cod = arrow.ArrowMorphism(m.dom, arrow.ArrowObject(m.cod.a),
                                    m.f, m.f0)
    equal_f0 = BaseMorphism(m.f0.dom, m.f0.cod, m.f0.map)
    other_f0 = arrow.ArrowMorphism(m.dom, m.cod, m.f, equal_f0)
    own = [arrow.comparison_J_arr(x).f0 for x in (other_cod, other_f0)]
    assert own[0] is not bottom and own[1] is not bottom
    assert own[0] is not own[1]
    assert all(x.map == bottom.map for x in own)
    assert [entry[2] for entry in m.cod._pullbacks.values()] == [
        bottom, own[1]]


def _is_sum_closed(group, subset):
    return all(group.add[a][b] in subset for a in subset for b in subset)


@pytest.mark.parametrize("orders", [(8,), (2, 4), (2, 2, 2)],
                         ids=lambda o: "x".join(f"Z{n}" for n in o))
def test_subobject_accepts_exactly_the_closed_subsets(orders):
    group = zmod(orders[0])
    for n in orders[1:]:
        group = direct_sum(group, zmod(n))
    others = [i for i in range(group.size) if i != group.zero]
    accepted = 0
    for r in range(len(others) + 1):
        for chosen in itertools.combinations(others, r):
            subset = {group.zero, *chosen}
            if not _is_sum_closed(group, subset):
                with pytest.raises(DiagramError,
                                   match="^subset is not closed under the "
                                         "group structure$"):
                    subobject_limit(group, subset)
                continue
            accepted += 1
            lim = subobject_limit(group, subset)
            sub, incl = lim.apex, lim.legs["incl"]
            idx = sorted(subset)
            assert list(incl.map) == idx
            assert list(sub.carrier) == [group.carrier[i] for i in idx]
            pos = {p: k for k, p in enumerate(idx)}
            assert sub.zero == pos[group.zero]
            assert [list(row) for row in sub.add] == [
                [pos[group.add[i][j]] for j in idx] for i in idx]
            assert list(sub.neg) == [pos[group.neg[i]] for i in idx]
            incl._validate()
    # subgroup counts: Z8 has 4, Z2xZ4 has 8, Z2^3 has 16
    assert accepted == {(8,): 4, (2, 4): 8, (2, 2, 2): 16}[orders]
    with pytest.raises(DiagramError, match="^a pointed subobject must keep "
                                           "the zero$"):
        subobject_limit(group, others)


def test_neg_outside_the_apex_raises_when_read():
    # f is no hom (trusted on purpose): the pullback of f against zero is
    # {(0, 0), (2, 0)}, which holds zero but neither -2 nor 2 + 2
    z3 = zmod(3)
    f = BaseMorphism(z3, z3, (0, 1, 0), _trusted=True)
    apex = pullback(f, BaseMorphism(zmod(1), z3, (0,), _trusted=True)).apex
    assert apex.size == 2 and apex.zero == 0
    with pytest.raises(DiagramError, match="not sum-closed"):
        apex.neg[1]
    with pytest.raises(DiagramError, match="not sum-closed"):
        apex.add[1][1]
    assert apex.add[0] == (0, 1)
    with pytest.raises(DiagramError, match="not sum-closed"):
        apex.add[1]
    assert list(apex.carrier) == [(0, 0), (2, 0)]


class TestLimitsOnDemand:
    def test_sweep_builds_no_carrier_neg_or_dense_kernel_table(
            self, monkeypatch):
        apexes, kernels = [], []

        def collecting(build, into):
            def collected(*args):
                lim = build(*args)
                into.append(lim.apex)
                return lim
            return collected

        pullback_, kernel_ = base.pullback, base.kernel
        for module in (base, arrow):
            monkeypatch.setattr(module, "pullback",
                                collecting(pullback_, apexes))
            monkeypatch.setattr(module, "kernel", collecting(kernel_, kernels))
        builds = []
        elements, negs = base._tuple_elements, base._TupleAddTable.negs
        monkeypatch.setattr(base, "_tuple_elements", lambda *args: (
            builds.append("carrier"), elements(*args))[1])
        monkeypatch.setattr(base._TupleAddTable, "negs", lambda table: (
            builds.append("neg"), negs(table))[1])
        report = run_suite("protomodularity-char", FINAB, 200, 0)
        assert report.cases == 200 and report.failures == []
        assert builds == []
        assert len(apexes) == 145 and len(kernels) >= 400
        assert all(isinstance(k.add, base._TupleAddTable) for k in kernels)
        assert all(o._carrier is None and o._neg is None
                   for o in apexes + kernels)
        # a read builds the carrier and writes the tuple back into its slot
        apex = apexes[-1]
        assert len(apex.carrier[:]) == apex.size
        assert isinstance(apex.carrier, tuple) and "carrier" in builds


class TestApexFieldsOnRead:
    @staticmethod
    def _finab_apex():
        onto = BaseMorphism(zmod(4), zmod(2), (0, 1, 0, 1))
        return pullback(onto, onto).apex

    def test_size_builds_nothing(self):
        apex = self._finab_apex()
        assert apex.size == 8
        assert apex._carrier is None and apex._neg is None

    def test_the_first_read_builds_and_keeps_the_tuple(self):
        apex = self._finab_apex()
        carrier = apex.carrier
        assert type(carrier) is tuple and len(carrier) == apex.size
        assert apex.carrier is carrier and apex._carrier is carrier
        assert apex._neg is None
        neg = apex.neg
        assert type(neg) is tuple and neg[carrier.index((1, 3))] == (
            carrier.index((3, 1)))
        assert apex.neg is neg and apex._neg is neg

    @pytest.mark.parametrize("instance", [FINSET, FINPTDSET])
    def test_an_apex_without_a_group_has_no_neg(self, instance, monkeypatch):
        builds = []
        elements = base._tuple_elements
        monkeypatch.setattr(base, "_tuple_elements", lambda *args: (
            builds.append(args), elements(*args))[1])
        x = _objects(instance)[-1]
        apex = product(x, x).apex
        assert apex.neg is None and apex.size == x.size ** 2
        assert builds == [] and apex._carrier is None

    def test_caller_data_is_held_from_construction_on(self):
        z3 = zmod(3)
        group = finab_object("abc", z3.add, z3.neg, 0)
        assert group._carrier == ("a", "b", "c") and group._neg == (0, 2, 1)
        assert group.carrier is group._carrier and group.neg is group._neg
        assert finset_object([2, 1])._carrier == (2, 1)
        assert z3._carrier == (0, 1, 2) and z3._neg == (0, 2, 1)


    def test_equal_apexes_compare_without_building(self):
        one = product(zmod(2), zmod(4)).apex
        two = product(zmod(2), zmod(4)).apex
        assert one is not two and one == two

    def test_relabelled_parts_still_compare_unequal(self):
        z2 = zmod(2)
        relabelled = finab_object("ab", z2.add, z2.neg, 0)
        one = product(z2, zmod(4)).apex
        two = product(relabelled, zmod(4)).apex
        assert one.add.tuples == two.add.tuples and one != two

    def test_commas_over_other_base_maps_compare_unequal(self):
        # same parts, same triples, but d m reads other base elements
        z2, v = zmod(2), direct_sum(zmod(2), zmod(2))
        first, second = (BaseMorphism(z2, v, t) for t in ((0, 2), (0, 1)))
        zero = BaseMorphism(z2, zmod(1), (0, 0))
        one = comma(first, first, zero, zero, "xmy").apex
        two = comma(second, second, zero, zero, "xmy").apex
        assert one.add.parts == two.add.parts
        assert one.add.tuples == two.add.tuples and one != two

class TestAddRows:
    def test_every_row_is_a_tuple(self):
        z4 = zmod(4)
        pair = product(zmod(2), z4)
        objects = [
            z4,
            finab_object(range(3), zmod(3).add, zmod(3).neg, 0),
            quotient_by_subgroup(z4, [2])[0],
            pair.apex,
            kernel(pair.legs["p1"]).apex,
            subobject_limit(z4, [0, 2]).apex,
        ]
        for obj in objects:
            assert all(type(obj.add[i]) is tuple for i in range(obj.size))

    def test_a_read_builds_one_of_256_rows(self):
        apex = product(zmod(16), zmod(16)).apex
        assert apex.add[37][200] == 237  # (2, 5) + (12, 8) = (14, 13)
        assert len(apex.add._rows) == 1

    def test_a_kernel_builds_few_rows_of_its_domain(self):
        lim = product(zmod(16), zmod(16))
        kernel(lim.legs["p1"])
        assert len(lim.apex.add._rows) <= 8


def _read_one_row_at_a_time(table):
    """Every row of a fresh table over the same parts, each looked up."""
    fresh = base._TupleAddTable(table.parts, table.tuples, table.lookup,
                                table.zero)
    return [fresh[i] for i in range(len(fresh))]


def _z2_cubed():
    z2 = zmod(2)
    return direct_sum(direct_sum(z2, z2), z2)


def _comma_apex():
    z2, v = zmod(2), direct_sum(zmod(2), zmod(2))
    left = BaseMorphism(z2, v, (0, 2))
    d = BaseMorphism(v, v, (0, 2, 1, 3))
    c = BaseMorphism(v, z2, (0, 1, 1, 0))
    return comma(left, d, c, identity(z2), "xmy").apex


def _subgroup_apex():
    group = direct_sum(zmod(4), zmod(4))
    return subobject_limit(group,
                           generated_subgroup_indices(group, [6])).apex


_FULL_READ_APEXES = {
    "trivial": lambda: product(zmod(1), zmod(1)).apex,
    "trivial-kernel": lambda: kernel(identity(zmod(3))).apex,
    "Z2xZ4": lambda: direct_sum(zmod(2), zmod(4)),
    "Z2^3": _z2_cubed,
    "Z16xZ16": lambda: product(zmod(16), zmod(16)).apex,
    "pullback": lambda: pullback(*[BaseMorphism(zmod(4), zmod(2),
                                                (0, 1, 0, 1))] * 2).apex,
    "comma": _comma_apex,
    "kernel": lambda: kernel(product(zmod(4), zmod(6)).legs["p2"]).apex,
    "subgroup": _subgroup_apex,
    "squares": lambda: holim.arrow_groupoid(delooping(zmod(4))).groupoid.B1,
    "pairs": lambda: delooping(_z2_cubed()).composition_pairs().apex,
}


class TestFullReads:
    """A read of the whole table derives the rows it has not built yet."""

    @pytest.mark.parametrize("name", _FULL_READ_APEXES)
    def test_a_full_read_equals_rows_read_one_at_a_time(self, name):
        apex = _FULL_READ_APEXES[name]()
        assert isinstance(apex.add, base._TupleAddTable)
        rows = list(apex.add)
        assert rows == _read_one_row_at_a_time(apex.add)
        assert all(type(row) is tuple for row in rows)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.sampled_from([1, 2, 3, 4, 6]), min_size=3,
                    max_size=3), st.data())
    def test_a_pullback_of_drawn_homs_reads_in_full_as_by_rows(
            self, orders, data):
        a, b, c = map(zmod, orders)
        f = data.draw(st.sampled_from(list(enumerate_morphisms(a, c))))
        g = data.draw(st.sampled_from(list(enumerate_morphisms(b, c))))
        apex = pullback(f, g).apex
        assert list(apex.add) == _read_one_row_at_a_time(apex.add)

    def test_rows_read_before_are_kept(self):
        apex = product(zmod(4), zmod(6)).apex
        gens = apex.generating_sequence()
        assert 13 not in gens  # (2, 1) is no generator
        read = {i: apex.add[i] for i in (13, gens[0], 23)}
        rows = list(apex.add)
        assert rows == _read_one_row_at_a_time(apex.add)
        assert all(rows[i] is row for i, row in read.items())
        assert all(apex.add[i] is rows[i] for i in range(apex.size))

    @staticmethod
    def _z16_squared_by_hand():
        pairs = [(a, b) for a in range(16) for b in range(16)]
        add = [[16 * ((a + c) % 16) + (b + d) % 16 for c, d in pairs]
               for a, b in pairs]
        neg = [16 * (-a % 16) + -b % 16 for a, b in pairs]
        return finab_object(pairs, add, neg, 0)

    @pytest.mark.parametrize("read", ["list", "tuple", "to_data", "eq"])
    def test_a_full_read_looks_up_only_the_generators_rows(
            self, read, monkeypatch):
        by_hand = self._z16_squared_by_hand()
        reads = {"list": lambda apex: list(apex.add),
                 "tuple": lambda apex: tuple(apex.add),
                 "to_data": serialize.object_to_data,
                 "eq": by_hand.__eq__}
        built = []
        row = base._TupleAddTable.__getitem__

        def counted(table, i):
            if i not in table._rows:
                built.append(i)
            return row(table, i)

        monkeypatch.setattr(base._TupleAddTable, "__getitem__", counted)
        apex = product(zmod(16), zmod(16)).apex
        assert reads[read](apex)
        assert len(built) <= 2 and len(apex.add._rows) == 256

    def test_a_full_read_of_a_carrier_that_is_not_sum_closed_raises(self):
        # f is no hom (trusted on purpose): {(0, 0), (2, 0)} is not closed
        z3 = zmod(3)
        f = BaseMorphism(z3, z3, (0, 1, 0), _trusted=True)
        apex = pullback(f, BaseMorphism(zmod(1), z3, (0,),
                                        _trusted=True)).apex
        with pytest.raises(DiagramError, match="not sum-closed"):
            list(apex.add)


def test_an_unread_apex_is_freed_by_reference_counting():
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        z4, z2 = zmod(4), zmod(2)
        onto = BaseMorphism(z4, z2, (0, 1, 0, 1))
        pullback(onto, onto)
        kernel(BaseMorphism(zmod(4), zmod(2), (0, 1, 0, 1)))
        product(finset_object("ab"), finset_object("xyz"))
        comma(onto, onto, onto, onto, "xmy")
        assert gc.collect() == 0
        # whole passes too: the squares' kept entries, J's objects and
        # the apexes' carrier thunks hold no reference back to their owner
        run_suite("protomodularity-char", FINAB, 2000, 0)
        run_suite("protomodularity-char", FINPTDSET, 100, 0)
        classification_report(gen_functor(FINAB, "1:142"))
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
