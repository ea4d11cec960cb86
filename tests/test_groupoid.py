"""Groupoid data model: validators, stock constructions, pi0/pi1."""

import pytest

from groupoid_lab.arrow import (classify_arrow_morphism, kernel_arr,
                                normalize, strong_h_kernel_arr)
from groupoid_lab.base import (FINAB, FINPTDSET, FINSET, BaseMorphism,
                               BaseObject, CapabilityError, DiagramError,
                               compose, direct_sum, finptdset_object,
                               finset_object, identity,
                               morphism_from_function, pullback, zmod)
from groupoid_lab.groupoid import (InternalFunctor, InternalGroupoid,
                                   NatTransformation, action_groupoid,
                                   compose_functors, cyclic_delooping,
                                   delooping, discrete_embedding,
                                   discrete_groupoid, full_subgroupoid,
                                   functor, groupoid_from_arrow, identity_cell,
                                   identity_functor, indiscrete_groupoid,
                                   make_groupoid, pi0,
                                   pi0_induced, pi1, pi1_induced,
                                   product_groupoid, transformation,
                                   validate_functor, validate_groupoid,
                                   validate_transformation, whisker,
                                   zero_functor, zero_groupoid)
from groupoid_lab.classify import classification_report
from groupoid_lab.cli import main
from groupoid_lab.generators import gen_fibration, gen_functor
from groupoid_lab.holim import arrow_groupoid, kernel_groupoid, strong_h_kernel
from groupoid_lab.serialize import from_json, to_json


def embed_delta():
    """1 -> 2 inside Z4: components Z2, loops Z1."""
    return morphism_from_function(zmod(2), zmod(4), lambda n: 2 * n)


def _pair_arrows(e_fn=lambda x: (x, x)):
    """The pair groupoid on {p, q}, an arrow x -> y being (x, y): its
    objects, arrows, source, target, unit (from e_fn) and inverse."""
    objs = finset_object("pq")
    arrows = finset_object([(x, y) for x in "pq" for y in "pq"])
    return (objs, arrows,
            morphism_from_function(arrows, objs, lambda f: f[0]),
            morphism_from_function(arrows, objs, lambda f: f[1]),
            morphism_from_function(objs, arrows, e_fn),
            morphism_from_function(arrows, arrows, lambda f: (f[1], f[0])))


def _pair_groupoid(e_fn=lambda x: (x, x),
                   compose_fn=lambda f, g: (f[0], g[1])):
    """The pair groupoid given its composition table, built from compose_fn
    on the composable pairs; the defaults give a valid groupoid."""
    objs, arrows, d, c, e, i = _pair_arrows(e_fn)
    m = morphism_from_function(pullback(c, d).apex, arrows,
                               lambda pair: compose_fn(*pair))
    return InternalGroupoid(objs, arrows, d, c, e, m, i)


class TestValidators:
    def stock(self):
        return [
            discrete_groupoid(finset_object(["p", "q", "r"])),
            indiscrete_groupoid(finptdset_object(["*", "x"])),
            cyclic_delooping(FINSET, 3),
            cyclic_delooping(FINPTDSET, 4),
            delooping(direct_sum(zmod(2), zmod(2))),
            groupoid_from_arrow(embed_delta()),
        ]

    def test_stock_groupoids_valid(self):
        for g in self.stock():
            assert validate_groupoid(g) == []

    def test_broken_unit_named(self):
        g = cyclic_delooping(FINSET, 3)
        # send the unit to the loop 1 instead of 0
        bad_e = BaseMorphism(g.B0, g.B1, [1], _trusted=True)
        broken = InternalGroupoid(g.B0, g.B1, g.d, g.c, bad_e, g.m, g.i)
        bad = validate_groupoid(broken)
        assert "unit-law" in bad

    def test_broken_inverse_named(self):
        g = cyclic_delooping(FINSET, 3)
        bad_i = identity(g.B1)
        broken = InternalGroupoid(g.B0, g.B1, g.d, g.c, g.e, g.m, bad_i)
        assert "inverse-law" in validate_groupoid(broken)

    def test_broken_associativity_named(self):
        g = cyclic_delooping(FINSET, 4)
        # a magma table that is unital but not associative: twist one cell
        table = list(g.m.map)
        pairs = g.composition_pairs().apex.carrier
        k = pairs.index((1, 2))
        table[k] = (1 + 2 + 1) % 4
        broken = InternalGroupoid(g.B0, g.B1, g.d, g.c, g.e,
                                  BaseMorphism(g.m.dom, g.B1, table,
                                               _trusted=True), g.i)
        bad = validate_groupoid(broken)
        assert "associativity" in bad or "unit-law" in bad

    def test_make_groupoid_composes_with_the_callers_function(self):
        g = make_groupoid(*_pair_arrows(), lambda f, h: (f[0], h[1]))
        assert validate_groupoid(g) == []
        assert g.mul(("p", "q"), ("q", "p")) == ("p", "p")
        assert g == _pair_groupoid()
        with pytest.raises(DiagramError, match="not composable"):
            g.mul(("p", "q"), ("p", "q"))

    def test_mul_reads_a_given_composition_table(self):
        g = _pair_groupoid()
        assert g._m is not None and validate_groupoid(g) == []
        assert g.mul(("q", "p"), ("p", "q")) == ("q", "q")
        assert g.mul(("p", "p"), ("p", "q")) == ("p", "q")
        with pytest.raises(DiagramError, match="not composable"):
            g.mul(("p", "q"), ("p", "q"))

    def test_broken_identity_source_named(self):
        # the unit at p runs from q to p
        g = _pair_groupoid(e_fn=lambda x: ("q", x))
        bad = validate_groupoid(g)
        assert "identity-source" in bad and "identity-target" not in bad

    def test_broken_identity_target_named(self):
        # the unit at p runs from p to q
        g = _pair_groupoid(e_fn=lambda x: (x, "q"))
        bad = validate_groupoid(g)
        assert "identity-target" in bad and "identity-source" not in bad

    def test_broken_composition_source_named(self):
        # f then h is h, which keeps h's target but not f's source
        g = _pair_groupoid(compose_fn=lambda f, h: h)
        bad = validate_groupoid(g)
        assert "composition-source" in bad
        assert "composition-target" not in bad

    def test_mistyped_source_named(self):
        g = cyclic_delooping(FINSET, 3)
        wrong = morphism_from_function(g.B1, g.B1, lambda x: x)
        broken = InternalGroupoid(g.B0, g.B1, wrong, g.c, g.e, g.m, g.i)
        assert validate_groupoid(broken) == ["source-map"]

    def test_functor_validation(self):
        g = cyclic_delooping(FINSET, 4)
        h = cyclic_delooping(FINSET, 2)
        fun = functor(g, h, lambda _: "*", lambda j: j % 2)
        assert validate_functor(fun) == []
        bad = InternalFunctor(g, h, fun.F0,
                              BaseMorphism(g.B1, h.B1, [0, 0, 0, 1],
                                           _trusted=True))
        assert "functor-composition" in validate_functor(bad)

    def test_functor_over_mistyped_groupoid_named(self):
        fun = identity_functor(delooping(zmod(2)))
        g = fun.dom
        wrong = BaseMorphism(g.B1, zmod(2), [0, 0], _trusted=True)
        broken = InternalGroupoid(g.B0, g.B1, wrong, g.c, g.e, g.m, g.i)
        assert validate_groupoid(broken) == ["source-map"]
        assert validate_functor(
            InternalFunctor(broken, g, fun.F0, fun.F1)) == ["source-map"]
        assert validate_functor(
            InternalFunctor(g, broken, fun.F0, fun.F1)) == ["source-map"]

    def test_validators_leave_a_lazy_composition_table_unbuilt(self):
        g = arrow_groupoid(gen_functor(FINAB, 2).cod).groupoid
        assert g._m is None
        fun = identity_functor(g)
        assert validate_functor(fun) == []
        assert validate_transformation(identity_cell(fun)) == []
        assert g._m is None

    def test_a_given_composition_table_is_still_typed(self):
        g = delooping(zmod(2))
        broken = InternalGroupoid(g.B0, g.B1, g.d, g.c, g.e, identity(g.B1),
                                  g.i)
        assert validate_groupoid(broken) == ["composition-carrier"]
        assert validate_functor(identity_functor(broken)) == [
            "composition-carrier"]

    def test_transformation_validation(self):
        g = cyclic_delooping(FINAB, 4)
        cell = identity_cell(identity_functor(g))
        assert validate_transformation(cell) == []
        gs = cyclic_delooping(FINSET, 4)
        shifted = NatTransformation(identity_functor(gs), identity_functor(gs),
                                    morphism_from_function(gs.B0, gs.B1,
                                                           lambda _: 2))
        # a central loop is natural for the identity pair, 2 + x = x + 2
        assert validate_transformation(shifted) == []
        off = NatTransformation(identity_functor(gs), identity_functor(gs),
                                morphism_from_function(gs.B0, gs.B1,
                                                       lambda _: 1))
        assert validate_transformation(off) == []  # still central in Z4

    def test_broken_naturality_named(self):
        # the unit components from the identity to negation on BZ3 are
        # typed, but 0 + (-1) != 1 + 0
        g = delooping(zmod(3))
        negate = InternalFunctor(g, g, identity(g.B0),
                                 BaseMorphism(g.B1, g.B1, g.B1.neg))
        assert validate_functor(negate) == []
        cell = NatTransformation(identity_functor(g), negate, g.e)
        assert validate_transformation(cell) == ["naturality"]

    def test_cell_between_non_functors_raises(self, tmp_path, capsys):
        # F sends p to u but the unit of p to the unit of v, so F is no
        # functor; the components type, but alpha_p then F(1_p) do not
        # compose.
        a = discrete_groupoid(finset_object(["p"]))
        b = indiscrete_groupoid(finset_object(["u", "v"]))
        unit_u, unit_v = b.e.map
        fun = InternalFunctor(a, b, BaseMorphism(a.B0, b.B0, [0]),
                              BaseMorphism(a.B1, b.B1, [unit_v]))
        cell = NatTransformation(fun, fun, BaseMorphism(a.B0, b.B1, [unit_u]))
        assert "functor-source" in validate_functor(fun)
        for value in (cell, from_json(to_json(cell))):
            with pytest.raises(DiagramError):
                validate_transformation(value)
        # the CLI checks the functors under a cell before the cell itself
        path = tmp_path / "cell.json"
        path.write_text(to_json(cell))
        assert main(["validate", str(path)]) == 1
        out, err = capsys.readouterr()
        assert "functor-source" in out.split() and "Traceback" not in err


class TestStockShapes:
    def test_discrete_and_indiscrete_sizes(self):
        x = finset_object(range(3))
        assert discrete_groupoid(x).B1.size == 3
        assert indiscrete_groupoid(x).B1.size == 9

    def test_from_arrow_structure(self):
        g = groupoid_from_arrow(embed_delta())
        assert g.B0.size == 4 and g.B1.size == 8
        assert g.d((1, 1)) == 1 and g.c((1, 1)) == 3
        assert g.mul((1, 1), (3, 1)) == (1, 0)
        assert g.i((1, 1)) == (3, 1)
        assert validate_groupoid(g) == []

    def test_action_groupoid(self):
        x = finset_object(range(4))
        swap = morphism_from_function(x, x, lambda j: j ^ 1)
        g = action_groupoid(swap)
        assert validate_groupoid(g) == []
        assert g.B1.size == 8  # 4 objects x order-2 group
        assert g.c((2, 1)) == 3

    def test_product_groupoid(self):
        g, pg, ph = product_groupoid(cyclic_delooping(FINSET, 2),
                                     discrete_groupoid(finset_object("ab")))
        assert validate_groupoid(g) == []
        assert validate_functor(pg) == [] and validate_functor(ph) == []

    def test_product_groupoid_rejects_groupoids_of_two_instances(self):
        with pytest.raises(DiagramError, match="crosses base instances"):
            product_groupoid(discrete_groupoid(finset_object(["a"])),
                             delooping(zmod(2)))

    def test_zero_functor_rejects_groupoids_of_two_instances(self):
        with pytest.raises(DiagramError, match="crosses base instances"):
            zero_functor(cyclic_delooping(FINPTDSET, 2),
                         cyclic_delooping(FINAB, 2))

    def test_full_subgroupoid(self):
        g = groupoid_from_arrow(embed_delta())
        sub, incl = full_subgroupoid(g, [0, 2])
        assert validate_groupoid(sub) == []
        assert validate_functor(incl) == []
        assert sub.B1.size == 4  # arrows among {0,2}: (0,0),(0,1),(2,0),(2,1)

    @pytest.mark.parametrize("indices", [[True], [0, 5], [1.0], [0, -1],
                                         [False, 2]])
    @pytest.mark.parametrize("make", [finset_object, finptdset_object])
    def test_full_subgroupoid_rejects_ill_typed_indices(self, make, indices):
        g = indiscrete_groupoid(make(["a", "b", "c"]))
        with pytest.raises(DiagramError):
            full_subgroupoid(g, indices)

    def test_full_subgroupoid_keeps_the_basepoint(self):
        g = indiscrete_groupoid(finptdset_object(["a", "b", "c"]))
        with pytest.raises(DiagramError):
            full_subgroupoid(g, [1, 2])

    def test_discrete_embedding_valid(self):
        g = groupoid_from_arrow(embed_delta())
        n = discrete_embedding(g)
        assert validate_functor(n) == []

    def test_zero_functor(self):
        a = cyclic_delooping(FINPTDSET, 3)
        b = cyclic_delooping(FINPTDSET, 2)
        assert validate_functor(zero_functor(a, b)) == []
        with pytest.raises(CapabilityError):
            zero_groupoid(FINSET)


@pytest.mark.parametrize("instance", [FINSET, FINPTDSET, FINAB])
@pytest.mark.parametrize("k", [0, -2])
def test_cyclic_delooping_rejects_orders_below_one(instance, k):
    with pytest.raises(DiagramError, match="order must be >= 1"):
        cyclic_delooping(instance, k)


@pytest.mark.parametrize("instance", [FINSET, FINPTDSET, FINAB])
@pytest.mark.parametrize("k", [2.5, "3", True, False, None])
def test_cyclic_delooping_rejects_orders_that_are_not_ints(instance, k):
    with pytest.raises(DiagramError, match="order must be an int"):
        cyclic_delooping(instance, k)


@pytest.mark.parametrize("value", ["finset", "finab", None])
def test_cyclic_delooping_rejects_a_value_that_is_no_instance(value):
    with pytest.raises(DiagramError, match="is not a base instance"):
        cyclic_delooping(value, 3)


@pytest.mark.parametrize("n", [2.5, "3", True, False, 4.0])
def test_zmod_rejects_orders_that_are_not_ints(n):
    with pytest.raises(DiagramError, match="order must be an int"):
        zmod(n)


class TestPi:
    def test_pi0_counts_components(self):
        g = groupoid_from_arrow(embed_delta())
        obj, proj = pi0(g)
        assert obj.size == 2  # Z4 / im(2): two cosets
        assert proj(0) == proj(2) and proj(1) != proj(0)

    def test_pi0_discrete(self):
        obj, _ = pi0(discrete_groupoid(finset_object(range(5))))
        assert obj.size == 5

    def test_pi1_is_kernel(self):
        delta = morphism_from_function(zmod(4), zmod(2), lambda n: n % 2)
        g = groupoid_from_arrow(delta)
        obj, incl = pi1(g)
        assert obj.size == 2  # ker(mod 2) = {0, 2}
        assert all(g.d(x) == 0 and g.c(x) == 0 for x in obj.carrier)
        assert incl.cod == g.B1

    def test_pi1_needs_pointed(self):
        with pytest.raises(CapabilityError):
            pi1(discrete_groupoid(finset_object([0])))

    def test_induced_maps_of_iso_functor(self):
        g = cyclic_delooping(FINAB, 4)
        fun = functor(g, g, lambda o: o, lambda j: (3 * j) % 4)
        assert set(pi1_induced(fun).map) == {0, 1, 2, 3}
        assert pi0_induced(fun).map == (0,)

    def test_induced_pi0_collapse(self):
        a = discrete_groupoid(zmod(2))
        b = groupoid_from_arrow(identity(zmod(2)))  # connected
        fun = functor(a, b, lambda o: o, lambda o: (o, 0))
        assert pi0_induced(fun).cod.size == 1


def _no_element_reads_or_checks(*args):
    raise AssertionError("a derived value read an element or was checked")


@pytest.mark.parametrize("instance", [FINSET, FINPTDSET, FINAB])
def test_derived_values_are_read_by_index_and_never_rechecked(
        instance, monkeypatch):
    """With element lookup and validation switched off, every derived
    value of 100 generated functors still builds: the classification, the
    induced maps, the square groupoid and, on the pointed instances, the
    kernels and the square's measurements.  Each induced pi0 map equals
    the element-level reading."""
    funs = [gen(instance, seed) for gen in (gen_functor, gen_fibration)
            for seed in range(50)]
    element_level = []
    for fun in funs:
        (_, qa), (_, qb) = pi0(fun.dom), pi0(fun.cod)
        element_level.append(tuple(qb.cod.index_of(qb(fun.F0(r)))
                                   for r in qa.cod.carrier))
    monkeypatch.setattr(BaseObject, "index_of", _no_element_reads_or_checks)
    monkeypatch.setattr(BaseObject, "_validate", _no_element_reads_or_checks)
    monkeypatch.setattr(BaseMorphism, "_validate",
                        _no_element_reads_or_checks)
    for fun, table in zip(funs, element_level):
        classification_report(fun).payload()
        assert pi0_induced(fun).map == table
        arrow_groupoid(fun.cod)
        if instance.pointed:
            pi1_induced(fun)
            strong_h_kernel(fun)
            kernel_groupoid(fun)
            square = normalize(fun)
            classify_arrow_morphism(square)
            strong_h_kernel_arr(square)
            kernel_arr(square)


class TestTwoCells:
    def test_conjugation_transformation(self):
        g = groupoid_from_arrow(embed_delta())
        idf = identity_functor(g)
        # alpha(a) = (a, a mod 2): additive, sends a to a + 2(a mod 2)
        shifted = functor(g, g, lambda a: (a + 2 * (a % 2)) % 4,
                          lambda t: ((t[0] + 2 * (t[0] % 2)) % 4, t[1]))
        cell = transformation(idf, shifted, lambda a: (a, a % 2))
        assert validate_transformation(cell) == []

    def test_constant_family_rejected_in_finab(self):
        g = groupoid_from_arrow(embed_delta())
        idf = identity_functor(g)
        # components must be additive, so (a, 1) is not a legal family
        with pytest.raises(DiagramError):
            transformation(idf, idf, lambda a: (a, 1))

    def test_whisker(self):
        g = cyclic_delooping(FINAB, 2)
        cell = identity_cell(identity_functor(g))
        w = whisker(cell, identity_functor(g))
        assert validate_transformation(w) == []

    def test_functor_composition(self):
        g4 = cyclic_delooping(FINAB, 4)
        g2 = cyclic_delooping(FINAB, 2)
        f = functor(g4, g2, lambda _: 0, lambda j: j % 2)
        assert compose_functors(identity_functor(g4), f) == f
