"""Homotopy-limit constructions: square groupoids, h-pullbacks, h-kernels.

Size oracles are derived by hand before freezing:

* squares of a one-object groupoid on a group G: pick left, bottom, top
  freely, the right side is forced, so |squares| = |G|^3 / |G| * |G| = |G|^3
  over a single object once the three free sides are counted -- concretely
  8 for Z2 and 27 for Z3.
* squares with an identity top over the same groupoid: left and bottom
  are free and force the right side, so |G|^2 of them.
* strict pullback of Id along Id on a one-object groupoid: one object pair
  and |G| arrow pairs (x, x).
* h-pullback of the doubling functor Z2 -> Z4 against Id: level 0 has one
  object pair per middle arrow (4), level 1 fixes the top and the image of
  the bottom and leaves the left side free (4 * 2 * 4 = 32).
"""

import pytest

from groupoid_lab.base import (
    FINAB,
    FINPTDSET,
    FINSET,
    BaseMorphism,
    CapabilityError,
    DiagramError,
    GroupoidLabError,
    NoMediatorError,
    classify_morphism,
    compose,
    direct_sum,
    finptdset_object,
    finset_object,
    identity,
    morphism_from_function,
    zmod,
)
from groupoid_lab.groupoid import (
    InternalFunctor,
    InternalGroupoid,
    NatTransformation,
    action_groupoid,
    compose_functors,
    cyclic_delooping,
    delooping,
    discrete_embedding,
    discrete_groupoid,
    full_subgroupoid,
    functor,
    groupoid_from_arrow,
    identity_cell,
    identity_functor,
    indiscrete_groupoid,
    validate_functor,
    validate_groupoid,
    validate_transformation,
    whisker,
    whisker_left,
    zero_functor,
    zero_groupoid,
)
from groupoid_lab import base
from groupoid_lab import groupoid as groupoid_module
from groupoid_lab import holim
from groupoid_lab.catalog import _groupoid_catalog
from groupoid_lab.classify import classification_report, classify_fibration
from groupoid_lab.generators import gen_fibration, gen_functor
from groupoid_lab.holim import (
    arrow_groupoid,
    comparison_J,
    comparison_J_data,
    comparison_T,
    comparison_T_data,
    h_kernel_into_pullback,
    is_levelwise_pullback_square,
    kernel_groupoid,
    mediate_h_pullback,
    mediate_h_pullback_cell,
    mediate_pullback,
    mediate_pullback_cell,
    mediate_squares,
    pullback_groupoid,
    strong_h_kernel,
    strong_h_pullback,
)
from groupoid_lab.serialize import from_json, to_json
from oracles import count_factorizations


def embed_delta():
    return morphism_from_function(zmod(2), zmod(4), lambda n: 2 * n)


class TestArrowGroupoid:
    def test_delooping_cube_law(self):
        for k in (2, 3):
            data = arrow_groupoid(cyclic_delooping(FINAB, k))
            assert data.groupoid.B1.size == k ** 3
            assert validate_groupoid(data.groupoid) == []

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_identity_tops_square_law(self, n):
        b = delooping(zmod(n))
        assert arrow_groupoid(b).groupoid.B1.size == n ** 3
        data = arrow_groupoid(b, identity_tops=True)
        assert data.groupoid.B1.size == n ** 2
        assert validate_groupoid(data.groupoid) == []
        assert validate_transformation(data.cell) == []

    @pytest.mark.parametrize("instance, seed",
                             [(FINAB, 2), (FINPTDSET, 1), (FINSET, 4)])
    def test_identity_tops_keep_the_squares_and_their_keys(self, instance,
                                                           seed):
        b = gen_functor(instance, seed).cod
        full, few = arrow_groupoid(b), arrow_groupoid(b, identity_tops=True)
        units = set(b.e.map)
        kept = [k for k, t in enumerate(full.eval_dom.F1.map) if t in units]
        assert list(few.pairs.lookup) == [list(full.pairs.lookup)[k]
                                          for k in kept]
        assert few.groupoid.B1.carrier == tuple(
            full.groupoid.B1.carrier[k] for k in kept)

    def test_structure_is_valid(self):
        data = arrow_groupoid(cyclic_delooping(FINAB, 4))
        assert validate_functor(data.eval_dom) == []
        assert validate_functor(data.eval_cod) == []
        assert validate_transformation(data.cell) == []

    def test_cell_component_is_the_object_itself(self):
        b = cyclic_delooping(FINSET, 3)
        data = arrow_groupoid(b)
        assert data.cell.alpha == identity(b.B1)

    def test_discrete_base_gives_discrete_squares(self):
        b = discrete_groupoid(finset_object(["p", "q", "r"]))
        data = arrow_groupoid(b)
        assert data.groupoid.B1.size == 3
        assert data.eval_dom == data.eval_cod

    def test_square_orientation(self):
        # an arrow of squares runs from its left side to its right side
        b = cyclic_delooping(FINAB, 2)
        data = arrow_groupoid(b)
        for s in data.groupoid.B1.carrier:
            assert data.groupoid.d(s) == s[0][0]
            assert data.groupoid.c(s) == s[1][1]
            assert data.eval_dom.F1(s) == s[1][0]
            assert data.eval_cod.F1(s) == s[0][1]


class TestBuiltFromIndices:
    """Derived structure maps are limit legs, their composites, mediators
    or index tables: building and validating them reads no element
    carrier."""

    @pytest.mark.parametrize("instance, seed",
                             [(FINAB, 2), (FINPTDSET, 1), (FINSET, 4)])
    def test_a_decoded_base_gives_the_same_squares(self, instance, seed):
        b = gen_functor(instance, seed).cod
        decoded = from_json(to_json(b))
        # the decoder gives m the groupoid's own pairs as its domain; a
        # groupoid given its table by hand may hold an equal, separate one
        assert decoded.m.dom is decoded.composition_pairs().apex
        m = decoded.m
        given = InternalGroupoid(
            decoded.B0, decoded.B1, decoded.d, decoded.c, decoded.e,
            BaseMorphism(from_json(to_json(m.dom)), m.cod, m.map), decoded.i)
        assert given.m.dom is not given.composition_pairs().apex

        def tables(data):
            g = data.groupoid
            return [g.d.map, g.c.map, g.e.map, g.i.map, data.eval_dom.F1.map,
                    data.eval_cod.F1.map, g.m.map]

        squares = arrow_groupoid(given)
        # the separate pairs of a given table compare by equality
        assert tables(squares) == tables(arrow_groupoid(b))
        assert tables(arrow_groupoid(decoded)) == tables(arrow_groupoid(b))

    def test_building_reads_no_element_carrier(self, monkeypatch):
        x = finset_object(["p", "q", "r"])
        group = direct_sum(zmod(2), zmod(4))
        base_groupoid = gen_functor(FINAB, 2).cod
        pairs = indiscrete_groupoid(x)
        perm = morphism_from_function(x, x, {"p": "q", "q": "p", "r": "r"}.get)
        builds = []
        elements = base._tuple_elements
        monkeypatch.setattr(base, "_tuple_elements", lambda *args: (
            builds.append(args), elements(*args))[1])
        built = [discrete_groupoid(group), indiscrete_groupoid(x),
                 cyclic_delooping(FINSET, 3), cyclic_delooping(FINPTDSET, 3),
                 delooping(group), groupoid_from_arrow(embed_delta()),
                 action_groupoid(perm), full_subgroupoid(pairs, [0, 2])[0],
                 arrow_groupoid(base_groupoid).groupoid,
                 arrow_groupoid(pairs).groupoid]
        for g in built:
            assert validate_groupoid(g) == []
        assert builds == []
        # the probe sees a carrier that is read
        built[-1].composition_pairs().apex.carrier
        assert builds

    def test_validating_a_cell_reads_no_element_carrier(self, monkeypatch):
        group = delooping(direct_sum(zmod(2), zmod(4)))
        squares = arrow_groupoid(gen_functor(FINAB, 2).cod).groupoid
        pairs = indiscrete_groupoid(finset_object(["p", "q", "r"]))
        cells = [identity_cell(identity_functor(g))
                 for g in (group, squares, pairs)]
        # from the identity to the constant functor at p: the arrows o -> p
        arrow = {(s, t): k for k, (s, t) in
                 enumerate(zip(pairs.d.map, pairs.c.map))}
        constant = InternalFunctor(
            pairs, pairs, BaseMorphism(pairs.B0, pairs.B0, [0] * 3),
            BaseMorphism(pairs.B1, pairs.B1, [arrow[0, 0]] * 9))
        cells.append(NatTransformation(
            identity_functor(pairs), constant,
            BaseMorphism(pairs.B0, pairs.B1, [arrow[o, 0] for o in range(3)])))
        builds = []
        elements = base._tuple_elements
        monkeypatch.setattr(base, "_tuple_elements", lambda *args: (
            builds.append(args), elements(*args))[1])
        for cell in cells:
            assert validate_transformation(cell) == []
        assert builds == []


class TestMediateSquares:
    def test_tautological_cell_classifies_to_identity(self):
        data = arrow_groupoid(cyclic_delooping(FINAB, 2))
        v = mediate_squares(data, data.cell)
        assert v == identity_functor(data.groupoid)

    def test_identity_cell_lands_on_units(self):
        b = cyclic_delooping(FINAB, 4)
        data = arrow_groupoid(b)
        v = mediate_squares(data, identity_cell(identity_functor(b)))
        assert v.F0 == b.e
        assert validate_functor(v) == []

    def test_classified_functor_recovers_the_cell(self):
        b = cyclic_delooping(FINSET, 4)
        data = arrow_groupoid(b)
        idf = identity_functor(b)
        # a central loop gives a cell from Id to Id
        mu = NatTransformation(idf, idf,
                               morphism_from_function(b.B0, b.B1, lambda _: 1))
        assert validate_transformation(mu) == []
        v = mediate_squares(data, mu)
        assert validate_functor(v) == []
        assert compose_functors(v, data.eval_dom) == idf
        assert compose_functors(v, data.eval_cod) == idf
        assert whisker_left(v, data.cell) == mu


class TestStrictPullback:
    def test_identity_cospan(self):
        b = cyclic_delooping(FINAB, 2)
        pb = pullback_groupoid(identity_functor(b), identity_functor(b))
        assert pb.groupoid.B0.size == 1
        assert pb.groupoid.B1.size == 2
        assert validate_groupoid(pb.groupoid) == []
        assert validate_functor(pb.to_first) == []
        assert validate_functor(pb.to_second) == []

    def test_mediate_recovers_the_universal_cone(self):
        b = groupoid_from_arrow(embed_delta())
        pb = pullback_groupoid(identity_functor(b), identity_functor(b))
        t = mediate_pullback(pb, pb.to_first, pb.to_second)
        assert t == identity_functor(pb.groupoid)

    def test_cell_mediator_pairs_components(self):
        b = cyclic_delooping(FINAB, 4)
        pb = pullback_groupoid(identity_functor(b), identity_functor(b))
        idp = identity_functor(pb.groupoid)
        mu = mediate_pullback_cell(pb, idp, idp,
                                   identity_cell(pb.to_first).alpha,
                                   identity_cell(pb.to_second).alpha)
        assert mu.alpha == pb.groupoid.e

    def test_projection_square_is_a_pullback(self):
        a = cyclic_delooping(FINAB, 2)
        b = cyclic_delooping(FINAB, 4)
        f = functor(a, b, lambda o: 0, lambda x: 2 * x % 4)
        pb = pullback_groupoid(f, identity_functor(b))
        assert is_levelwise_pullback_square(pb.to_first, pb.to_second,
                                            f, identity_functor(b))

    def test_non_pullback_square_is_rejected(self):
        # collapsing all loops, the self-pullback of f is strictly larger
        a = cyclic_delooping(FINAB, 2)
        b = cyclic_delooping(FINAB, 1)
        f = functor(a, b, lambda o: 0, lambda x: 0)
        ida = identity_functor(a)
        assert not is_levelwise_pullback_square(ida, ida, f, f)


class TestStrongHPullback:
    def test_identity_cospan_gives_the_square_count(self):
        b = cyclic_delooping(FINAB, 2)
        hp = strong_h_pullback(identity_functor(b), identity_functor(b))
        assert hp.groupoid.B0.size == 2
        assert hp.groupoid.B1.size == 8
        assert validate_groupoid(hp.groupoid) == []
        assert validate_transformation(hp.cell) == []

    def test_doubling_against_identity_sizes(self):
        a = cyclic_delooping(FINAB, 2)
        b = cyclic_delooping(FINAB, 4)
        f = functor(a, b, lambda o: 0, lambda x: 2 * x % 4)
        hp = strong_h_pullback(f, identity_functor(b))
        assert hp.groupoid.B0.size == 4
        assert hp.groupoid.B1.size == 32
        assert validate_groupoid(hp.groupoid) == []

    def test_finset_cospan(self):
        perm = morphism_from_function(finset_object([0, 1, 2]),
                                      finset_object([0, 1, 2]),
                                      lambda x: (x + 1) % 3)
        ag = action_groupoid(perm)
        ig = indiscrete_groupoid(finset_object(["p", "q"]))
        h = functor(ag, ig,
                    lambda o: "p" if o == 0 else "q",
                    lambda t: ("p" if t[0] == 0 else "q",
                               "p" if (t[0] + t[1]) % 3 == 0 else "q"))
        hp = strong_h_pullback(h, identity_functor(ig))
        assert hp.groupoid.B0.size == 6
        assert hp.groupoid.B1.size == 36
        assert validate_groupoid(hp.groupoid) == []

    def test_universal_cone_mediates_to_identity(self):
        b = groupoid_from_arrow(embed_delta())
        hp = strong_h_pullback(identity_functor(b), identity_functor(b))
        t = mediate_h_pullback(hp, hp.to_f_dom, hp.to_g_dom, hp.cell.alpha)
        assert t == identity_functor(hp.groupoid)

    def test_mediator_satisfies_the_cone_laws(self):
        a = cyclic_delooping(FINAB, 2)
        b = cyclic_delooping(FINAB, 4)
        f = functor(a, b, lambda o: 0, lambda x: 2 * x % 4)
        td = comparison_T_data(f)
        t = td.functor
        assert compose_functors(t, td.relaxed.to_f_dom) == td.strict.to_second
        assert compose_functors(t, td.relaxed.to_g_dom) == td.strict.to_first
        assert compose(t.F0, td.relaxed.cell.alpha) == (
            compose(td.strict.object_limit.legs["p1"], b.e))

    def test_mediator_is_unique_at_desk_scale(self):
        b = cyclic_delooping(FINSET, 3)
        hp = strong_h_pullback(identity_functor(b), identity_functor(b))
        cone0 = {"g_obj": hp.to_g_dom.F0, "arrows": hp.cell.alpha,
                 "f_obj": hp.to_f_dom.F0}
        assert count_factorizations(hp.object_limit, cone0) == 1

    def test_t_and_j_share_the_codomain_squares(self, monkeypatch):
        fun = gen_functor(FINAB, 2)
        builds = []
        monkeypatch.setattr(holim, "arrow_groupoid", lambda b, *rest: (
            builds.append(b), arrow_groupoid(b, *rest))[1])
        squares = comparison_T_data(fun).relaxed.squares
        assert comparison_J_data(fun).relaxed.squares is squares
        assert builds == [fun.cod]
        # the public constructor still builds afresh
        assert arrow_groupoid(fun.cod) is not squares

    def test_a_leg_that_moves_arrows_gets_every_square(self):
        fun = gen_functor(FINAB, 2)
        few = comparison_J_data(fun).relaxed.squares
        full = strong_h_pullback(fun, identity_functor(fun.cod)).squares
        assert few.identity_tops and not full.identity_tops
        assert full.groupoid.B1.size == (
            arrow_groupoid(fun.cod).groupoid.B1.size)
        # a later leg that needs fewer squares reads the full ones
        assert comparison_T_data(fun).relaxed.squares is full

    def test_t_and_j_compose_four_functors(self, monkeypatch):
        # two for the structural cell, two for the cone cell's squares
        fun = gen_functor(FINAB, 2)
        calls = []
        monkeypatch.setattr(holim, "compose_functors", lambda f, g: (
            calls.append(f), compose_functors(f, g))[1])
        comparison_T_data(fun)
        assert len(calls) == 4
        calls.clear()
        comparison_J_data(fun)
        assert len(calls) == 4

    def test_mistyped_cone_cell_is_rejected(self):
        b = cyclic_delooping(FINAB, 2)
        hp = strong_h_pullback(identity_functor(b), identity_functor(b))
        idb = identity_functor(b)
        bad = identity_cell(compose_functors(hp.to_f_dom, idb))
        with pytest.raises(NoMediatorError):
            mediate_h_pullback(hp, hp.to_f_dom, hp.to_g_dom, bad.alpha)


class TestNonGroupoidInput:
    """The constructions assume groupoids; on a typed non-groupoid they
    raise a library error, never a bare one."""

    @pytest.mark.parametrize("instance, seed", [(FINSET, 1), (FINAB, 3)],
                             ids=["finset-1", "finab-3"])
    def test_a_domain_without_inverses(self, instance, seed):
        fun = gen_functor(instance, seed)
        g = fun.dom
        dom = InternalGroupoid(g.B0, g.B1, g.d, g.c, g.e, g.m, identity(g.B1))
        bad = InternalFunctor(dom, fun.cod, fun.F0, fun.F1)
        with pytest.raises(GroupoidLabError, match="structure map 'i'"):
            classification_report(bad)
        with pytest.raises(GroupoidLabError, match="structure map 'i'"):
            comparison_T(bad)
        # the fibration label reads no limit of groupoids, so it answers
        assert classify_fibration(bad) == "discrete_fibration"


class TestTwoCellMediator:
    def test_identity_cells_give_the_identity_cell(self):
        b = cyclic_delooping(FINAB, 2)
        hp = strong_h_pullback(identity_functor(b), identity_functor(b))
        idp = identity_functor(hp.groupoid)
        mu = mediate_h_pullback_cell(hp, idp, idp,
                                     identity_cell(hp.to_g_dom).alpha,
                                     identity_cell(hp.to_f_dom).alpha)
        assert mu.alpha == hp.groupoid.e

    def test_central_cells_paste_and_whisker_back(self):
        b = cyclic_delooping(FINSET, 4)
        hp = strong_h_pullback(identity_functor(b), identity_functor(b))
        idp = identity_functor(hp.groupoid)
        shift = morphism_from_function(hp.groupoid.B0, b.B1, lambda _: 2)
        g_cell = NatTransformation(hp.to_g_dom, hp.to_g_dom, shift)
        f_cell = NatTransformation(hp.to_f_dom, hp.to_f_dom, shift)
        assert validate_transformation(g_cell) == []
        mu = mediate_h_pullback_cell(hp, idp, idp, g_cell.alpha, f_cell.alpha)
        assert validate_transformation(mu) == []
        assert whisker(mu, hp.to_g_dom) == g_cell
        assert whisker(mu, hp.to_f_dom) == f_cell

    def test_incompatible_cells_are_rejected(self):
        b = cyclic_delooping(FINSET, 4)
        hp = strong_h_pullback(identity_functor(b), identity_functor(b))
        idp = identity_functor(hp.groupoid)
        shift = morphism_from_function(hp.groupoid.B0, b.B1, lambda _: 2)
        g_cell = NatTransformation(hp.to_g_dom, hp.to_g_dom, shift)
        f_cell = identity_cell(hp.to_f_dom)
        with pytest.raises(NoMediatorError):
            mediate_h_pullback_cell(hp, idp, idp, g_cell.alpha, f_cell.alpha)


class TestKernelGroupoid:
    def test_kernel_of_identity_is_trivial(self):
        g = groupoid_from_arrow(embed_delta())
        kg, incl = kernel_groupoid(identity_functor(g))
        assert kg.B0.size == 1
        assert kg.B1.size == 1
        assert validate_functor(incl) == []

    def test_kernel_of_zero_is_everything(self):
        g = groupoid_from_arrow(embed_delta())
        kg, incl = kernel_groupoid(zero_functor(g, zero_groupoid(FINAB)))
        assert classify_morphism(incl.F0).iso
        assert classify_morphism(incl.F1).iso
        assert validate_groupoid(kg) == []

    def test_kernel_needs_a_pointed_instance(self):
        g = discrete_groupoid(finset_object([0, 1]))
        with pytest.raises(CapabilityError):
            kernel_groupoid(identity_functor(g))


class TestStrongHKernel:
    def test_h_kernel_of_identity_enumerates_graph_pairs(self):
        # reduced carrier: pairs (a0, loop-from-zero n) with a0 = delta(n)
        g = groupoid_from_arrow(embed_delta())
        hk = strong_h_kernel(identity_functor(g))
        assert hk.groupoid.B0.size == 2
        assert hk.groupoid.B1.size == 4
        reduced = [(t[2], t[1][1]) for t in hk.groupoid.B0.carrier]
        assert reduced == [(0, 0), (2, 1)]
        assert validate_transformation(hk.cell) == []

    def test_h_kernel_of_zero_projects_isomorphically(self):
        g = groupoid_from_arrow(embed_delta())
        hk = strong_h_kernel(zero_functor(g, zero_groupoid(FINAB)))
        assert classify_morphism(hk.to_f_dom.F0).iso
        assert classify_morphism(hk.to_f_dom.F1).iso

    def test_pointed_sets_instance(self):
        p = discrete_groupoid(finptdset_object(["*", "x", "y"]))
        hk = strong_h_kernel(zero_functor(p, p))
        assert hk.groupoid.B0.size == 3
        assert hk.groupoid.B1.size == 3

    def test_capability_guard(self):
        g = discrete_groupoid(finset_object([0, 1]))
        with pytest.raises(CapabilityError):
            strong_h_kernel(identity_functor(g))
        with pytest.raises(CapabilityError):
            comparison_J_data(identity_functor(g))


class TestComparisons:
    def test_comparison_T_laws(self):
        g = groupoid_from_arrow(embed_delta())
        td = comparison_T_data(identity_functor(g))
        assert validate_functor(td.functor) == []
        assert compose_functors(td.functor, td.relaxed.to_f_dom) == td.strict.to_second
        assert compose_functors(td.functor, td.relaxed.to_g_dom) == td.strict.to_first

    def test_comparison_T_of_the_object_inclusion(self):
        b = cyclic_delooping(FINAB, 2)
        n = discrete_embedding(b)
        td = comparison_T_data(n)
        # strict pullback is trivial, the h-pullback sees the loops
        assert (td.strict.groupoid.B0.size, td.strict.groupoid.B1.size) == (1, 1)
        assert (td.relaxed.groupoid.B0.size, td.relaxed.groupoid.B1.size) == (2, 2)
        assert validate_functor(td.functor) == []

    def test_comparison_J_restricts_the_inclusion(self):
        g = groupoid_from_arrow(embed_delta())
        jd = comparison_J_data(identity_functor(g))
        assert validate_functor(jd.functor) == []
        assert compose_functors(jd.functor, jd.relaxed.to_f_dom) == jd.strict.to_second

    def test_comparison_J_of_zero_is_a_level_bijection(self):
        g = groupoid_from_arrow(embed_delta())
        j = comparison_J(zero_functor(g, zero_groupoid(FINAB)))
        assert classify_morphism(j.F0).iso
        assert classify_morphism(j.F1).iso
        assert validate_functor(j) == []

    def test_wrappers_return_the_functor(self):
        g = groupoid_from_arrow(embed_delta())
        assert comparison_T(identity_functor(g)) == comparison_T_data(
            identity_functor(g)).functor
        assert comparison_J(identity_functor(g)) == comparison_J_data(
            identity_functor(g)).functor


_COMPARISON_SEEDS = [(instance, seed) for instance in (FINPTDSET, FINAB)
                     for seed in (0, 1, 2, 3)]


@pytest.mark.parametrize("build", [comparison_T_data, comparison_J_data],
                         ids=["T", "J"])
@pytest.mark.parametrize("instance, seed", _COMPARISON_SEEDS)
def test_both_comparisons_mediate_the_strict_square(build, instance, seed):
    """T and J are one comparison along the leg g: both projections of the
    strict pullback are recovered, and the cell is the identity at each
    common image."""
    data = build(gen_functor(instance, seed))
    strict, relaxed, t = data.strict, data.relaxed, data.functor
    g = relaxed.g
    assert compose_functors(t, relaxed.to_f_dom) == strict.to_second
    assert compose_functors(t, relaxed.to_g_dom) == strict.to_first
    assert compose(t.F0, relaxed.cell.alpha) == compose(
        strict.object_limit.legs["p1"], g.F0, g.cod.e)


@pytest.mark.parametrize("instance, seed", _COMPARISON_SEEDS)
def test_the_kernel_is_the_strict_pullback_along_zero(instance, seed):
    fun = gen_functor(instance, seed)
    kg, incl = kernel_groupoid(fun)
    strict = comparison_J_data(fun).strict
    med = mediate_pullback(strict, zero_functor(kg, strict.to_first.cod), incl)
    assert classify_morphism(med.F0).iso and classify_morphism(med.F1).iso
    assert compose_functors(med, strict.to_second) == incl


def _hp_tables(hp):
    g = hp.groupoid
    return [g.B0.carrier, g.B1.carrier, g.d.map, g.c.map, g.e.map, g.i.map,
            g.m.map]


def _assert_identity_tops_suffice(fun):
    """T's and J's h-pullbacks come out the same from the squares with an
    identity top as from all squares."""
    b = fun.cod
    legs = [discrete_embedding(b)]
    if b.instance.pointed:
        legs.append(zero_functor(zero_groupoid(b.instance), b))
    few = [strong_h_pullback(fun, g) for g in legs]
    assert all(hp.squares is few[0].squares for hp in few)
    assert few[0].squares.identity_tops
    # the identity leg needs every square, and the legs after it reuse them
    strong_h_pullback(fun, identity_functor(b))
    full = [strong_h_pullback(fun, g) for g in legs]
    assert full[0].squares.groupoid.B1.size == (
        arrow_groupoid(b).groupoid.B1.size)
    assert [_hp_tables(hp) for hp in few] == [_hp_tables(hp) for hp in full]


@pytest.mark.parametrize("gen", [gen_functor, gen_fibration],
                         ids=["functor", "fibration"])
@pytest.mark.parametrize("instance", [FINSET, FINPTDSET, FINAB],
                         ids=["finset", "finptdset", "finab"])
def test_t_and_j_read_only_the_squares_with_an_identity_top(gen, instance):
    for seed in range(10):
        _assert_identity_tops_suffice(gen(instance, seed))


def test_catalogue_h_pullbacks_read_only_the_squares_with_an_identity_top():
    for b in _groupoid_catalog(8):
        _assert_identity_tops_suffice(identity_functor(b))


def test_both_comparisons_are_exported_alike():
    from groupoid_lab import comparison_J, comparison_T_data
    assert comparison_J is holim.comparison_J
    assert comparison_T_data is holim.comparison_T_data


class TestHKernelIntoPullback:
    def test_mediator_laws(self):
        g = groupoid_from_arrow(embed_delta())
        idg = identity_functor(g)
        hp = strong_h_pullback(idg, idg)
        hk = strong_h_kernel(hp.f)
        ell = h_kernel_into_pullback(hp, hk)
        assert validate_functor(ell) == []
        assert compose_functors(ell, hp.to_f_dom) == hk.to_f_dom
        assert compose_functors(ell, hp.to_g_dom) == zero_functor(hk.groupoid, g)

    def test_image_is_the_kernel_of_the_other_projection(self):
        g = groupoid_from_arrow(embed_delta())
        idg = identity_functor(g)
        hp = strong_h_pullback(idg, idg)
        hk = strong_h_kernel(hp.f)
        ell = h_kernel_into_pullback(hp, hk)
        kg, incl = kernel_groupoid(hp.to_g_dom)
        for mine, theirs in ((ell.F0, incl.F0), (ell.F1, incl.F1)):
            assert len(set(mine.map)) == len(mine.map)
            assert set(mine.map) == set(theirs.map)


class TestComposition:
    """``mul`` keeps rejecting what does not compose, before and after the
    table of m is filled from the stored composition."""

    def built(self):
        yield indiscrete_groupoid(finset_object(["p", "q"]))
        yield groupoid_from_arrow(embed_delta())
        loop = identity_functor(cyclic_delooping(FINPTDSET, 2))
        yield strong_h_pullback(loop, loop).groupoid

    def assert_rejects(self, g):
        o0, o1 = g.B0.carrier[:2]
        # units at two different objects: c(x) != d(y)
        with pytest.raises(DiagramError):
            g.mul(g.e(o0), g.e(o1))
        with pytest.raises(DiagramError):
            g.mul(("not", "an", "arrow"), g.e(o0))
        with pytest.raises(DiagramError):
            g.mul(g.e(o0), ("not", "an", "arrow"))

    def test_mul_rejects_pairs_that_do_not_compose(self):
        for g in self.built():
            assert g.B0.size >= 2
            self.assert_rejects(g)
            pairs = g.m.dom.carrier
            assert [g.mul(x, y) for x, y in pairs] == [g.m(p) for p in pairs]
            self.assert_rejects(g)
            assert validate_groupoid(g) == []


def test_the_report_of_a_path_factorization_inclusion_fits(monkeypatch):
    """j: A -> P_F for F = gen_functor(FINAB, 3), a -> (F a, id, a): P_F has
    12 objects and 1 728 arrows, so 35 831 808 squares in all, which ran
    out of memory under a 2.5 GB cap.  T and J read 248 832 of them."""
    fun = gen_functor(FINAB, 3)
    a, b = fun.dom, fun.cod
    hp = strong_h_pullback(fun, identity_functor(b))
    j = mediate_h_pullback(hp, identity_functor(a), fun,
                           compose(fun.F0, b.e))
    builds = []
    monkeypatch.setattr(holim, "arrow_groupoid", lambda g, *rest: (
        builds.append(g), arrow_groupoid(g, *rest))[1])
    report = classification_report(j)
    flags = report.flags
    assert flags["equivalence"] and not flags["fibration"]
    assert report.star == "split_epi_star_fibration"
    assert builds == [hp.groupoid]
    assert j._squares.groupoid.B1.size == 248_832


class TestCompositionOnDemand:
    def test_report_does_not_fill_square_tables(self, monkeypatch):
        calls = []
        assemble = groupoid_module._assemble

        def counting(b0, b1, d, c, e, i, mul):
            def counted(x, y):
                calls.append(None)
                return mul(x, y)
            return assemble(b0, b1, d, c, e, i, counted)

        monkeypatch.setattr(groupoid_module, "_assemble", counting)
        monkeypatch.setattr(holim, "_assemble", counting)
        small = delooping(zmod(2))
        assert len(small.m.map) == 4 and len(calls) == 4
        b = delooping(zmod(8))
        fun = functor(small, b, lambda o: o, lambda n: 4 * n)
        calls.clear()
        report = classification_report(fun)
        assert not report.flags["fibration"]
        assert len(calls) < 8 ** 3
        squares = arrow_groupoid(b).groupoid
        before = len(calls)
        assert squares == squares
        assert len(calls) == before
