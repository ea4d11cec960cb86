"""Arrow-category structure: squares, diagonals, kernels, normalization.

The two FinPtdSet specimens are frozen from hand enumeration:

* the fold square (identity over {*,x,y}, fold onto {*,z}) has a 5-element
  h-kernel pullback of which the factorization and the kernel comparison
  jointly cover only 3 points, so it is a fibration but not a star
  fibration;
* the restricted square with the inclusion {*,x} -> {*,x,y} on the left has
  a 3-element pullback, same flag pattern.

FinAb squares with a surjective top component are always star fibrations;
the mod-2 square between identities over Z4 and Z2 is the positive
specimen.
"""

import hashlib
import random
from itertools import islice

import pytest

from groupoid_lab.base import (
    FINAB,
    FINPTDSET,
    CapabilityError,
    DiagramError,
    NoMediatorError,
    classify_morphism,
    compose,
    finptdset_object,
    finset_object,
    generated_subgroup_indices,
    identity,
    kernel,
    morphism_from_function,
    pullback,
    zero_morphism,
    zmod,
)
from groupoid_lab.groupoid import (
    NatTransformation,
    cyclic_delooping,
    discrete_groupoid,
    functor,
    groupoid_from_arrow,
    identity_cell,
    identity_functor,
    indiscrete_groupoid,
    whisker,
    whisker_left,
    zero_functor,
)
from groupoid_lab.catalog import _fibration_squares
from groupoid_lab.generators import _random_arrow_morphism
from groupoid_lab.holim import kernel_groupoid, strong_h_kernel
from groupoid_lab.arrow import (
    ArrowMorphism,
    ArrowObject,
    Diagonal,
    _fibre_flags,
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
    normalize_obj,
    partial_zero_arr,
    strong_h_kernel_arr,
    strong_lift,
)
from oracles import count_factorizations


def doubling_arrow():
    return morphism_from_function(zmod(2), zmod(4), lambda n: 2 * n)


def zero_square(dom, cod):
    return ArrowMorphism(dom, cod, zero_morphism(dom.top, cod.top),
                         zero_morphism(dom.bottom, cod.bottom))


def graph_square():
    # the doubling arrow Z2 -> Z4 mapping into the identity on Z4
    delta = doubling_arrow()
    dom = ArrowObject(delta)
    cod = ArrowObject(identity(zmod(4)))
    return ArrowMorphism(dom, cod, delta, identity(zmod(4)))


def mod2_square():
    f = morphism_from_function(zmod(4), zmod(2), lambda n: n % 2)
    return ArrowMorphism(ArrowObject(identity(zmod(4))),
                         ArrowObject(identity(zmod(2))), f, f)


def fold_square():
    a0 = finptdset_object(["*", "x", "y"])
    b0 = finptdset_object(["*", "z"])
    fold = morphism_from_function(a0, b0,
                                  lambda u: "*" if u == "*" else "z")
    return ArrowMorphism(ArrowObject(identity(a0)), ArrowObject(fold),
                         identity(a0), fold)


def restricted_square():
    at = finptdset_object(["*", "x"])
    a0 = finptdset_object(["*", "x", "y"])
    b0 = finptdset_object(["*", "z"])
    short_fold = morphism_from_function(at, b0,
                                        lambda u: "*" if u == "*" else "z")
    fold = morphism_from_function(a0, b0,
                                  lambda u: "*" if u == "*" else "z")
    dom = ArrowObject(morphism_from_function(at, a0, lambda u: u))
    return ArrowMorphism(dom, ArrowObject(short_fold), identity(at), fold)


def mod2_collapse():
    b2 = cyclic_delooping(FINAB, 2)
    b4 = cyclic_delooping(FINAB, 4)
    return functor(b4, b2, lambda o: 0, lambda x: x % 2)


def pointed_null_cell():
    # a genuine null-homotopy: discrete pointed domain, indiscrete codomain
    base = finptdset_object(["*", "u"])
    dom = discrete_groupoid(finptdset_object(["*", "x"]))
    cod = indiscrete_groupoid(base)
    fun = functor(dom, cod, lambda o: "*" if o == "*" else "u",
                  lambda o: ("*" if o == "*" else "u",) * 2)
    cell = NatTransformation(
        zero_functor(dom, cod), fun,
        morphism_from_function(dom.B0, cod.B1,
                               lambda o: ("*", "*" if o == "*" else "u")))
    return fun, cell


class TestSquaresAndDiagonals:
    def test_square_law_is_enforced(self):
        delta = doubling_arrow()
        with pytest.raises(DiagramError):
            ArrowMorphism(ArrowObject(delta), ArrowObject(identity(zmod(4))),
                          zero_morphism(zmod(2), zmod(4)), identity(zmod(4)))

    def test_composition_is_levelwise(self):
        m = graph_square()
        assert compose_arr(m, identity_arr(m.cod)) == m
        with pytest.raises(DiagramError):
            compose_arr(m, m)

    def test_diagonal_laws_are_enforced(self):
        m = graph_square()
        good = Diagonal(m, identity(zmod(4)))
        assert good.d == identity(zmod(4))
        with pytest.raises(DiagramError):
            Diagonal(m, zero_morphism(zmod(4), zmod(4)))

    def test_each_diagonal_triangle_is_checked(self):
        z1, z2 = zmod(1), zmod(2)
        # the bottom arrow forgets everything, so only the top triangle binds
        m = ArrowMorphism(ArrowObject(identity(z2)),
                          ArrowObject(zero_morphism(z2, z1)),
                          identity(z2), zero_morphism(z2, z1))
        assert Diagonal(m, identity(z2)).d == identity(z2)
        with pytest.raises(DiagramError, match="top triangle"):
            Diagonal(m, zero_morphism(z2, z2))
        # the top arrow starts at zero, so only the bottom triangle binds
        m = ArrowMorphism(ArrowObject(zero_morphism(z1, z2)),
                          ArrowObject(identity(z2)),
                          zero_morphism(z1, z2), identity(z2))
        assert Diagonal(m, identity(z2)).d == identity(z2)
        with pytest.raises(DiagramError, match="bottom triangle"):
            Diagonal(m, zero_morphism(z2, z2))
        with pytest.raises(DiagramError, match="diagonal is mistyped"):
            Diagonal(m, identity(zmod(4)))

    def test_mistyped_square_components_are_rejected(self):
        obj = ArrowObject(identity(zmod(2)))
        with pytest.raises(DiagramError, match="top component is mistyped"):
            ArrowMorphism(obj, obj, identity(zmod(4)), identity(zmod(2)))
        with pytest.raises(DiagramError, match="bottom component is mistyped"):
            ArrowMorphism(obj, obj, identity(zmod(2)), identity(zmod(4)))
        with pytest.raises(DiagramError, match="square does not commute"):
            ArrowMorphism(obj, obj, identity(zmod(2)),
                          zero_morphism(zmod(2), zmod(2)))

    def test_equal_objects_need_not_be_identical(self):
        def square_over(bottom, top):
            # the graph square, with Z4 given once per end
            z2 = zmod(2)
            delta = morphism_from_function(z2, bottom, lambda n: 2 * n)
            return ArrowMorphism(
                ArrowObject(delta), ArrowObject(identity(top)),
                morphism_from_function(z2, top, lambda n: 2 * n),
                morphism_from_function(bottom, top, lambda n: n))

        z4 = zmod(4)
        shared = square_over(z4, z4)
        split = square_over(zmod(4), zmod(4))
        assert split.dom.bottom is not split.cod.top
        assert split == shared == graph_square()
        mu = Diagonal(split, split.f0)
        assert mu.d == Diagonal(shared, shared.f0).d
        assert act_on_diagonal(identity_arr(split.dom), mu,
                               identity_arr(split.cod)).d == mu.d
        assert comparison_J_arr(split) == comparison_J_arr(shared)

    def test_action_identity_law(self):
        m = graph_square()
        mu = Diagonal(m, identity(zmod(4)))
        acted = act_on_diagonal(identity_arr(m.dom), mu, identity_arr(m.cod))
        assert acted.d == mu.d and acted.morphism == mu.morphism

    def test_action_associativity(self):
        m = mod2_square()
        hk = strong_h_kernel_arr(m)
        mu = hk.diagonal
        pre1 = zero_square(m.dom, kernel_arr(m).dom)
        pre2 = comparison_J_arr(m)
        post1 = identity_arr(m.cod)
        post2 = zero_square(m.cod, ArrowObject(identity(zmod(4))))
        one = act_on_diagonal(pre1, act_on_diagonal(pre2, mu, post1), post2)
        two = act_on_diagonal(compose_arr(pre1, pre2), mu,
                              compose_arr(post1, post2))
        assert one.d == two.d and one.morphism == two.morphism

    def test_zero_pre_composition_zeroes_the_diagonal(self):
        m = graph_square()
        mu = Diagonal(m, identity(zmod(4)))
        acted = act_on_diagonal(zero_square(m.dom, m.dom), mu,
                                identity_arr(m.cod))
        assert acted.d == zero_morphism(zmod(4), zmod(4))


class TestKernels:
    def test_kernel_of_an_identity_square_is_zero(self):
        m = identity_arr(ArrowObject(doubling_arrow()))
        k = kernel_arr(m)
        assert (k.dom.top.size, k.dom.bottom.size) == (1, 1)

    def test_kernel_of_the_graph_square(self):
        k = kernel_arr(graph_square())
        assert (k.dom.top.size, k.dom.bottom.size) == (1, 1)

    def test_kernel_with_identity_endpoints(self):
        m = mod2_square()
        k = kernel_arr(m)
        assert (k.dom.top.size, k.dom.bottom.size) == (2, 2)
        assert compose(k.f, m.f) == zero_morphism(k.dom.top, m.cod.top)

    def test_restricted_arrow_commutes(self):
        m = mod2_square()
        k = kernel_arr(m)
        assert compose(k.dom.a, k.f0) == compose(k.f, m.dom.a)

    def test_the_kernel_is_its_inclusion_square(self):
        m = mod2_square()
        k = kernel_arr(m)
        assert isinstance(k, ArrowMorphism) and k.cod is m.dom
        assert k.dom.a.dom is k.f.dom and k.dom.a.cod is k.f0.dom


class TestStrongHKernel:
    def test_identity_square_pullback_is_the_graph(self):
        obj = ArrowObject(doubling_arrow())
        hk = strong_h_kernel_arr(identity_arr(obj))
        assert hk.limit.apex.size == obj.top.size
        assert classify_morphism(hk.inclusion.dom.a).mono

    def test_graph_square_sizes(self):
        hk = strong_h_kernel_arr(graph_square())
        obj = hk.inclusion.dom
        assert (obj.top.size, obj.bottom.size) == (2, 4)

    def test_fold_square_pullback_has_five_points(self):
        hk = strong_h_kernel_arr(fold_square())
        assert hk.limit.apex.size == 5

    def test_restricted_square_pullback_has_three_points(self):
        hk = strong_h_kernel_arr(restricted_square())
        assert hk.limit.apex.size == 3

    def test_triple_laws(self):
        m = mod2_square()
        hk = strong_h_kernel_arr(m)
        assert compose(hk.inclusion.dom.a, hk.limit.legs["p1"]) == m.dom.a
        assert compose(hk.inclusion.dom.a, hk.limit.legs["p2"]) == m.f
        assert hk.diagonal.morphism == compose_arr(hk.inclusion, m)

    def test_capability_guard(self):
        x = finset_object([0, 1])
        m = identity_arr(ArrowObject(identity(x)))
        with pytest.raises(CapabilityError):
            strong_h_kernel_arr(m)


class TestUniversalProperties:
    def test_kernel_cone_factors_onto_the_comparison(self):
        m = mod2_square()
        hk = strong_h_kernel_arr(m)
        ker = kernel_arr(m)
        mu = Diagonal(compose_arr(ker, m),
                      zero_morphism(ker.dom.bottom, m.cod.top))
        factor = h_kernel_factorization(hk, ker, mu)
        assert factor == comparison_J_arr(m)

    def test_factorization_bottom_is_unique(self):
        m = mod2_square()
        hk = strong_h_kernel_arr(m)
        ker = kernel_arr(m)
        mu = Diagonal(compose_arr(ker, m),
                      zero_morphism(ker.dom.bottom, m.cod.top))
        assert count_factorizations(
            hk.limit, {"p1": ker.f0, "p2": mu.d}) == 1

    def test_mismatched_triple_is_rejected(self):
        m = mod2_square()
        hk = strong_h_kernel_arr(m)
        stray = Diagonal(zero_square(m.dom, m.cod),
                         zero_morphism(zmod(4), zmod(2)))
        with pytest.raises(NoMediatorError):
            h_kernel_factorization(hk, identity_arr(m.dom), stray)

    def test_strong_lift_of_a_compatible_diagonal(self):
        m = mod2_square()
        hk = strong_h_kernel_arr(m)
        ker = kernel_arr(m)
        mu = Diagonal(compose_arr(ker, m),
                      zero_morphism(ker.dom.bottom, m.cod.top))
        factor = h_kernel_factorization(hk, ker, mu)
        flat = Diagonal(compose_arr(factor, hk.inclusion),
                        kernel(m.f0).legs["ker"])
        lifted = strong_lift(hk, factor, flat)
        assert lifted.d == flat.d
        assert lifted.morphism == factor

    def test_strong_lift_requires_the_pasting_equation(self):
        # the tautological diagonal of the inclusion does not restrict on
        # the fold square: pasting with the measured square disagrees with
        # pasting through the h-kernel's own diagonal
        hk = strong_h_kernel_arr(fold_square())
        h = identity_arr(hk.inclusion.dom)
        mu = Diagonal(compose_arr(h, hk.inclusion), hk.limit.legs["p1"])
        with pytest.raises(NoMediatorError):
            strong_lift(hk, h, mu)


class TestComparisonJ:
    def test_identity_square_comparison_is_a_weak_equivalence(self):
        j = comparison_J_arr(identity_arr(ArrowObject(doubling_arrow())))
        assert classify_arrow_morphism(j)["weak_equivalence"]

    def test_comparison_is_always_fully_faithful(self):
        for m in (graph_square(), mod2_square(), fold_square(),
                  restricted_square()):
            flags = classify_arrow_morphism(comparison_J_arr(m))
            assert flags["fully_faithful"]

    def test_comparison_reuses_the_bottom_kernel(self):
        # J mediates the kernel inclusion the kernel square already holds,
        # so its bottom starts at that very kernel object
        for m in (graph_square(), mod2_square(), fold_square(),
                  restricted_square()):
            j = comparison_J_arr(m)
            assert j.f0.dom is j.dom.bottom
            assert j.dom.bottom == kernel_arr(m).dom.bottom

    def test_comparison_square_is_a_pullback(self):
        for m in (graph_square(), mod2_square(), fold_square(),
                  restricted_square()):
            j = comparison_J_arr(m)
            lim = pullback(j.cod.a, j.f0)
            med = lim.mediate({"p1": j.f, "p2": j.dom.a})
            assert classify_morphism(med).iso

    def test_the_finab_sweep_comparisons_are_pinned(self):
        # SHA-256 of every comparison's four index tables, in stream order,
        # as built from the full strong h-kernel triple
        digest = hashlib.sha256()
        count = 0
        for m in _fibration_squares(FINAB):
            j = comparison_J_arr(m)
            digest.update(repr((j.dom.a.map, j.cod.a.map, j.f.map,
                                j.f0.map)).encode())
            count += 1
        assert count == 20796
        assert digest.hexdigest() == (
            "dcaf7928bc0f15ddd213db4d1a5e04a9cb0f92a5d21b0252d037a9a7a0e11377")

    def test_unpointed_squares_have_a_partial_zero_but_no_comparison(self):
        x = finset_object([0, 1])
        m = identity_arr(ArrowObject(identity(x)))
        assert classify_morphism(partial_zero_arr(m)).iso
        with pytest.raises(CapabilityError):
            comparison_J_arr(m)


class TestClassification:
    def test_identity_square_flags(self):
        flags = classify_arrow_morphism(
            identity_arr(ArrowObject(doubling_arrow())))
        assert flags == {"faithful": True, "full": True,
                         "fully_faithful": True,
                         "essentially_surjective": True,
                         "weak_equivalence": True, "fibration": True,
                         "star_fibration": True}

    def test_fold_square_is_a_fibration_but_not_star(self):
        flags = classify_arrow_morphism(fold_square())
        assert flags["fibration"] and not flags["star_fibration"]
        assert flags["faithful"] and not flags["full"]
        assert flags["essentially_surjective"]
        assert not flags["weak_equivalence"]

    def test_restricted_square_matches(self):
        flags = classify_arrow_morphism(restricted_square())
        assert flags["fibration"] and not flags["star_fibration"]

    def test_abelian_fibration_square_is_star(self):
        flags = classify_arrow_morphism(mod2_square())
        assert flags["fibration"] and flags["star_fibration"]
        assert flags["weak_equivalence"]

    def test_essential_surjectivity_uses_joint_covering(self):
        m = fold_square()
        assert is_essentially_surjective_arr(m)
        assert not is_essentially_surjective_arr(comparison_J_arr(m))

    def test_partial_zero_drives_the_flags(self):
        flags = classify_morphism(partial_zero_arr(fold_square()))
        assert flags.mono and not flags.regular_epi


def empty_fibre_square(instance):
    # a: 0 -> X misses the point x, over which b = id_X has the fibre {x}
    x = zmod(2) if instance is FINAB else finptdset_object(["*", "x"])
    point = zero_morphism(zmod(1) if instance is FINAB
                          else finptdset_object(["*"]), x)
    return ArrowMorphism(ArrowObject(point), ArrowObject(identity(x)),
                         point, identity(x))


def random_squares(instance):
    return (_random_arrow_morphism(instance, random.Random(seed))
            for seed in range(100))


# the first 2000 FinAb sweep squares, all 795 FinPtdSet ones, and 100
# seeded random squares on each pointed instance
square_families = pytest.mark.parametrize("squares, count", [
    (lambda: islice(_fibration_squares(FINAB), 2000), 2000),
    (lambda: _fibration_squares(FINPTDSET), 795),
    (lambda: random_squares(FINAB), 100),
    (lambda: random_squares(FINPTDSET), 100),
], ids=["finab-sweep", "finptdset-sweep", "finab-random", "finptdset-random"])


class TestFibreFlags:
    """The fibrewise flags are the mono / regular-epi flags of the
    endpoint factorization that the pullback builds."""

    @staticmethod
    def _agrees(m):
        flags = classify_morphism(partial_zero_arr(m))
        return _fibre_flags(m) == (flags.mono, flags.regular_epi)

    @square_families
    def test_agree_with_the_pullback_on_squares_and_their_j(self, squares,
                                                            count):
        seen = 0
        for m in squares():
            assert self._agrees(m) and self._agrees(comparison_J_arr(m))
            seen += 1
        assert seen == count

    @pytest.mark.parametrize("instance", [FINAB, FINPTDSET])
    def test_an_empty_fibre_under_a_full_one_is_not_full(self, instance):
        m = empty_fibre_square(instance)
        assert _fibre_flags(m) == (True, False)
        assert self._agrees(m)
        flags = classify_arrow_morphism(m)
        assert flags["faithful"] and not flags["full"]


def joint_epi(f, g):
    """Whether the images of f and g cover their codomain (FinPtdSet) or
    generate it as a subgroup (FinAb)."""
    cover = set(f.map) | set(g.map)
    if f.cod.instance is FINAB:
        cover = generated_subgroup_indices(f.cod, cover)
    return len(cover) == f.cod.size


def kernel_square_j(m):
    """J as the kernel square and a fresh endpoint pullback give it: the
    kernel inclusion's top, and its bottom paired with the zero diagonal."""
    ker = kernel_arr(m)
    lim = pullback(m.f0, m.cod.a)
    bottom = lim.mediate({"p1": ker.f0,
                          "p2": zero_morphism(ker.dom.bottom, m.cod.top)})
    endpoint = lim.mediate({"p1": m.dom.a, "p2": m.f})
    return ArrowMorphism(ker.dom, ArrowObject(endpoint), ker.f,
                         bottom)


class TestJFromTheBaseKernels:
    """J, built from the two base kernels, is the comparison that the
    kernel square gives, and the flags it feeds are the pullback's."""

    @square_families
    def test_j_matches_the_kernel_square(self, squares, count):
        seen = 0
        for m in squares():
            j = comparison_J_arr(m)
            ker = kernel_arr(m)
            assert j.dom.a == ker.dom.a
            assert j.f == ker.f
            assert j.cod.a == partial_zero_arr(m)
            assert j == kernel_square_j(m)
            pz = classify_morphism(partial_zero_arr(m))
            flags = classify_arrow_morphism(m)
            assert (flags["faithful"], flags["full"]) == (pz.mono,
                                                          pz.regular_epi)
            assert flags["essentially_surjective"] == joint_epi(m.f0,
                                                                m.cod.a)
            assert flags["star_fibration"] == joint_epi(j.f0, j.cod.a)
            seen += 1
        assert seen == count


class TestNormalization:
    def test_normalize_identity_is_the_identity_square(self):
        g = groupoid_from_arrow(doubling_arrow())
        assert normalize(identity_functor(g)) == identity_arr(normalize_obj(g))

    def test_normalized_object_recovers_the_graph_arrow(self):
        cmp = graph_comparison(doubling_arrow())
        assert classify_morphism(cmp.f).iso
        assert classify_morphism(cmp.f0).iso

    def test_normalize_mod2_collapse(self):
        square = normalize(mod2_collapse())
        assert (square.f.dom.size, square.f.cod.size) == (4, 2)
        flags = classify_arrow_morphism(square)
        assert flags["fibration"] and flags["star_fibration"]
        assert not flags["faithful"] and flags["full"]

    def test_homotopy_lifts_through_the_kernel(self):
        fun, cell = pointed_null_cell()
        diag = normalize_homotopy(cell)
        assert diag.morphism == normalize(fun)
        assert compose(diag.d, diag.morphism.cod.a) == fun.F0

    def test_non_null_cell_is_rejected(self):
        g = groupoid_from_arrow(doubling_arrow())
        with pytest.raises(NoMediatorError):
            normalize_homotopy(identity_cell(identity_functor(g)))
        b4 = cyclic_delooping(FINAB, 4)
        with pytest.raises(NoMediatorError):
            normalize_homotopy(identity_cell(identity_functor(b4)))

    def test_homotopy_translation_respects_the_action(self):
        fun, cell = pointed_null_cell()
        left = discrete_groupoid(finptdset_object(["*", "w", "v"]))
        pre = functor(left, fun.dom, lambda o: "x" if o == "w" else "*",
                      lambda o: "x" if o == "w" else "*")
        big = indiscrete_groupoid(finptdset_object(["*", "u", "t"]))
        post = functor(fun.cod, big, lambda o: o, lambda pair: pair)
        pasted = whisker(whisker_left(pre, cell), post)
        direct = normalize_homotopy(pasted)
        acted = act_on_diagonal(normalize(pre), normalize_homotopy(cell),
                                normalize(post))
        assert direct.d == acted.d
        assert direct.morphism == acted.morphism


class TestPreservationComparisons:
    def test_kernel_preservation(self):
        fun = mod2_collapse()
        incl = kernel_groupoid(fun)[1]
        square = normalize(fun)
        ker = kernel_arr(square)
        cmp = kernel_preservation_comparison(incl, square, ker)
        assert classify_morphism(cmp.f).iso
        assert classify_morphism(cmp.f0).iso
        assert cmp.cod is ker.dom
        assert compose_arr(cmp, ker) == normalize(incl)

    def test_h_kernel_preservation(self):
        fun = mod2_collapse()
        hk = strong_h_kernel(fun)
        arr = strong_h_kernel_arr(normalize(fun))
        cmp = h_kernel_preservation_comparison(hk, arr)
        assert classify_morphism(cmp.f).iso
        assert classify_morphism(cmp.f0).iso
        assert compose_arr(cmp, arr.inclusion) == normalize(hk.to_f_dom)

    def test_h_kernel_preservation_matches_the_diagonal(self):
        fun = identity_functor(groupoid_from_arrow(doubling_arrow()))
        hk = strong_h_kernel(fun)
        arr = strong_h_kernel_arr(normalize(fun))
        cmp = h_kernel_preservation_comparison(hk, arr)
        direct = normalize_homotopy(hk.cell)
        acted = act_on_diagonal(cmp, arr.diagonal, identity_arr(arr.of.cod))
        assert direct.d == acted.d
