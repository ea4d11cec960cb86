"""Base-category operations against independent brute-force oracles."""

import ast
import collections
import itertools
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupoid_lab import base
from groupoid_lab.base import (
    FINAB, FINPTDSET, FINSET, BaseMorphism, BaseObject, CapabilityError,
    CompositionError,
    DiagramError, NoMediatorError, additive_section, classify_morphism,
    comma, compose, direct_sum, enumerate_morphisms,
    finab_object, finptdset_object, finset_object, generated_subgroup_indices,
    identity, jointly_strongly_epi, kernel,
    morphism_from_function, parse_instance, product, pullback,
    quotient_by_subgroup, reflexive_coequalizer, split_section,
    subobject_limit, zero_morphism, zero_object, zmod)
from groupoid_lab.groupoid import delooping
from groupoid_lab.catalog import (
    _finab_catalog, _finptdset_catalog, _groupoid_catalog)
from groupoid_lab.generators import _random_object, gen_functor, gen_groupoid
from groupoid_lab.holim import (
    arrow_groupoid, comparison_T_data, strong_h_kernel)
from groupoid_lab.serialize import object_to_data
from oracles import count_factorizations


def mod_map(m, n):
    return morphism_from_function(zmod(m), zmod(n), lambda x: x % n)


def scale_map(obj, k):
    n = obj.size
    return morphism_from_function(obj, obj, lambda x: (k * x) % n)


def abelian_groups_up_to_8():
    """One group per iso class of abelian groups of order at most 8."""
    z2 = zmod(2)
    return [zmod(n) for n in range(1, 9)] + [
        direct_sum(z2, z2), direct_sum(z2, zmod(4)),
        direct_sum(z2, direct_sum(z2, z2))]


# The modules that pick cases by instance; every other module reads the
# instance's capabilities.
_CASE_PICKERS = {"harness.py", "generators.py", "catalog.py"}
_INSTANCE_NAMES = {"FINSET", "FINPTDSET", "FINAB"}
_STRUCTURE_KEYS = {FINSET: set(), FINPTDSET: {"basepoint"},
                   FINAB: {"add", "neg", "zero"}}


def _instance_identity_tests(path):
    """The ``is`` and ``is not`` comparisons in a module that have an
    instance constant on either side, as line numbers."""
    lines = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left, *node.comparators]
        for op, left, right in zip(node.ops, operands, operands[1:]):
            names = {getattr(side, "id", getattr(side, "attr", None))
                     for side in (left, right)}
            if (isinstance(op, (ast.Is, ast.IsNot))
                    and names & _INSTANCE_NAMES):
                lines.append(node.lineno)
    return lines


def _objects_of_every_instance():
    yield from _finab_catalog(8)
    yield from _finptdset_catalog(3)
    yield zero_object(FINPTDSET)
    yield zero_object(FINAB)
    for inst in (FINSET, FINPTDSET, FINAB):
        for seed in range(50):
            yield _random_object(inst, Random(seed), 6)


class TestInstances:
    def test_capability_flags(self):
        assert not FINSET.pointed and not FINSET.protomodular
        assert FINPTDSET.pointed and not FINPTDSET.protomodular
        assert FINAB.pointed and FINAB.protomodular
        assert [i.additive for i in (FINSET, FINPTDSET, FINAB)] == [
            False, False, True]

    def test_only_the_case_pickers_ask_which_instance_they_hold(self):
        src = Path(base.__file__).parent
        found = {path.name: _instance_identity_tests(path)
                 for path in sorted(src.glob("*.py"))
                 if path.name not in _CASE_PICKERS}
        assert len(found) >= 8
        assert {name: lines for name, lines in found.items() if lines} == {}

    def test_every_object_carries_what_its_instance_declares(self):
        seen = collections.Counter()
        for obj in _objects_of_every_instance():
            inst = obj.instance
            seen[inst] += 1
            assert (obj.add is not None) == inst.additive
            assert (obj.neg is not None) == inst.additive
            assert (obj.zero is not None) == inst.pointed
            assert set(object_to_data(obj)["structure"]) == (
                _STRUCTURE_KEYS[inst])
        assert seen == {FINSET: 50, FINPTDSET: 54, FINAB: 60}

    def test_parse(self):
        assert parse_instance("FinAb") is FINAB
        with pytest.raises(DiagramError):
            parse_instance("fingrp")

    def test_zero_objects(self):
        assert zero_object(FINPTDSET).size == 1
        assert zero_object(FINAB).size == 1
        with pytest.raises(CapabilityError):
            zero_object(FINSET)

    @pytest.mark.parametrize("value", ["finab", "finptdset", None, 0])
    def test_zero_object_rejects_a_value_that_is_no_instance(self, value):
        with pytest.raises(DiagramError, match="is not a base instance"):
            zero_object(value)

    @pytest.mark.parametrize("a, b", [
        (finset_object(["a"]), zmod(2)),
        (zmod(2), finptdset_object(["*"])),
        (finptdset_object(["*"]), finset_object(["a"]))],
        ids=["finset-finab", "finab-finptdset", "finptdset-finset"])
    def test_product_rejects_objects_of_two_instances(self, a, b):
        with pytest.raises(DiagramError, match="crosses base instances"):
            product(a, b)

    @pytest.mark.parametrize("a, b", [
        (finptdset_object(["*", "x"]), zmod(2)),
        (zmod(2), finptdset_object(["*", "x"])),
        (finset_object(["a"]), zmod(2))],
        ids=["finptdset-finab", "finab-finptdset", "finset-finab"])
    def test_zero_morphism_rejects_objects_of_two_instances(self, a, b):
        with pytest.raises(DiagramError, match="crosses base instances"):
            zero_morphism(a, b)


class TestObjects:
    def test_group_axioms_rejected(self):
        # corrupt one cell of the Z4 table: breaks commutativity or units
        add = [list(r) for r in zmod(4).add]
        add[1][2] = 0
        with pytest.raises(DiagramError):
            from groupoid_lab.base import finab_object
            finab_object(range(4), add, zmod(4).neg, 0)

    # A pointed set keeps its basepoint in ``zero`` and carries no tables; a
    # set carries no point; a group has one point, its zero.
    @pytest.mark.parametrize("instance, structure", [
        (FINPTDSET, {"zero": 0, "add": zmod(2).add, "neg": zmod(2).neg}),
        (FINPTDSET, {"zero": 1, "neg": zmod(2).neg}),
        (FINSET, {"zero": 0}),
        (FINSET, {"neg": zmod(2).neg}),
    ], ids=["pointed-set-with-tables", "pointed-set-with-neg",
            "set-with-zero", "set-with-neg"])
    def test_stray_structure_is_rejected(self, instance, structure):
        with pytest.raises(DiagramError, match="carry no"):
            BaseObject(instance, ["*", "x"], **structure)

    def test_a_group_has_no_second_point(self):
        z2 = zmod(2)
        with pytest.raises(TypeError):
            BaseObject(FINAB, range(2), add=z2.add, neg=z2.neg, zero=0,
                       basepoint=1)

    def test_duplicate_carrier_rejected(self):
        with pytest.raises(DiagramError):
            finset_object(["a", "a"])

    def test_pointed_map_must_fix_basepoint(self):
        x = finptdset_object(["*", "p"])
        with pytest.raises(DiagramError):
            BaseMorphism(x, x, [1, 0])

    def test_additivity_rejected(self):
        with pytest.raises(DiagramError):
            BaseMorphism(zmod(4), zmod(4), [0, 1, 3, 2])

    def test_caller_functions_are_always_validated(self):
        # n -> n^2 keeps zero but sends 1 + 1 = 2 to 0, not to 1 + 1
        with pytest.raises(DiagramError, match="not additive"):
            morphism_from_function(zmod(4), zmod(4), lambda n: n * n % 4)
        pointed = finptdset_object(["*", "a"])
        with pytest.raises(DiagramError, match="basepoint"):
            morphism_from_function(pointed, pointed, lambda v: "a")
        with pytest.raises(TypeError):
            morphism_from_function(zmod(2), zmod(2), lambda n: n, _trusted=True)
        with pytest.raises(TypeError):
            finab_object(range(2), zmod(2).add, zmod(2).neg, 0, _trusted=True)


class TestCompose:
    def test_diagram_order_on_all_elements(self):
        # double-then-project Z4 -> Z2 kills everything
        f = scale_map(zmod(4), 2)
        g = mod_map(4, 2)
        gf = compose(f, g)
        assert [gf(x) for x in range(4)] == [0, 0, 0, 0]

    def test_mismatch_raises(self):
        with pytest.raises(CompositionError):
            compose(mod_map(4, 2), mod_map(4, 2))


class TestPullback:
    def test_finset_cospan_to_point(self):
        # oracle: all pairs, since both maps are constant
        x = finset_object([0, 1])
        pt = finset_object(["*"])
        f = morphism_from_function(x, pt, lambda _: "*")
        pb = pullback(f, f)
        assert pb.apex.size == 4
        assert pb.apex.carrier == ((0, 0), (0, 1), (1, 0), (1, 1))

    def test_finab_mod2_square(self):
        f = mod_map(4, 2)
        pb = pullback(f, f)
        # oracle: same-parity pairs
        expected = [(a, b) for a in range(4) for b in range(4)
                    if a % 2 == b % 2]
        assert list(pb.apex.carrier) == expected
        assert pb.apex.size == 8
        # subgroup of Z4+Z4: closed under componentwise addition
        z44 = direct_sum(zmod(4), zmod(4))
        assert set(pb.apex.carrier) <= set(z44.carrier)

    def test_legs_and_mediator(self):
        f = mod_map(4, 2)
        pb = pullback(f, f)
        diag = pb.mediate({"p1": identity(zmod(4)), "p2": identity(zmod(4))})
        assert all(diag(x) == (x, x) for x in range(4))
        twisted = pb.mediate({"p1": identity(zmod(4)),
                              "p2": scale_map(zmod(4), 3)})
        assert twisted(1) == (1, 3)
        with pytest.raises(NoMediatorError):
            pb.mediate({"p1": identity(zmod(4)), "p2": scale_map(zmod(4), 0)})

    def test_mediator_must_recover_each_leg(self):
        # a cone leg into another object is caught by its codomain, even
        # when its table agrees with a leg into the right one
        a, x = finset_object([0, 1]), finset_object(["x"])
        lim = product(a, a)
        to_a = morphism_from_function(x, a, lambda _: 0)
        for elem in (1, 0):
            stray = morphism_from_function(x, finset_object([elem]),
                                           lambda _: elem)
            with pytest.raises(CompositionError, match="cone leg 'p1'"):
                lim.mediate({"p1": stray, "p2": to_a})
        assert lim.mediate({"p1": to_a, "p2": to_a})("x") == (0, 0)

    def test_cone_legs_are_typed_before_they_are_compared(self):
        f = mod_map(4, 2)
        pb = pullback(f, f)
        z4 = zmod(4)
        with pytest.raises(CompositionError, match="different sources"):
            pb.mediate({"p1": identity(z4),
                        "p2": morphism_from_function(zmod(2), z4,
                                                     lambda x: 2 * x)})
        with pytest.raises(CompositionError, match="mismatch"):
            pb.mediate({"p1": identity(z4), "p2": mod_map(4, 2)})
        with pytest.raises(CompositionError, match="mismatch"):
            pb.mediate({"p1": mod_map(4, 2), "p2": identity(z4)})

    def test_equal_objects_mediate_as_the_identical_ones(self):
        # legs into an object equal to, but not, the leg's codomain, from
        # sources equal to, but not, each other, mediate to the same table
        pb = pullback(mod_map(4, 2), mod_map(4, 2))
        z4 = pb.legs["p1"].cod
        same = pb.mediate({"p1": identity(z4), "p2": scale_map(z4, 3)})
        copies = [zmod(4), zmod(4)]
        assert copies[0] is not z4 and copies[0] is not copies[1]
        equal = pb.mediate({"p1": identity(copies[0]),
                            "p2": scale_map(copies[1], 3)})
        assert equal.map == same.map
        assert equal.cod is same.cod is pb.apex

    def test_equal_objects_compose_and_limit_as_the_identical_ones(self):
        # compose, pullback and comma type their inputs by equality: over
        # objects equal to, but not, each other they give the tables they
        # give over one object, and unequal objects still raise
        half = mod_map(4, 2)
        z4, z2 = half.dom, half.cod
        twin = mod_map(4, 2)
        assert twin.dom is not z4 and twin.cod is not z2
        assert compose(scale_map(z4, 3), twin).map == compose(
            scale_map(z4, 3), half).map
        for same, equal in (
                (pullback(half, half), pullback(half, twin)),
                (comma(half, identity(z2), identity(z2), half, "xmy"),
                 comma(half, identity(zmod(2)), identity(zmod(2)), twin,
                       "xmy"))):
            assert equal.apex.carrier == same.apex.carrier
            assert list(equal.lookup) == list(same.lookup)
            assert ({n: leg.map for n, leg in equal.legs.items()}
                    == {n: leg.map for n, leg in same.legs.items()})
        with pytest.raises(CompositionError,
                           match="^codomain/domain mismatch in composite$"):
            compose(half, half)
        with pytest.raises(CompositionError,
                           match="^pullback needs a common codomain$"):
            pullback(half, identity(z4))
        z3 = identity(zmod(3))
        for args in ((half, z3, z3, half), (half, identity(z2), z3, half),
                     (half, identity(z2), half, half)):
            with pytest.raises(CompositionError,
                               match="^comma needs left, d and right, c "
                                     "to share codomains, and d, c a "
                                     "domain$"):
                comma(*args, "xmy")

    def test_a_mistyped_leg_wins_over_a_missing_one(self):
        pb = pullback(mod_map(4, 2), mod_map(4, 2))
        for cone in ({"p1": mod_map(4, 2)}, {"p2": mod_map(4, 2)}):
            with pytest.raises(CompositionError, match="mismatch"):
                pb.mediate(cone)

    def test_a_missing_leg_is_named_first_in_leg_order(self):
        pb = pullback(mod_map(4, 2), mod_map(4, 2))
        z4 = pb.legs["p1"].cod
        for cone, missing in (({}, "p1"), ({"p2": identity(z4)}, "p1"),
                              ({"p1": identity(z4)}, "p2")):
            with pytest.raises(NoMediatorError,
                               match=f"cone has no leg '{missing}'"):
                pb.mediate(cone)

    def test_two_broken_rules_raise_in_a_fixed_order(self):
        # a mistyped leg wins over a missing one, even a later leg; a
        # missing leg wins over mixed sources; mixed sources win over a
        # cone that does not land
        half = mod_map(4, 2)
        z4, z2 = half.dom, half.cod
        lim = comma(half, identity(z2), identity(z2), half, "xmy")
        with pytest.raises(CompositionError,
                           match="^cone leg 'y': codomain mismatch$"):
            lim.mediate({"m": identity(z2), "y": half})
        with pytest.raises(NoMediatorError, match="^cone has no leg 'x'$"):
            lim.mediate({"m": identity(z2), "y": identity(z4)})
        with pytest.raises(CompositionError,
                           match="^cone legs have different sources$"):
            lim.mediate({"x": identity(z4), "m": identity(z2),
                         "y": zero_morphism(z4, z4)})
        # the same three legs from one source do not land
        with pytest.raises(NoMediatorError,
                           match="^cone does not land in the limit$"):
            lim.mediate({"x": identity(z4), "m": half,
                         "y": zero_morphism(z4, z4)})

    def test_pointed_pullback_keeps_basepoint(self):
        x = finptdset_object(["*", "a", "b"])
        y = finptdset_object(["*", "c"])
        f = morphism_from_function(x, y, lambda e: "*" if e == "*" else "c")
        pb = pullback(f, f)
        assert pb.apex.carrier[pb.apex.zero] == ("*", "*")


class TestFiniteLimit:
    """The comma object: as a pullback, on its own, and its typing."""

    @staticmethod
    def cospans(f, g):
        """The comma of f and g over the identity of their codomain."""
        z = identity(f.cod)
        return comma(f, z, z, g, ("x", "z", "y"))

    def test_agrees_with_pullback_pairs(self):
        f = mod_map(4, 2)
        lim = self.cospans(f, f)
        pb = pullback(f, f)
        flattened = [(t[0], t[2]) for t in lim.apex.carrier]
        assert flattened == list(pb.apex.carrier)

    def test_two_cospans_full_tuples(self):
        # oracle: direct enumeration of 5-tuples
        left, d = mod_map(4, 2), mod_map(6, 2)
        c, right = mod_map(6, 3), mod_map(9, 3)
        lim = comma(left, d, c, right, ("x", "m", "y"))
        expected = [(x, m, y, m % 2, m % 3) for x in range(4)
                    for m in range(6) for y in range(9)
                    if x % 2 == m % 2 and y % 3 == m % 3]
        assert list(lim.apex.carrier) == expected
        assert list(lim.lookup) == [t[:3] for t in expected]

    def test_a_missing_leg_is_named_first_in_leg_order(self):
        f = mod_map(4, 2)
        lim = self.cospans(f, f)
        z4, z2 = f.dom, f.cod
        for cone, missing in (({}, "x"), ({"z": f}, "x"),
                              ({"y": identity(z4)}, "x"),
                              ({"x": identity(z4)}, "z"),
                              ({"x": identity(z4), "z": f}, "y")):
            with pytest.raises(NoMediatorError,
                               match=f"cone has no leg '{missing}'"):
                lim.mediate(cone)

    def test_cospans_on_other_objects_are_rejected(self):
        f, g = mod_map(4, 2), mod_map(6, 3)
        with pytest.raises(CompositionError):
            comma(f, identity(zmod(2)), identity(zmod(3)), f, "xmy")
        with pytest.raises(CompositionError):
            comma(f, f, g, g, "xmy")  # d and c on different objects


class TestKernel:
    def test_kernel_of_identity_is_zero(self):
        k = kernel(identity(zmod(4)))
        assert k.apex.size == 1

    def test_kernel_of_zero_is_whole(self):
        k = kernel(zero_morphism(zmod(4), zmod(2)))
        assert k.apex.size == 4

    def test_kernel_mod2(self):
        k = kernel(mod_map(4, 2))
        assert list(k.apex.carrier) == [0, 2]
        assert compose(k.legs["ker"], mod_map(4, 2)) == zero_morphism(k.apex, zmod(2))

    def test_mediator_takes_exactly_the_cones_into_the_kernel(self):
        k = kernel(mod_map(4, 2))
        doubling = scale_map(zmod(4), 2)
        assert [k.mediate({"ker": doubling})(x) for x in range(4)] == [0, 2, 0, 2]
        with pytest.raises(NoMediatorError, match="does not land"):
            k.mediate({"ker": identity(zmod(4))})
        with pytest.raises(CompositionError, match="mismatch"):
            k.mediate({"ker": identity(zmod(2))})
        pointed = finptdset_object(["*", "a", "b"])
        collapse = morphism_from_function(pointed, finptdset_object(["*", "c"]),
                                          lambda e: "c" if e == "b" else "*")
        into = morphism_from_function(finptdset_object(["*", "p"]), pointed,
                                      lambda e: "a" if e == "p" else "*")
        assert kernel(collapse).mediate({"ker": into})("p") == "a"
        with pytest.raises(NoMediatorError, match="does not land"):
            kernel(collapse).mediate({"ker": identity(pointed)})

    def test_needs_pointed(self):
        with pytest.raises(CapabilityError):
            kernel(morphism_from_function(finset_object([0]), finset_object([0]),
                                          lambda x: x))


class TestReflexiveCoequalizer:
    def test_finab_cokernel(self):
        # source/target of the one-object groupoid on Z4 with loops Z2 via 1->2
        b1 = direct_sum(zmod(4), zmod(2))
        b0 = zmod(4)
        d = morphism_from_function(b1, b0, lambda t: t[0])
        c = morphism_from_function(b1, b0, lambda t: (t[0] + 2 * t[1]) % 4)
        e = morphism_from_function(b0, b1, lambda a: (a, 0))
        q = reflexive_coequalizer(d, c, e)
        assert q.cod.size == 2  # Z4 / {0,2}

    def test_finset_connected_quotient(self):
        b0 = finset_object(["p", "q"])
        b1 = finset_object(["idp", "idq", "arc", "cra"])
        d = morphism_from_function(b1, b0,
                                   lambda a: {"idp": "p", "idq": "q",
                                              "arc": "p", "cra": "q"}[a])
        c = morphism_from_function(b1, b0,
                                   lambda a: {"idp": "p", "idq": "q",
                                              "arc": "q", "cra": "p"}[a])
        e = morphism_from_function(b0, b1, lambda o: "id" + o)
        q = reflexive_coequalizer(d, c, e)
        assert q.cod.size == 1

    def test_rejects_non_reflexive(self):
        b0 = zmod(2)
        b1 = direct_sum(zmod(2), zmod(2))
        d = morphism_from_function(b1, b0, lambda t: t[0])
        with pytest.raises(DiagramError):
            reflexive_coequalizer(d, d, zero_morphism(b0, b1))

    def test_finab_union_find_is_the_cokernel_of_d_minus_c(self):
        groupoids = [gen_groupoid(FINAB, seed) for seed in range(300)]
        groupoids += _groupoid_catalog(8)
        for seed in range(60):
            fun = gen_functor(FINAB, seed)
            groupoids += [strong_h_kernel(fun).groupoid,
                          comparison_T_data(fun).relaxed.groupoid]
        assert len(groupoids) == 462
        for g in groupoids:
            add, neg = g.B0.add, g.B0.neg
            diff = [add[x][neg[y]] for x, y in zip(g.d.map, g.c.map)]
            q = reflexive_coequalizer(g.d, g.c, g.e)
            cokernel = quotient_by_subgroup(g.B0, diff)[1]
            assert q == cokernel and q.cod.zero == cokernel.cod.zero


class TestClassify:
    def test_pointed_inclusion(self):
        one = finptdset_object(["*"])
        two = finptdset_object(["*", "x"])
        f = morphism_from_function(one, two, lambda _: "*")
        flags = classify_morphism(f)
        assert flags.mono and not flags.regular_epi and not flags.iso

    def test_mod2_is_regular_but_not_split(self):
        flags = classify_morphism(mod_map(4, 2))
        assert flags.regular_epi and not flags.split_epi
        assert additive_section(mod_map(4, 2)) is None

    def test_projection_splits(self):
        z22 = direct_sum(zmod(2), zmod(2))
        p = morphism_from_function(z22, zmod(2), lambda t: t[0])
        flags = classify_morphism(p)
        assert flags.split_epi
        s = split_section(p)
        assert compose(s, p) == identity(zmod(2))

    def test_pointed_split_section_is_pointed(self):
        x = finptdset_object(["*", "a", "b"])
        y = finptdset_object(["*", "c"])
        f = morphism_from_function(x, y, lambda e: "*" if e == "*" else "c")
        s = split_section(f)
        assert s("*") == "*" and compose(s, f) == identity(y)

    @pytest.mark.parametrize("instance", [FINSET, FINPTDSET, FINAB],
                             ids=lambda i: i.name)
    def test_a_map_that_is_not_onto_has_no_section(self, instance):
        if instance is FINSET:
            f = morphism_from_function(finset_object(["a"]),
                                       finset_object(["a", "b"]),
                                       lambda _: "a")
        else:
            two = (zmod(2) if instance is FINAB
                   else finptdset_object(["*", "a"]))
            f = zero_morphism(two, two)
        assert split_section(f) is None

    def test_iso_flag(self):
        assert classify_morphism(scale_map(zmod(5), 2)).iso
        assert not classify_morphism(scale_map(zmod(4), 2)).iso

    def test_split_epi_agrees_with_the_section_search(self):
        groups = abelian_groups_up_to_8()
        for a, b in itertools.product(groups, groups):
            for f in enumerate_morphisms(a, b):
                flags = classify_morphism(f)
                assert flags.split_epi == (
                    flags.regular_epi and additive_section(f) is not None)
                assert flags.split_epi or not flags.iso

    def test_split_epi_is_decided_on_read(self, monkeypatch):
        calls = []
        search = base.additive_section
        monkeypatch.setattr(base, "additive_section",
                            lambda f: calls.append(f) or search(f))
        iso = classify_morphism(scale_map(zmod(8), 3))
        assert iso.iso and iso.split_epi
        flags = classify_morphism(mod_map(4, 2))
        assert calls == []
        assert not flags.split_epi and len(calls) == 1
        assert not flags.split_epi and len(calls) == 1


class TestJointlyStronglyEpi:
    def test_finab_even_images_fail(self):
        f = morphism_from_function(zmod(2), zmod(4), lambda x: 2 * x)
        assert not jointly_strongly_epi([f, f])

    def test_finab_generating_images(self):
        f = morphism_from_function(zmod(2), zmod(4), lambda x: 2 * x)
        g = identity(zmod(4))
        assert jointly_strongly_epi([f, g])
        # the two coordinate axes generate Z2+Z2; neither inclusion is epi
        z22 = direct_sum(zmod(2), zmod(2))
        ax = morphism_from_function(zmod(2), z22, lambda x: (x, 0))
        ay = morphism_from_function(zmod(2), z22, lambda x: (0, x))
        assert jointly_strongly_epi([ax, ay])
        assert not jointly_strongly_epi([ax, ax])

    def test_finab_matches_the_subgroup_closure(self):
        # the verdict depends on the images only: one hom per image, drawn
        # from sources whose images cover every subgroup used below
        z2, z4 = zmod(2), zmod(4)
        sources = [z2, z4, zmod(8), direct_sum(z2, z2)]
        for cod in (zmod(8), direct_sum(z2, z4),
                    direct_sum(z2, direct_sum(z2, z2))):
            pool = {}
            for src in sources:
                for f in enumerate_morphisms(src, cod):
                    pool.setdefault(frozenset(f.map), f)
            for k in (1, 2, 3):
                for family in itertools.product(pool.values(), repeat=k):
                    hit = {j for f in family for j in f.map}
                    closure = generated_subgroup_indices(cod, hit)
                    assert jointly_strongly_epi(family) == (
                        len(closure) == cod.size), (cod, family)

    def test_pointed_union(self):
        t = finptdset_object(["*", "x", "y"])
        fx = morphism_from_function(finptdset_object(["*", "a"]), t,
                                    lambda e: "*" if e == "*" else "x")
        fy = morphism_from_function(finptdset_object(["*", "a"]), t,
                                    lambda e: "*" if e == "*" else "y")
        assert jointly_strongly_epi([fx, fy])
        assert not jointly_strongly_epi([fx, fx])


    def test_equal_codomains_count_as_one(self):
        f = morphism_from_function(zmod(2), zmod(4), lambda x: 2 * x)
        assert f.cod is not zmod(4)
        for g, epi in ((identity(zmod(4)), True), (scale_map(zmod(4), 2), False)):
            assert g.cod == f.cod and g.cod is not f.cod
            assert jointly_strongly_epi([f, g]) == epi
            same = BaseMorphism(g.dom, f.cod, g.map)
            assert jointly_strongly_epi([f, same]) == epi
        t = [finptdset_object(["*", "x", "y"]) for _ in range(2)]
        fx = morphism_from_function(finptdset_object(["*", "a"]), t[0],
                                    lambda e: "*" if e == "*" else "x")
        fy = morphism_from_function(finptdset_object(["*", "a"]), t[1],
                                    lambda e: "*" if e == "*" else "y")
        assert jointly_strongly_epi([fx, fy])

    def test_mixed_codomains_raise(self):
        f = identity(zmod(4))
        for family in ([f, identity(zmod(2))], [f, f, identity(zmod(8))]):
            with pytest.raises(CompositionError, match="mixed codomains"):
                jointly_strongly_epi(family)


class TestSubgroupMachinery:
    def test_generated_subgroup(self):
        assert generated_subgroup_indices(zmod(8), [2]) == [0, 2, 4, 6]

    def test_quotient(self):
        q_obj, proj = quotient_by_subgroup(zmod(8), [0, 4])
        assert q_obj.size == 4
        assert proj(5) == proj(1)

    def test_subgroup_object_not_closed(self):
        with pytest.raises(DiagramError):
            subobject_limit(zmod(4), [0, 1])

    def test_quotient_by_generated_subgroup(self):
        # {0, 1} is no subgroup of Z4; the subgroup it generates is Z4
        q_obj, proj = quotient_by_subgroup(zmod(4), [0, 1])
        proj._validate()
        assert q_obj.size == 1

    @pytest.mark.parametrize("orders", [(n,) for n in range(1, 9)]
                             + [(2, 2), (2, 4), (2, 2, 2)],
                             ids=lambda orders: "x".join(map(str, orders)))
    def test_quotient_names_each_coset_by_its_least_member(self, orders):
        # the oracle adds elements itself, componentwise mod each order
        def plus(x, y, orders=orders):
            if len(orders) == 1:
                return (x + y) % orders[0]
            return (plus(x[0], y[0], orders[:1]),
                    plus(x[1], y[1], orders[1:]))

        obj = zmod(orders[-1])
        for n in reversed(orders[:-1]):
            obj = direct_sum(zmod(n), obj)
        elems = list(obj.carrier)
        zero = elems[obj.zero]
        for gens in itertools.combinations_with_replacement(
                range(obj.size), 2):
            sub = {zero}
            while True:
                grown = sub | {plus(h, elems[g]) for h in sub for g in gens}
                if grown == sub:
                    break
                sub = grown
            name = [min(elems.index(plus(x, h)) for h in sub) for x in elems]
            reps = sorted(set(name))
            pos = {r: k for k, r in enumerate(reps)}
            q_obj, proj = quotient_by_subgroup(obj, list(gens))
            assert list(q_obj.carrier) == [elems[r] for r in reps]
            assert list(proj.map) == [pos[r] for r in name]
            assert q_obj.zero == pos[name[obj.zero]]
            assert [list(row) for row in q_obj.add] == [
                [pos[name[elems.index(plus(elems[a], elems[b]))]]
                 for b in reps] for a in reps]

    @pytest.mark.parametrize("bad", [[0, 4], [0, -1], [0, True]])
    def test_quotient_rejects_bad_generators(self, bad):
        with pytest.raises(DiagramError):
            quotient_by_subgroup(zmod(4), bad)

    @pytest.mark.parametrize("bad", [[-1], [True], [7], [1.0], [4]])
    def test_generated_subgroup_rejects_bad_generators(self, bad):
        with pytest.raises(DiagramError, match="int indices in range"):
            generated_subgroup_indices(zmod(4), bad)

    def test_generated_subgroup_needs_finab(self):
        with pytest.raises(CapabilityError):
            generated_subgroup_indices(finset_object(["a", "b"]), [0])


def _closure(obj, seeds):
    """The subgroup generated by seeds, by closing under sums until stable."""
    span = {obj.zero, *seeds}
    while True:
        grown = span | {obj.add[a][b] for a in span for b in span}
        if grown == span:
            return span
        span = grown


@st.composite
def small_groups(draw):
    orders = draw(st.lists(st.sampled_from([1, 2, 3, 4, 6]),
                           min_size=1, max_size=3))
    group = zmod(orders[0])
    for k in orders[1:]:
        group = direct_sum(group, zmod(k))
    return group


@settings(max_examples=60, deadline=None)
@given(small_groups(), st.data())
def test_coset_walk_matches_brute_force_closure(group, data):
    seeds = data.draw(st.lists(st.integers(0, group.size - 1), max_size=4))
    assert generated_subgroup_indices(group, seeds) == sorted(_closure(group, seeds))
    gens = group.generating_sequence()
    everything = set(range(group.size))
    assert _closure(group, gens) == everything
    # greedy: each generator is the least index outside the span before it
    for k, g in enumerate(gens):
        assert g == min(everything - _closure(group, gens[:k]))


def _leaves(x):
    """The residues of a nested tuple, left to right."""
    return (x,) if isinstance(x, int) else sum(map(_leaves, x), ())


def assert_dense_table(obj, moduli):
    """obj's add/neg/zero agree entry by entry with leafwise sums of residues.

    ``moduli`` has the nesting of the carrier elements, one modulus per leaf.
    """
    rng = range(obj.size)
    flat = [_leaves(x) for x in obj.carrier]
    mods = _leaves(moduli)
    index = {f: i for i, f in enumerate(flat)}
    dense = [[index[tuple((a + b) % m for a, b, m in zip(f, g, mods))]
              for g in flat] for f in flat]
    # read column by column first, so stored sums are read back by rows
    assert [[obj.add[i][j] for i in rng] for j in rng] == [
        [dense[i][j] for i in rng] for j in rng]
    assert [list(row) for row in obj.add] == dense
    assert dense[obj.zero] == list(rng)
    assert all(dense[i][obj.neg[i]] == obj.zero for i in rng)


class TestApexTables:
    def test_pullback(self):
        pb = pullback(mod_map(8, 4), mod_map(12, 4))
        assert pb.apex.size == 24
        assert_dense_table(pb.apex, (8, 12))

    def test_finite_limit(self):
        # a comma apex: each element also reads d m and c m
        apex = comma(mod_map(4, 2), mod_map(6, 2), mod_map(6, 3),
                     mod_map(9, 3), "xmy").apex
        assert apex.size == 36
        assert_dense_table(apex, (4, 6, 9, 2, 3))

    @pytest.mark.parametrize("n", [8, 9])
    def test_square_groupoid(self, n):
        squares = arrow_groupoid(delooping(zmod(n))).groupoid.B1
        assert squares.size == n ** 3  # 512 and 729, both sides of 512
        assert_dense_table(squares, ((n, n), (n, n)))

    def test_direct_sum(self):
        a, b = zmod(2), zmod(4)
        nb = b.size
        s = direct_sum(a, b)
        assert s.carrier == tuple((x, y) for x in a.carrier for y in b.carrier)
        assert s.zero == a.zero * nb + b.zero
        for i in range(s.size):
            ia, ib = divmod(i, nb)
            assert s.neg[i] == a.neg[ia] * nb + b.neg[ib]
            for j in range(s.size):
                ja, jb = divmod(j, nb)
                assert s.add[i][j] == a.add[ia][ja] * nb + b.add[ib][jb]


class TestGroupTables:
    def test_every_single_entry_corruption_of_z60_is_rejected(self):
        # each corruption keeps the table commutative, zero a unit and neg
        # an inverse, so only the associativity test can reject it
        z60 = zmod(60)
        rejected = 0
        for i in range(1, 60):
            for j in range(i + 1, 60):
                if (i + j) % 60 == 0:
                    continue
                add = [list(row) for row in z60.add]
                add[i][j] = add[j][i] = (i + j + 1) % 60 or 2
                with pytest.raises(DiagramError, match="associative"):
                    finab_object(z60.carrier, add, z60.neg, z60.zero)
                rejected += 1
        assert rejected == 1682

    @pytest.mark.parametrize("orders", [(2, 2, 2), (4, 6), (3, 3, 2), (8,)])
    def test_direct_sums_pass_as_outside_input(self, orders):
        group = zmod(orders[0])
        for k in orders[1:]:
            group = direct_sum(group, zmod(k))
        rebuilt = finab_object(group.carrier, group.add, group.neg,
                               group.zero)
        assert rebuilt == group


class TestEnumeration:
    def test_hom_count_z4_z2(self):
        homs = list(enumerate_morphisms(zmod(4), zmod(2)))
        assert len(homs) == 2  # zero and mod 2

    def test_hom_count_z2z2_z2(self):
        z22 = direct_sum(zmod(2), zmod(2))
        assert len(list(enumerate_morphisms(z22, zmod(2)))) == 4

    def test_pointed_maps_fix_base(self):
        x = finptdset_object(["*", "a"])
        maps = list(enumerate_morphisms(x, x))
        assert len(maps) == 2
        assert all(m("*") == "*" for m in maps)


class TestMediatorUniqueness:
    def test_pullback_factorization_is_unique(self):
        f = mod_map(4, 2)
        pb = pullback(f, f)
        cone = {"p1": identity(zmod(4)), "p2": identity(zmod(4))}
        assert count_factorizations(pb, cone) == 1

    def test_finset_limit_factorization_unique(self):
        x = finset_object([0, 1, 2])
        pt = finset_object(["*"])
        f = morphism_from_function(x, pt, lambda _: "*")
        pb = pullback(f, f)
        u = morphism_from_function(x, x, lambda a: (a + 1) % 3)
        assert count_factorizations(pb, {"p1": u, "p2": identity(x)}) == 1


@st.composite
def small_ab_maps(draw):
    orders = draw(st.sampled_from([1, 2, 3, 4, 5, 6, 8]))
    cod_order = draw(st.sampled_from([1, 2, 3, 4, 6]))
    dom, cod = zmod(orders), zmod(cod_order)
    homs = list(enumerate_morphisms(dom, cod))
    return draw(st.sampled_from(homs))


@settings(max_examples=60, deadline=None)
@given(small_ab_maps(), st.data())
def test_kernel_universal_property(f, data):
    k = kernel(f)
    sources = list(enumerate_morphisms(zmod(2), f.dom))
    good = [u for u in sources if compose(u, f) == zero_morphism(zmod(2), f.cod)]
    if not good:
        return
    u = data.draw(st.sampled_from(good))
    med = k.mediate({"ker": u})
    assert compose(med, k.legs["ker"]) == u


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([2, 3, 4, 6, 8]), st.sampled_from([2, 3, 4]))
def test_product_projections_jointly_monic(m, n):
    prod = product(zmod(m), zmod(n))
    p1, p2 = prod.legs["p1"], prod.legs["p2"]
    seen = set(zip(p1.map, p2.map))
    assert len(seen) == prod.apex.size
