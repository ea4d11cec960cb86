"""Functor classification: fibration levels, star levels, equivalences.

Frozen facts, each re-derivable by enumeration:

* the mod-2 collapse of cyclic deloopings Z4 -> Z2 is a fibration whose
  lifting map has no additive section, so the split label drops exactly in
  the abelian instance;
* the discrete embedding into a delooping hits the only object but misses
  every loop: essentially surjective, nowhere near fully faithful;
* the kernel-restricted lifting map of the discrete embedding into the
  Z2 -> Z4 graph groupoid is a map 1 -> 2, so that embedding is not a
  star fibration.
"""

import json

import pytest

from groupoid_lab.base import (
    FINAB,
    FINPTDSET,
    FINSET,
    CapabilityError,
    MorphismFlags,
    classify_morphism,
    compose,
    finset_object,
    identity,
    morphism_from_function,
    zmod,
)
from groupoid_lab.groupoid import (
    InternalFunctor,
    InternalGroupoid,
    action_groupoid,
    cyclic_delooping,
    discrete_embedding,
    discrete_groupoid,
    functor,
    identity_functor,
    zero_functor,
    zero_groupoid,
)
from groupoid_lab import classify
from groupoid_lab.generators import gen_functor
from groupoid_lab.holim import arrow_groupoid, comparison_J, comparison_T
from groupoid_lab.classify import (
    FIBRATION_LABELS,
    STAR_LABELS,
    FunctorClassification,
    classification_report,
    classify_equivalence,
    classify_fibration,
    classify_star_fibration,
    fibration_at_least,
    fully_faithful_comparison,
    is_equivalence,
    is_fully_faithful,
    is_weak_equivalence,
    partial_zero,
    star_at_least,
    tau_factorization,
)


def delooping_pair():
    return cyclic_delooping(FINAB, 2), cyclic_delooping(FINAB, 4)


def mod2_collapse():
    b2, b4 = delooping_pair()
    return functor(b4, b2, lambda o: 0, lambda x: x % 2)


def doubling():
    b2, b4 = delooping_pair()
    return functor(b2, b4, lambda o: 0, lambda x: 2 * x % 4)


def graph_groupoid():
    from groupoid_lab.groupoid import groupoid_from_arrow
    delta = morphism_from_function(zmod(2), zmod(4), lambda n: 2 * n)
    return groupoid_from_arrow(delta)


class TestTauFactorization:
    def test_identity_gives_an_iso_on_both_sides(self):
        b = cyclic_delooping(FINAB, 3)
        for side in ("d", "c"):
            assert classify_morphism(tau_factorization(identity_functor(b),
                                                       side)).iso

    def test_factorization_laws(self):
        fun = mod2_collapse()
        from groupoid_lab.base import pullback
        lim = pullback(fun.F0, fun.cod.d)
        tau = tau_factorization(fun, "d")
        assert compose(tau, lim.legs["p1"]) == fun.dom.d
        assert compose(tau, lim.legs["p2"]) == fun.F1

    def test_each_side_lifts_along_its_own_end(self):
        from groupoid_lab.base import pullback
        g = graph_groupoid()
        for fun in (identity_functor(g), discrete_embedding(g)):
            for side, end in (("d", fun.dom.d), ("c", fun.dom.c)):
                lim = pullback(fun.F0, getattr(fun.cod, side))
                tau = tau_factorization(fun, side)
                assert compose(tau, lim.legs["p1"]) == end
                assert compose(tau, lim.legs["p2"]) == fun.F1
        for measure in (tau_factorization,
                        lambda f, side: FunctorClassification(f).hat_tau(side),
                        lambda f, side: FunctorClassification(f).reach(side)):
            with pytest.raises(ValueError):
                measure(identity_functor(g), "x")

    def test_zero_functor_gives_a_split_epi(self):
        b = cyclic_delooping(FINAB, 2)
        fun = zero_functor(b, zero_groupoid(FINAB))
        tau = tau_factorization(fun, "d")
        assert classify_morphism(tau).split_epi
        assert tau.cod.size == b.B0.size

    def test_discrete_embedding_misses_the_loops(self):
        b = cyclic_delooping(FINAB, 2)
        tau = tau_factorization(discrete_embedding(b), "d")
        assert not classify_morphism(tau).regular_epi
        assert len(set(tau.map)) == b.B0.size


class TestClassifyFibration:
    def test_frozen_labels(self):
        b = cyclic_delooping(FINAB, 2)
        assert classify_fibration(identity_functor(b)) == "discrete_fibration"
        assert classify_fibration(
            zero_functor(b, zero_groupoid(FINAB))) == "split_epi_fibration"
        assert classify_fibration(discrete_embedding(b)) == "not_fibration"
        assert classify_fibration(doubling()) == "not_fibration"

    def test_mod2_collapse_is_an_unsplit_fibration(self):
        # Z2 is not an additive retract of Z4
        assert classify_fibration(mod2_collapse()) == "fibration"

    def test_finset_surjections_always_split(self):
        a = cyclic_delooping(FINSET, 4)
        b = cyclic_delooping(FINSET, 2)
        fun = functor(a, b, lambda o: "*", lambda x: x % 2)
        assert classify_fibration(fun) == "split_epi_fibration"

    def test_label_order(self):
        assert FIBRATION_LABELS.index("fibration") < FIBRATION_LABELS.index(
            "split_epi_fibration")
        assert fibration_at_least("discrete_fibration", "fibration")
        assert not fibration_at_least("not_fibration", "fibration")


class TestStarFibration:
    def test_frozen_labels(self):
        b = cyclic_delooping(FINAB, 2)
        assert classify_star_fibration(
            identity_functor(b)) == "split_epi_star_fibration"
        assert classify_star_fibration(
            zero_functor(b, zero_groupoid(FINAB))) == "split_epi_star_fibration"
        assert classify_star_fibration(doubling()) == "not_star"

    def test_fibration_is_a_star_fibration_here(self):
        assert classify_star_fibration(mod2_collapse()) == "star_fibration"

    def test_embedding_into_the_graph_groupoid(self):
        fun = discrete_embedding(graph_groupoid())
        ht = FunctorClassification(fun).hat_tau("d")[1]
        assert (ht.dom.size, ht.cod.size) == (1, 2)
        assert classify_star_fibration(fun) == "not_star"

    def test_zero_functor_measurement_is_surjective(self):
        b = cyclic_delooping(FINAB, 2)
        fun = zero_functor(b, zero_groupoid(FINAB))
        assert classify_morphism(
            FunctorClassification(fun).hat_tau("d")[1]).regular_epi

    def test_capability_guard(self):
        b = cyclic_delooping(FINSET, 2)
        with pytest.raises(CapabilityError):
            classify_star_fibration(identity_functor(b))
        with pytest.raises(CapabilityError):
            FunctorClassification(identity_functor(b)).hat_tau("c")

    def test_label_order(self):
        assert star_at_least("split_epi_star_fibration", "star_fibration")
        assert not star_at_least("not_star", "star_fibration")


class TestFullyFaithful:
    def test_identity(self):
        b = cyclic_delooping(FINAB, 2)
        assert is_fully_faithful(identity_functor(b))

    def test_discrete_embedding_is_not(self):
        assert not is_fully_faithful(discrete_embedding(
            cyclic_delooping(FINAB, 2)))

    def test_square_evaluations_are_fully_faithful(self):
        data = arrow_groupoid(cyclic_delooping(FINAB, 2))
        assert is_fully_faithful(data.eval_dom)
        assert is_fully_faithful(data.eval_cod)

    def test_comparison_shape(self):
        b = cyclic_delooping(FINAB, 2)
        cmp = fully_faithful_comparison(identity_functor(b))
        assert cmp.dom.size == b.B1.size
        assert cmp.cod.size == 2
        assert classify_morphism(cmp).iso


class TestPartialZero:
    def test_identity_is_an_iso(self):
        b = cyclic_delooping(FINAB, 3)
        zero = partial_zero(identity_functor(b))
        assert classify_morphism(zero.morphism).iso
        assert zero.faithful and zero.full

    def test_legs_recover_the_data(self):
        fun = mod2_collapse()
        zero = partial_zero(fun)
        assert compose(zero.morphism, zero.to_dom) == fun.dom.d
        assert compose(zero.morphism, zero.to_arrow) == fun.F1
        assert compose(zero.morphism, zero.to_cod) == fun.dom.c

    def test_loop_collapse_is_not_faithful(self):
        # both loops land on the same endpoint-image triple
        b = cyclic_delooping(FINAB, 2)
        fun = functor(b, b, lambda o: 0, lambda x: 0)
        zero = partial_zero(fun)
        assert not zero.faithful
        assert not zero.full

    def test_zero_to_the_point_is_full_not_faithful(self):
        b = cyclic_delooping(FINAB, 2)
        fun = zero_functor(b, zero_groupoid(FINAB))
        zero = partial_zero(fun)
        assert zero.full and not zero.faithful
        flags = FunctorClassification(fun).flags
        assert flags["full"] and not flags["faithful"]

    def test_discrete_collapse_is_faithful_not_full(self):
        d2 = discrete_groupoid(finset_object(["p", "q"]))
        b = cyclic_delooping(FINSET, 2)
        fun = functor(d2, b, lambda o: "*", lambda x: 0)
        zero = partial_zero(fun)
        assert zero.faithful and not zero.full


class TestEquivalenceNotions:
    def test_identity_is_an_equivalence(self):
        b = cyclic_delooping(FINAB, 2)
        assert is_equivalence(identity_functor(b))
        assert is_weak_equivalence(identity_functor(b))

    def test_discrete_embedding_sees_every_object(self):
        fun = discrete_embedding(cyclic_delooping(FINAB, 2))
        assert FunctorClassification(fun).essential.regular_epi
        assert not is_weak_equivalence(fun)

    def test_square_evaluation_is_an_equivalence(self):
        data = arrow_groupoid(cyclic_delooping(FINAB, 2))
        assert is_equivalence(data.eval_dom)
        assert is_equivalence(data.eval_cod)

    def test_witness_reaches_objects_through_image_arrows(self):
        fun = discrete_embedding(cyclic_delooping(FINAB, 2))
        w = FunctorClassification(fun).reach("d")
        assert classify_morphism(w).regular_epi

    def test_fibration_comparison_tracks_the_label(self):
        # lifting exists unsplit: the comparison is weak but not strong
        t = comparison_T(mod2_collapse())
        assert is_weak_equivalence(t)
        assert not is_equivalence(t)
        assert not is_weak_equivalence(comparison_T(doubling()))

    def test_star_comparison_tracks_the_label(self):
        j = comparison_J(mod2_collapse())
        assert is_weak_equivalence(j)
        assert not is_equivalence(j)

    def test_weak_equivalence_without_an_additive_inverse(self):
        # the graph groupoid of Z2 -> Z4 has two components, the cosets of
        # {0, 2}, and no nontrivial loop, so collapsing each component to
        # its coset is fully faithful and essentially surjective; an
        # inverse would need an additive section Z2 -> Z4 of the mod-2 map
        g = graph_groupoid()
        assert g.B1.size == 8
        target = discrete_groupoid(zmod(2))
        fun = functor(g, target, lambda a: a % 2, lambda x: x[0] % 2)
        assert fun.F1 == compose(g.d, fun.F0, target.e)
        assert classify_equivalence(fun) == {
            "fully_faithful": True, "essentially_surjective": True,
            "weak_equivalence": True, "equivalence": False}
        assert classify_fibration(fun) == "split_epi_fibration"


class TestClassificationReport:
    def test_mod2_flags_frozen(self):
        rep = classification_report(mod2_collapse())
        assert rep.flags == {
            "faithful": False,
            "full": True,
            "fully_faithful": False,
            "essentially_surjective": True,
            "weak_equivalence": False,
            "equivalence": False,
            "fibration": True,
            "split_epi_fibration": False,
            "discrete_fibration": False,
            "star_fibration": True,
            "split_epi_star_fibration": False,
        }

    def test_payload_is_json_ready(self):
        rep = classification_report(mod2_collapse())
        payload = rep.payload()
        assert sorted(payload) == ["flags", "witness_sizes"]
        assert sorted(payload["witness_sizes"]) == [
            "J0", "J1", "T0", "T1", "essential_surjectivity",
            "hat_tau_c", "hat_tau_d", "partial_zero", "tau_c", "tau_d"]
        json.dumps(payload)

    @staticmethod
    def count_pullbacks(monkeypatch):
        calls = []
        build = classify.pullback
        monkeypatch.setattr(classify, "pullback",
                            lambda f, g: calls.append(None) or build(f, g))
        return calls

    def test_each_measurement_is_built_once(self, monkeypatch):
        # tau and the reachable-objects map of one side share its endpoint
        # pullback: two of those, the partial zero's, and the two hat taus
        calls = self.count_pullbacks(monkeypatch)
        classification_report(mod2_collapse())
        assert len(calls) == 5

    def test_equivalence_builds_three_pullbacks(self, monkeypatch):
        calls = self.count_pullbacks(monkeypatch)
        classify_equivalence(mod2_collapse())
        assert len(calls) == 3

    def test_unpointed_report_skips_star_entries(self):
        perm = morphism_from_function(finset_object([0, 1, 2]),
                                      finset_object([0, 1, 2]),
                                      lambda x: (x + 1) % 3)
        rep = classification_report(identity_functor(action_groupoid(perm)))
        assert "star_fibration" not in rep.flags
        assert "J0" not in rep.payload()["witness_sizes"]
        assert rep.flags["equivalence"]
        assert rep.flags["discrete_fibration"]


class TestCrossChecks:
    """Each cross-check raises when its two routes disagree."""

    @staticmethod
    def flip_second_call(monkeypatch):
        # the second classify_morphism call, the c side, sees no surjection
        calls = []

        def flipped(f):
            calls.append(f)
            if len(calls) == 2:
                return MorphismFlags(mono=False, regular_epi=False, iso=False,
                                     morphism=f)
            return classify_morphism(f)
        monkeypatch.setattr(classify, "classify_morphism", flipped)

    def test_star_inversion_square(self):
        fun = gen_functor(FINPTDSET, 1)
        a = fun.dom
        broken = InternalGroupoid(a.B0, a.B1, a.d, a.c, a.e, a.m,
                                  identity(a.B1))
        with pytest.raises(classify.SideDivergenceError,
                           match="star inversion square does not commute"):
            classify_star_fibration(
                InternalFunctor(broken, fun.cod, fun.F0, fun.F1))

    def test_fibration_sides(self, monkeypatch):
        self.flip_second_call(monkeypatch)
        with pytest.raises(classify.SideDivergenceError,
                           match="fibration sides disagree: "
                                 "discrete_fibration vs not_fibration"):
            classify_fibration(identity_functor(cyclic_delooping(FINAB, 2)))

    def test_essential_surjectivity_sides(self, monkeypatch):
        self.flip_second_call(monkeypatch)
        with pytest.raises(classify.SideDivergenceError,
                           match="essential surjectivity sides disagree"):
            FunctorClassification(
                identity_functor(cyclic_delooping(FINAB, 2))).essential

    def test_fully_faithful_routes(self, monkeypatch):
        # the source map of Z2's delooping is no iso, the comparison is
        monkeypatch.setattr(classify, "fully_faithful_comparison",
                            lambda fun: fun.dom.d)
        with pytest.raises(classify.SideDivergenceError,
                           match="fully-faithful routes disagree"):
            is_fully_faithful(identity_functor(cyclic_delooping(FINAB, 2)))
