"""Tests for the generator and suite harness.

Frozen facts, each re-derivable by rerunning the generators:

- gen_fibration over FinAb seeds 0..119 realizes all three fibration
  tiers; over the set-based instances it never produces a bare
  "fibration", because their fibrations always split.
- the star-not-fibration search on FinAb collects its three witnesses
  within 150 examined functors.
- the protomodularity sweep on FinPtdSet finds witnesses within its
  first 80 fibration squares; the same sweep on FinAb is clean.
- each corruption helper applies to well over half of the generated
  cases, and on every applicable case the validator reports exactly
  the axiom the helper promised.
- at seed 42 and their default bounds, the two searches examine 94
  (star-not-fibration, FinAb) and 53 (protomodularity, FinPtdSet)
  candidates and report three witnesses each, recorded byte for byte in
  data/verify-seed42.json.
"""

import hashlib
import inspect
import itertools
import json
import random

import pytest

from groupoid_lab.arrow import (
    ArrowMorphism,
    ArrowObject,
    comparison_J_arr,
    is_essentially_surjective_arr,
    partial_zero_arr,
)
from groupoid_lab import (arrow, base, catalog, classify, generators, harness,
                          holim)
from groupoid_lab.base import (
    FINAB,
    FINPTDSET,
    FINSET,
    BaseMorphism,
    DiagramError,
    classify_morphism,
    enumerate_morphisms,
    finptdset_object,
)
from groupoid_lab.classify import (
    classify_fibration,
    classify_star_fibration,
    fibration_at_least,
    star_at_least,
)
from groupoid_lab.groupoid import (
    validate_functor,
    validate_groupoid,
    validate_transformation,
)
from groupoid_lab.generators import (
    _random_groupoid,
    corrupt_functor,
    corrupt_groupoid,
    corrupt_transformation,
    gen_fibration,
    gen_functor,
    gen_groupoid,
    gen_transformation,
)
from groupoid_lab.harness import SUITES, run_suite, suite_names
from groupoid_lab.serialize import value_from_data, value_to_data

ALL_INSTANCES = (FINSET, FINPTDSET, FINAB)
BY_NAME = {inst.name: inst for inst in ALL_INSTANCES}


def canonical_json(report):
    return json.dumps(report.payload(), sort_keys=True)


class TestGenerators:
    def test_generated_groupoids_validate(self):
        for inst in ALL_INSTANCES:
            for seed in range(40):
                g = gen_groupoid(inst, seed)
                assert validate_groupoid(g) == []

    def test_generated_functors_validate(self):
        for inst in ALL_INSTANCES:
            for seed in range(25):
                fun = gen_functor(inst, seed)
                assert validate_functor(fun) == []

    def test_generated_transformations_validate(self):
        for inst in ALL_INSTANCES:
            for seed in range(25):
                cell = gen_transformation(inst, seed)
                assert validate_transformation(cell) == []

    def test_size_budget_bounds_both_carriers(self):
        for inst in ALL_INSTANCES:
            default = 16 if inst is FINAB else 8
            for seed in range(40):
                g = gen_groupoid(inst, seed)
                assert max(g.B0.size, g.B1.size) <= default
                small = _random_groupoid(
                    inst, random.Random(f"{inst.name}:{seed}"), 5)
                assert max(small.B0.size, small.B1.size) <= 5

    def test_same_seed_reproduces_the_structure(self):
        for inst in ALL_INSTANCES:
            for seed in (0, 7, 31):
                first = value_to_data(gen_groupoid(inst, seed))
                second = value_to_data(gen_groupoid(inst, seed))
                assert first == second
                f1 = value_to_data(gen_functor(inst, seed))
                f2 = value_to_data(gen_functor(inst, seed))
                assert f1 == f2

    def test_seeds_reach_different_shapes(self):
        for inst in ALL_INSTANCES:
            shapes = {(gen_groupoid(inst, s).B0.size,
                       gen_groupoid(inst, s).B1.size) for s in range(40)}
            assert len(shapes) >= 5

    def test_fibration_floor_never_exceeds_the_classifier(self):
        for inst in ALL_INSTANCES:
            for seed in range(30):
                fun = gen_fibration(inst, seed)
                assert fibration_at_least(classify_fibration(fun),
                                          "fibration")

    def test_finab_realizes_every_fibration_tier(self):
        labels = {classify_fibration(gen_fibration(FINAB, s))
                  for s in range(120)}
        assert labels == {"fibration", "split_epi_fibration",
                          "discrete_fibration"}

    def test_set_based_fibrations_always_split(self):
        for inst in (FINSET, FINPTDSET):
            for seed in range(60):
                label = classify_fibration(gen_fibration(inst, seed))
                assert fibration_at_least(label, "split_epi_fibration")


class TestCorruptions:
    def test_corrupted_groupoids_fail_on_the_named_axiom(self):
        applied = 0
        for inst in ALL_INSTANCES:
            for seed in range(30):
                g = gen_groupoid(inst, seed)
                out = corrupt_groupoid(g, random.Random(f"cg:{seed}"))
                if out is None:
                    continue
                applied += 1
                bad, expected = out
                assert expected in validate_groupoid(bad)
        assert applied >= 45

    def test_corrupted_functors_fail_on_the_named_axiom(self):
        applied = 0
        for inst in ALL_INSTANCES:
            for seed in range(30):
                fun = gen_functor(inst, seed)
                out = corrupt_functor(fun, random.Random(f"cf:{seed}"))
                if out is None:
                    continue
                applied += 1
                bad, expected = out
                assert expected in validate_functor(bad)
        assert applied >= 45

    def test_corrupted_transformations_fail_on_the_named_axiom(self):
        applied = 0
        for inst in ALL_INSTANCES:
            for seed in range(30):
                cell = gen_transformation(inst, seed)
                out = corrupt_transformation(cell,
                                             random.Random(f"ct:{seed}"))
                if out is None:
                    continue
                applied += 1
                bad, expected = out
                assert expected in validate_transformation(bad)
        assert applied >= 45


class TestRunSuite:
    def test_unknown_suite_is_rejected(self):
        with pytest.raises(DiagramError):
            run_suite("no-such-suite", FINSET, 5, 0)

    def test_zero_cases_are_rejected(self):
        with pytest.raises(DiagramError):
            run_suite("axioms", FINSET, 0, 0)

    @pytest.mark.parametrize("name", ["pi-invariance",
                                      "star-not-fibration-search"])
    @pytest.mark.parametrize("count", [True, 2.0, "3"])
    def test_a_count_that_is_not_an_int_is_rejected(self, name, count):
        # a bool would be written to the report as "cases": true
        with pytest.raises(DiagramError):
            run_suite(name, FINAB, count, 0)

    def test_inapplicable_instance_yields_an_empty_met_report(self):
        report = run_suite("star-not-fibration-search", FINSET, 50, 0)
        assert report.cases == 0
        assert report.failures == []
        assert report.expectation_met

    def test_payload_shape_and_canonical_time(self):
        report = run_suite("axioms", FINSET, 5, 11)
        payload = report.payload()
        assert set(payload) == {"suite", "instance", "seed", "cases",
                                "failures", "elapsed_ms"}
        assert payload["suite"] == "axioms"
        assert payload["instance"] == "finset"
        assert payload["seed"] == 11

    def test_payload_takes_no_option_and_writes_zero_time(self):
        report = run_suite("axioms", FINSET, 5, 11)
        assert not inspect.signature(report.payload).parameters
        assert report.payload()["elapsed_ms"] == 0
        assert not hasattr(report, "elapsed_ms")

    def test_reports_are_deterministic_under_a_fixed_seed(self):
        for name, inst in (("axioms", FINAB),
                           ("prop-fibration-T", FINSET),
                           ("mediator-uniqueness", FINPTDSET)):
            first = canonical_json(run_suite(name, inst, 6, 17))
            second = canonical_json(run_suite(name, inst, 6, 17))
            assert first == second

    def test_registry_names_and_instances(self):
        names = suite_names()
        assert len(names) == len(set(names)) == 16
        assert "axioms" in names
        for name in names:
            instances = SUITES[name].instances
            assert instances
            assert set(instances) <= set(BY_NAME)
        assert "finab" in SUITES["star-not-fibration-search"].witness_instances
        assert "finptdset" in SUITES["protomodularity-char"].witness_instances
        assert "finab" not in SUITES["protomodularity-char"].witness_instances
        assert "finset" not in SUITES["axioms"].witness_instances

    @pytest.mark.parametrize("instance", [FINPTDSET, FINAB],
                             ids=["finptdset", "finab"])
    def test_normalization_transfer_reads_one_record(self, monkeypatch,
                                                     instance):
        # one record per case: the d and c endpoint pullbacks and the
        # partial zero's second pullback, 3 a case
        calls = []
        monkeypatch.setattr(classify, "pullback", lambda f, g: (
            calls.append(f), base.pullback(f, g))[1])
        report = run_suite("normalization-transfer", instance, 10, 0)
        assert report.failures == []
        assert len(calls) == 30

    def test_registry_holds_the_default_bounds(self):
        bounds = {name: spec.default_cases for name, spec in SUITES.items()}
        assert bounds.pop("star-not-fibration-search") == 200
        assert bounds.pop("protomodularity-char") == 100
        assert set(bounds.values()) == {50}

    def test_a_failing_check_reports_one_witness_per_case(self, monkeypatch):
        # Every generated functor now reads as no weak equivalence, so each
        # case fails on its first check and returns before the pi0 check.
        monkeypatch.setattr(harness, "is_weak_equivalence", lambda fun: False)
        monkeypatch.setattr(harness, "pi0_induced", lambda fun: pytest.fail(
            "a failed case went on to its later checks"))
        report = run_suite("pi-invariance", FINSET, 6, 5)
        assert report.cases == 6
        assert [f["case"] for f in report.failures] == list(range(6))
        for k, failure in enumerate(report.failures):
            assert failure["reason"] == ("generator produced a "
                                         "non-weak-equivalence")
            rng = random.Random(f"finset:pi-invariance:5:{k}")
            expected = generators._random_weak_equivalence(FINSET, rng)
            assert failure["witness"]["functor"] == value_to_data(expected)
        assert not report.expectation_met


class TestTheoremSuites:
    def test_every_theorem_suite_passes_at_small_scale(self):
        for name, spec in SUITES.items():
            for instance_name in spec.instances:
                if instance_name in spec.witness_instances:
                    continue
                report = run_suite(name, BY_NAME[instance_name], 4, 3)
                assert report.failures == [], (name, instance_name,
                                               report.failures)
                assert report.expectation_met

    @pytest.mark.parametrize("instance", [FINPTDSET, FINAB],
                             ids=lambda i: i.name)
    def test_normalization_preserves_kernels_builds_each_kernel_once(
            self, instance, monkeypatch):
        built = []

        def counted(fun):
            built.append(fun)
            return holim.kernel_groupoid(fun)

        for module in (harness, arrow):
            monkeypatch.setattr(module, "kernel_groupoid", counted,
                                raising=False)
        report = run_suite("normalization-preserves-kernels", instance, 10, 0)
        assert report.failures == [] and len(built) == 10

    @pytest.mark.parametrize("instance", [FINPTDSET, FINAB],
                             ids=lambda i: i.name)
    def test_normalization_preserves_kernels_builds_each_kernel_square_once(
            self, instance, monkeypatch):
        built, kernel_arr = [], arrow.kernel_arr

        def counted(square):
            built.append(square)
            return kernel_arr(square)

        for module in (harness, arrow):
            monkeypatch.setattr(module, "kernel_arr", counted)
        report = run_suite("normalization-preserves-kernels", instance, 10, 0)
        assert report.failures == [] and len(built) == 10

    @pytest.mark.parametrize("instance", ALL_INSTANCES, ids=lambda i: i.name)
    def test_refinement_square_reads_squares_by_index(self, instance,
                                                      monkeypatch):
        # the degenerate squares are mediated into the square groupoid, so
        # no carrier of squares or of composable pairs is listed
        data = [(fun, holim.comparison_T_data(fun))
                for fun in (gen_functor(instance, k) for k in range(8))]
        builds = []
        elements = base._tuple_elements
        monkeypatch.setattr(base, "_tuple_elements", lambda *args: (
            builds.append(args), elements(*args))[1])
        for fun, tdata in data:
            assert harness._refinement_square_holds(fun, tdata) == (True, "")
        assert builds == []

    def test_the_square_star_flag_is_checked_against_its_definition(
            self, monkeypatch):
        # In FinAb images that only generate the codomain are jointly
        # strongly epic; a joint-epi test that wants them to cover it gives
        # wrong star flags, which the suite's own check must catch.
        assert run_suite("kernels-strong-arr", FINAB, 50, 0).failures == []
        monkeypatch.setattr(arrow, "jointly_strongly_epi", lambda ms: len(
            {j for m in ms for j in m.map}) == ms[0].cod.size)
        report = run_suite("kernels-strong-arr", FINAB, 50, 0)
        assert [f["reason"] for f in report.failures] == [
            "star flag disagrees with the joint-epi oracle"] * 2

    def test_witness_suites_are_unmet_when_the_bound_is_tiny(self):
        report = run_suite("star-not-fibration-search", FINAB, 5, 0)
        assert report.failures == []
        assert not report.expectation_met


class TestWitnessSearches:
    def test_star_search_witnesses_check_out_independently(self):
        report = run_suite("star-not-fibration-search", FINAB, 150, 0)
        assert report.expectation_met
        assert len(report.failures) == 3
        for failure in report.failures:
            fun = value_from_data(failure["witness"]["functor"])
            assert validate_functor(fun) == []
            assert classify_fibration(fun) == "not_fibration"
            assert star_at_least(classify_star_fibration(fun),
                                 "star_fibration")

    def test_protomodularity_witnesses_check_out_independently(self):
        report = run_suite("protomodularity-char", FINPTDSET, 80, 0)
        assert report.expectation_met
        assert report.failures
        for failure in report.failures:
            square = value_from_data(failure["witness"]["square"])
            assert classify_morphism(square.f).regular_epi
            j = comparison_J_arr(square)
            weak = (classify_morphism(partial_zero_arr(j)).iso
                    and is_essentially_surjective_arr(j))
            assert not weak

    def test_protomodularity_witnesses_are_minimized(self):
        report = run_suite("protomodularity-char", FINPTDSET, 80, 0)
        square = value_from_data(report.failures[0]["witness"]["square"])
        sizes = (square.dom.top.size, square.dom.bottom.size,
                 square.cod.top.size, square.cod.bottom.size)
        assert max(sizes) <= 2

    def test_protomodularity_sweep_is_clean_on_finab(self):
        report = run_suite("protomodularity-char", FINAB, 200, 0)
        assert report.cases == 200
        assert report.failures == []
        assert report.expectation_met

    def test_protomodularity_sweep_runs_no_section_search(self, monkeypatch):
        # The sweep reads only regular_epi and iso, so the exhaustive
        # additive-section search behind split_epi must never run.
        calls = []
        search = base.additive_section
        monkeypatch.setattr(base, "additive_section",
                            lambda f: calls.append(f) or search(f))
        report = run_suite("protomodularity-char", FINAB, 200, 0)
        assert (report.cases, report.failures) == (200, [])
        assert calls == []


class TestSearchContract:
    """``run_suite`` alone bounds a suite, stops at its third witness and
    records its expectation; ``@_search`` numbers a search's cases by
    candidate.  A toy search only yields its verdicts, a toy check only
    fails."""

    @pytest.fixture
    def toy(self, monkeypatch):
        monkeypatch.setattr(harness, "SUITES", dict(SUITES))
        pulled = []

        def register(verdicts):
            def search(instance):
                for verdict in verdicts:
                    pulled.append(verdict)
                    yield verdict
            harness._search("toy-search", ("finset", "finab"), ("finab",),
                            10)(search)
            return pulled
        return register

    def test_the_bound_cuts_a_longer_catalogue(self, toy):
        pulled = toy([None] * 20)
        report = run_suite("toy-search", FINSET, 7, 0)
        assert (report.cases, report.failures) == (7, [])
        assert len(pulled) == 7

    def test_a_shorter_catalogue_is_read_to_its_end(self, toy):
        toy([None] * 4)
        assert run_suite("toy-search", FINSET, 10, 0).cases == 4

    def test_a_witness_instance_stops_at_the_third_failure(self, toy):
        toy([("bad", {"k": k}) for k in range(6)])
        report = run_suite("toy-search", FINAB, 10, 0)
        assert report.cases == 3
        assert [f["case"] for f in report.failures] == [0, 1, 2]
        assert [f["witness"] for f in report.failures] == [
            {"k": 0}, {"k": 1}, {"k": 2}]
        assert report.expectation_met

    def test_other_instances_report_every_failure_up_to_the_bound(self,
                                                                  toy):
        toy([None, ("bad", {})] * 6)
        report = run_suite("toy-search", FINSET, 9, 0)
        assert report.cases == 9
        assert [f["case"] for f in report.failures] == [1, 3, 5, 7]
        assert not report.expectation_met

    @pytest.fixture
    def toy_suite(self, monkeypatch):
        monkeypatch.setattr(harness, "SUITES", dict(SUITES))

        def register(check):
            harness._suite("toy-suite", ("finset", "finab"))(check)
        return register

    def test_no_count_runs_the_registered_bound(self, toy_suite):
        toy_suite(lambda instance, case: None)
        report = run_suite("toy-suite", FINSET, None, 0)
        assert (report.cases, report.failures) == (50, [])

    def test_a_check_reports_every_failure_under_its_case(self, toy_suite):
        def check(instance, case):
            for _ in range({1: 2, 3: 1}.get(case.k, 0)):
                case.fail("bad", k=case.k)
        toy_suite(check)
        report = run_suite("toy-suite", FINAB, 5, 0)
        assert report.cases == 5
        assert [f["case"] for f in report.failures] == [1, 1, 3]
        assert not report.expectation_met

    def test_a_report_keeps_its_expectation_without_the_registry(
            self, toy, monkeypatch):
        toy([("bad", {})] * 4)
        witness = run_suite("toy-search", FINAB, 10, 0)
        failed = run_suite("toy-search", FINSET, 2, 0)
        skipped = run_suite("toy-search", FINPTDSET, 10, 0)
        monkeypatch.setattr(harness, "SUITES", {})
        assert witness.expectation_met
        assert witness.status == "witness found (3)"
        assert not failed.expectation_met
        assert failed.status == "UNMET: 2 failures"
        assert skipped.expectation_met and skipped.status == "ok"


class TestRemoveElement:
    """Restricting a pointed square to a corner without one element."""

    def test_a_kept_element_hitting_the_dropped_one_blocks_removal(self):
        # f0 sends x to y, so y cannot leave the codomain's bottom
        top = finptdset_object(["*"])
        a0 = finptdset_object(["*", "x"])
        b0 = finptdset_object(["*", "y"])
        square = ArrowMorphism(
            ArrowObject(BaseMorphism(top, a0, [0])),
            ArrowObject(BaseMorphism(top, b0, [0])),
            BaseMorphism(top, top, [0]), BaseMorphism(a0, b0, [0, 1]))
        assert harness._remove_element(square, 3, 1) is None

    def test_the_square_over_the_smaller_corner(self):
        top = finptdset_object(["*"])
        a0 = finptdset_object(["p", "*", "q"], 1)
        b0 = finptdset_object(["*", "y"])
        square = ArrowMorphism(
            ArrowObject(BaseMorphism(top, a0, [1])),
            ArrowObject(BaseMorphism(top, b0, [0])),
            BaseMorphism(top, top, [0]), BaseMorphism(a0, b0, [1, 0, 1]))
        smaller = harness._remove_element(square, 1, 0)
        # parent order kept, the basepoint moves from 1 to 0, and the maps
        # into and out of the corner are reindexed
        a0_less = finptdset_object(["*", "q"], 0)
        assert value_to_data(smaller) == value_to_data(ArrowMorphism(
            ArrowObject(BaseMorphism(top, a0_less, [0])), square.cod,
            square.f, BaseMorphism(a0_less, b0, [0, 1])))


def _brute_force_fibration_squares(instance):
    """Every square of the sweep's catalogue whose top map is onto.

    The same catalogue, quadruples and hom loops as the sweep's stream, in
    the same order, with commutativity decided element by element.
    """
    objs = (catalog._finab_catalog(8) if instance is FINAB
            else catalog._finptdset_catalog(3))
    quads = sorted(itertools.product(objs, repeat=4),
                   key=lambda q: (sum(o.size for o in q),
                                  tuple(o.size for o in q)))
    for a, a0, b, b0 in quads:
        onto = [f for f in enumerate_morphisms(a, b)
                if set(f.map) == set(range(b.size))]
        for bot in enumerate_morphisms(b, b0):
            for top in enumerate_morphisms(a, a0):
                for f0 in enumerate_morphisms(a0, b0):
                    for f in onto:
                        if all(f0.map[top.map[x]] == bot.map[f.map[x]]
                               for x in range(a.size)):
                            yield top, f, f0, bot


def _squares_digest(squares):
    digest = hashlib.sha256()
    count = 0
    for maps in squares:
        digest.update(repr(tuple(g.map for g in maps)).encode())
        count += 1
    return count, digest.hexdigest()


class TestFibrationSquares:
    def test_finptdset_stream_is_every_fibration_square_in_order(self):
        stream = [(m.dom.a, m.f, m.f0, m.cod.a)
                  for m in catalog._fibration_squares(FINPTDSET)]
        assert stream == list(_brute_force_fibration_squares(FINPTDSET))

    def test_finab_stream_is_every_fibration_square_in_order(self):
        stream = ((m.dom.a, m.f, m.f0, m.cod.a)
                  for m in catalog._fibration_squares(FINAB))
        expected = _squares_digest(_brute_force_fibration_squares(FINAB))
        assert expected[0] == 20796
        assert _squares_digest(stream) == expected
