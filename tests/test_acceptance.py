"""Acceptance checks, one test per criterion.

Every check runs single threaded in well under 120 seconds and uses
exact discrete equality throughout; there are no tolerances anywhere.
Run with ``pytest tests/test_acceptance.py -v`` to get one pass or fail
line per criterion.

The twelve criteria, in order:

 1. a thousand generated structures validate; twenty deliberate
    corruptions are rejected with the promised axiom name.
 2. the fibration tiers match the strict comparison functor exactly,
    200 functors per instance, plus 50 elementwise pullback checks of
    the refinement square.
 3. the star-fibration tiers match the kernel comparison the same way
    on the pointed instances.
 4. 500 generated fibrations are star fibrations, and a bounded
    exhaustive FinAb search finds a star fibration that is not a
    fibration.
 5. strong h-kernel projections classify as discrete fibrations.
 6. normalized squares of fully faithful functors are pullbacks.
 7. weak equivalence and equivalence transfer across pullbacks along
    discrete fibrations.
 8. normalization commutes with kernels and strong h-kernels up to
    canonical isomorphism.
 9. normalization transfers each functor property in the documented
    direction, with the converse directions on FinAb only.
10. the exhaustive FinAb arrow-square sweep finds no fibration square
    with a failing kernel comparison; the FinPtdSet search finds one,
    re-verified against the joint-epi oracle on a hand-built fold
    square.
11. weak equivalences induce isomorphisms on components and loops.
12. limit mediators are unique, by exhaustive candidate enumeration.
"""

import random

from groupoid_lab.arrow import (
    ArrowMorphism,
    ArrowObject,
    comparison_J_arr,
    partial_zero_arr,
)
from groupoid_lab.base import (
    FINAB,
    FINPTDSET,
    FINSET,
    classify_morphism,
    finptdset_object,
    identity,
    jointly_strongly_epi,
    morphism_from_function,
)
from groupoid_lab.classify import (
    classify_fibration,
    classify_star_fibration,
    star_at_least,
)
from groupoid_lab.groupoid import (
    validate_functor,
    validate_groupoid,
    validate_transformation,
)
from groupoid_lab.generators import (
    corrupt_functor,
    corrupt_groupoid,
    corrupt_transformation,
    gen_functor,
    gen_groupoid,
    gen_transformation,
)
from groupoid_lab.harness import run_suite
from groupoid_lab.serialize import value_from_data

ALL_INSTANCES = (FINSET, FINPTDSET, FINAB)
POINTED = (FINPTDSET, FINAB)
SEED = 42


def run_green(name, instance, cases):
    """Run one suite and require a clean pass."""
    report = run_suite(name, instance, cases, SEED)
    assert report.failures == [], (name, instance.name, report.failures[:2])
    assert report.expectation_met
    return report


def test_criterion_01_axioms_and_corruption():
    validated = 0
    for instance in ALL_INSTANCES:
        for k in range(112):
            assert validate_groupoid(gen_groupoid(instance, k)) == []
            assert validate_functor(gen_functor(instance, k)) == []
            assert validate_transformation(
                gen_transformation(instance, k)) == []
            validated += 3
    assert validated >= 1000

    corrupters = (
        (gen_groupoid, corrupt_groupoid, validate_groupoid),
        (gen_functor, corrupt_functor, validate_functor),
        (gen_transformation, corrupt_transformation, validate_transformation),
    )
    rejected = 0
    attempt = 0
    while rejected < 20:
        assert attempt < 300, "corruption helpers stopped applying"
        instance = ALL_INSTANCES[attempt % 3]
        generate, corrupt, validate = corrupters[(attempt // 3) % 3]
        value = generate(instance, 5000 + attempt)
        out = corrupt(value, random.Random(f"acceptance:{attempt}"))
        attempt += 1
        if out is None:
            continue
        bad, expected = out
        assert expected in validate(bad), (instance.name, expected)
        rejected += 1
    print(f"criterion 01 PASS: {validated} structures validated, "
          f"{rejected} corruptions rejected by name")


def test_criterion_02_fibration_iff_strict_comparison():
    total = 0
    for instance in ALL_INSTANCES:
        total += run_green("prop-fibration-T", instance, 200).cases
    print(f"criterion 02 PASS: {total} functors, tiers match the strict "
          f"comparison, refinement square verified on every fourth case")


def test_criterion_03_star_iff_kernel_comparison():
    total = 0
    for instance in POINTED:
        total += run_green("prop-star-fibration-J", instance, 200).cases
    print(f"criterion 03 PASS: {total} pointed functors, star tiers match "
          f"the kernel comparison")


def test_criterion_04_fibrations_are_star_fibrations():
    total = 0
    for instance in POINTED:
        total += run_green("fibration-implies-star", instance, 250).cases
    assert total >= 500

    report = run_suite("star-not-fibration-search", FINAB, 2000, SEED)
    assert report.expectation_met
    assert report.failures
    fun = value_from_data(report.failures[0]["witness"]["functor"])
    assert classify_fibration(fun) == "not_fibration"
    assert star_at_least(classify_star_fibration(fun), "star_fibration")
    print(f"criterion 04 PASS: {total} fibrations are star fibrations; "
          f"search found {len(report.failures)} star-not-fibration "
          f"witnesses in {report.cases} functors")


def test_criterion_05_h_kernel_projections_are_discrete_fibrations():
    total = 0
    for instance in POINTED:
        total += run_green("hkernel-discrete-fibration", instance, 200).cases
    print(f"criterion 05 PASS: {total} strong h-kernel projections "
          f"classify as discrete fibrations")


def test_criterion_06_fully_faithful_normalization_is_a_pullback():
    total = 0
    for instance in POINTED:
        total += run_green("ff-normalization-pullback", instance, 150).cases
    print(f"criterion 06 PASS: {total} fully faithful functors have "
          f"pullback normalization squares")


def test_criterion_07_transfer_along_discrete_fibrations():
    total = 0
    for instance in ALL_INSTANCES:
        total += run_green("pullback-discrete-fibration-transfer",
                           instance, 100).cases
    print(f"criterion 07 PASS: {total} pullbacks along discrete fibrations "
          f"transfer weak equivalence and equivalence")


def test_criterion_08_normalization_preserves_kernels():
    total = 0
    for instance in POINTED:
        total += run_green("normalization-preserves-kernels",
                           instance, 200).cases
    print(f"criterion 08 PASS: {total} functors, normalization commutes "
          f"with kernels and strong h-kernels up to canonical iso")


def test_criterion_09_normalization_transfers_properties():
    total = 0
    for instance in POINTED:
        total += run_green("normalization-transfer", instance, 200).cases
    print(f"criterion 09 PASS: {total} functors, every property item "
          f"transfers in its documented direction")


def test_criterion_10_protomodularity_characterization():
    sweep = run_green("protomodularity-char", FINAB, 25000)
    assert sweep.cases == 20796, "the FinAb square space changed size"

    search = run_suite("protomodularity-char", FINPTDSET, 100, SEED)
    assert search.expectation_met
    assert search.failures

    x2 = finptdset_object(["*", "x1"])
    pt = finptdset_object(["*"])
    fold = morphism_from_function(x2, pt, lambda v: "*")
    square = ArrowMorphism(ArrowObject(identity(x2)), ArrowObject(fold),
                           identity(x2), fold)
    assert classify_morphism(square.f).regular_epi
    j = comparison_J_arr(square)
    assert classify_morphism(partial_zero_arr(j)).iso
    assert not jointly_strongly_epi([j.f0, j.cod.a])
    print(f"criterion 10 PASS: exhaustive FinAb sweep of {sweep.cases} "
          f"fibration squares is clean; FinPtdSet search found "
          f"{len(search.failures)} witnesses and the fold square fails "
          f"the joint-epi oracle")


def test_criterion_11_pi_invariance():
    total = 0
    for instance in ALL_INSTANCES:
        total += run_green("pi-invariance", instance, 100).cases
    print(f"criterion 11 PASS: {total} weak equivalences induce "
          f"isomorphisms on components and loops")


def test_criterion_12_mediator_uniqueness():
    total = 0
    for instance in ALL_INSTANCES:
        total += run_green("mediator-uniqueness", instance, 100).cases
    print(f"criterion 12 PASS: {total} limit configurations have unique "
          f"mediators under exhaustive candidate enumeration")
