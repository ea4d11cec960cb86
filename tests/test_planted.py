"""Every suite can fail: a table of planted defects.

Each row replaces one library function, in the module whose name the
suites read, with a broken copy, and names the suite–instance runs that
must then miss their expectation.  Every suite runs at its default count
and seed 0, as ``groupoid-lab verify`` does.  The defects are planted with
``monkeypatch`` only, so the library carries no mutation hook.
"""

from dataclasses import dataclass, field

import pytest

from groupoid_lab import groupoid, harness
from groupoid_lab.arrow import ArrowMorphism
from groupoid_lab.base import (
    BaseMorphism,
    _quotient,
    _tuple_limit,
    parse_instance,
)
from groupoid_lab.classify import classify_fibration


def _reports():
    """Every (suite, instance) run's report, keyed by the run."""
    return {(name, instance): harness.run_suite(
                name, parse_instance(instance), None, 0)
            for name, spec in harness.SUITES.items()
            for instance in spec.instances}


def _missed(reports):
    """The runs that miss their registered expectation."""
    return {run for run, report in reports.items()
            if not report.expectation_met}


def _relabel(old, new):
    """Wrap a labelling function so that it reports ``new`` for ``old``."""
    def plant(real):
        def planted(fun):
            label = real(fun)
            return new if label == old else label
        return planted
    return plant


def _fibre_flags_over_the_image(real):
    """``_fibre_flags`` with the pullback counted only over x0 in the image
    of a, so an empty a-fibre whose b-fibre is not empty goes unseen."""
    def planted(m):
        image = len(set(zip(m.dom.a.map, m.f.map)))
        b_fibre = [0] * m.cod.bottom.size
        for x0 in m.cod.a.map:
            b_fibre[x0] += 1
        apex = sum(b_fibre[m.f0.map[x0]] for x0 in set(m.dom.a.map))
        return image == len(m.f.map), image == apex
    return planted


def _merging_nothing(real):
    """A coequalizer that quotients by equality, so pi0 keeps every object."""
    return lambda d, c, e: _quotient(d.cod, ())


def _forgetting_the_unit_law(real):
    return lambda g: [axiom for axiom in real(g) if axiom != "unit-law"]


def _last_to_first(real):
    """``partial_zero_arr`` with its last element sent to the first one's
    image wherever the image has two points or more.  The broken map is
    built trusted, so that no check raises on it and stops the run."""
    def planted(m):
        f = real(m)
        if len(set(f.map)) < 2:
            return f
        table = list(f.map)
        table[-1] = table[0]
        return BaseMorphism(f.dom, f.cod, table, _trusted=True)
    return planted


def _last_pair_twice(real):
    """``product`` with its last index pair listed twice, so two apex
    elements have the same legs, and a cone into it can factor twice."""
    def planted(a, b):
        pairs = [(i, j) for i in range(a.size) for j in range(b.size)]
        return _tuple_limit(("p1", "p2"), [a, b], pairs + pairs[-1:])
    return planted


def _zero_bottom(real):
    """``kernel_preservation_comparison`` with its bottom map sent to zero,
    built trusted so that the square is not checked and nothing raises."""
    def planted(incl, square, ker):
        cmp = real(incl, square, ker)
        zero = BaseMorphism(cmp.f0.dom, cmp.f0.cod,
                            [cmp.f0.cod.zero] * cmp.f0.dom.size, _trusted=True)
        return ArrowMorphism(cmp.dom, cmp.cod, cmp.f, zero, _trusted=True)
    return planted


def _star_only_with_fibration(real):
    def planted(fun):
        if classify_fibration(fun) == "not_fibration":
            return "not_star"
        return real(fun)
    return planted


def _no_square_fibration(real):
    return lambda m: {**real(m), "fibration": False}


def _equivalence_is_weak(real):
    def planted(fun):
        flags = dict(real(fun))
        flags["equivalence"] = flags["weak_equivalence"]
        return flags
    return planted


@dataclass(frozen=True)
class Planted:
    """One defect: ``module.name`` replaced by ``plant(original)``.

    ``missed`` is the set of runs that must then miss their expectation,
    or None where no suite reports the defect yet.  ``failures`` maps some
    runs to the number of failures their reports must then hold.
    """

    module: object
    name: str
    plant: object
    missed: frozenset | None
    failures: dict = field(default_factory=dict)


_BOTH_POINTED = ("finptdset", "finab")

PLANTED = {
    "split-fibration-reported-plain": Planted(
        harness, "classify_fibration",
        _relabel("split_epi_fibration", "fibration"),
        frozenset({("prop-fibration-T", i)
                   for i in ("finset", "finptdset", "finab")}
                  | {(suite, i) for i in _BOTH_POINTED
                     for suite in ("prop-star-fibration-J",
                                   "cor-weak-equivalence-J",
                                   "fibration-implies-star")})),
    "split-star-reported-plain": Planted(
        harness, "classify_star_fibration",
        _relabel("split_epi_star_fibration", "star_fibration"),
        frozenset({(suite, i) for i in _BOTH_POINTED
                   for suite in ("prop-star-fibration-J",
                                 "fibration-implies-star")})),
    # the sweep's FinPtdSet witnesses all fail essential surjectivity
    # of J; with that test always passing none is found
    "every-square-essentially-surjective": Planted(
        harness, "is_essentially_surjective_arr", lambda real: lambda m: True,
        frozenset({("protomodularity-char", "finptdset")}),
        {("protomodularity-char", "finptdset"): 0}),
    # the short count can only call a square full that is not, and J is
    # always fully faithful, so J's flags never move: the protomodularity
    # sweep still meets its expectation on both instances and relies on
    # kernels-strong-arr's cross-check against the endpoint pullback to
    # catch a broken _fibre_flags
    "fibre-count-skips-empty-fibres": Planted(
        harness, "_fibre_flags", _fibre_flags_over_the_image,
        frozenset({("kernels-strong-arr", i) for i in _BOTH_POINTED}),
        {("kernels-strong-arr", "finptdset"): 13,
         ("kernels-strong-arr", "finab"): 11}),
    # pi0 is the coequalizer's one reader: merging nothing, it counts
    # objects, not components, and a weak equivalence may change that count
    "coequalizer-merges-nothing": Planted(
        groupoid, "reflexive_coequalizer", _merging_nothing,
        frozenset({("pi-invariance", i)
                   for i in ("finset", "finptdset", "finab")}),
        {("pi-invariance", "finset"): 8, ("pi-invariance", "finptdset"): 7,
         ("pi-invariance", "finab"): 7}),
    # every h-kernel projection and every generated discrete leg is then
    # split, so the two suites that expect a discrete label fail on each
    # case; the split label also claims equivalences that T and J lack
    "discrete-fibration-reported-split": Planted(
        harness, "classify_fibration",
        _relabel("discrete_fibration", "split_epi_fibration"),
        frozenset({("prop-fibration-T", i)
                   for i in ("finset", "finptdset", "finab")}
                  | {("pullback-discrete-fibration-transfer", i)
                     for i in ("finset", "finptdset", "finab")}
                  | {(suite, i) for i in _BOTH_POINTED
                     for suite in ("hkernel-discrete-fibration",
                                   "prop-star-fibration-J",
                                   "cor-weak-equivalence-J",
                                   "fibration-implies-star")}),
        {("hkernel-discrete-fibration", "finptdset"): 50,
         ("hkernel-discrete-fibration", "finab"): 50,
         ("pullback-discrete-fibration-transfer", "finset"): 50,
         ("pullback-discrete-fibration-transfer", "finptdset"): 50,
         ("pullback-discrete-fibration-transfer", "finab"): 50}),
    # at seed 0 only one case, on finset, draws a corruption whose
    # expected axiom is the unit law
    "unit-law-unreported": Planted(
        harness, "validate_groupoid", _forgetting_the_unit_law,
        frozenset({("axioms", "finset")}),
        {("axioms", "finset"): 1}),
    "partial-zero-merges-the-last-element": Planted(
        harness, "partial_zero_arr", _last_to_first,
        frozenset({(suite, i) for i in _BOTH_POINTED
                   for suite in ("ff-normalization-pullback",
                                 "kernel-pullback-rows",
                                 "kernels-strong-arr")}),
        {("ff-normalization-pullback", "finptdset"): 25,
         ("ff-normalization-pullback", "finab"): 25,
         ("kernel-pullback-rows", "finptdset"): 21,
         ("kernel-pullback-rows", "finab"): 17,
         ("kernels-strong-arr", "finptdset"): 39,
         ("kernels-strong-arr", "finab"): 35}),
    "product-lists-a-pair-twice": Planted(
        harness, "product", _last_pair_twice,
        frozenset({("mediator-uniqueness", i)
                   for i in ("finset", "finptdset", "finab")}),
        {("mediator-uniqueness", "finset"): 15,
         ("mediator-uniqueness", "finptdset"): 9,
         ("mediator-uniqueness", "finab"): 11}),
    "kernel-comparison-bottom-is-zero": Planted(
        harness, "kernel_preservation_comparison", _zero_bottom,
        frozenset({("normalization-preserves-kernels", i)
                   for i in _BOTH_POINTED}),
        {("normalization-preserves-kernels", "finptdset"): 8,
         ("normalization-preserves-kernels", "finab"): 12}),
    # the search then finds no witness, and every star-fibration drawn
    # that is not a fibration disagrees with J
    "star-only-with-a-fibration": Planted(
        harness, "classify_star_fibration", _star_only_with_fibration,
        frozenset({("star-not-fibration-search", "finab")}
                  | {("prop-star-fibration-J", i) for i in _BOTH_POINTED}),
        {("star-not-fibration-search", "finab"): 0,
         ("prop-star-fibration-J", "finptdset"): 4,
         ("prop-star-fibration-J", "finab"): 2}),
    "no-square-fibration": Planted(
        harness, "classify_arrow_morphism", _no_square_fibration,
        frozenset({("normalization-transfer", i) for i in _BOTH_POINTED}),
        {("normalization-transfer", "finptdset"): 42,
         ("normalization-transfer", "finab"): 42}),
    # the generators almost never draw a fibration or a star-fibration
    # that is not split, where an equivalence and a weak equivalence part
    "equivalence-reported-as-weak": Planted(
        harness, "classify_equivalence", _equivalence_is_weak, None),
}


def test_every_suite_meets_its_expectation_with_nothing_planted():
    reports = _reports()
    assert _missed(reports) == set()
    assert len(reports["protomodularity-char", "finptdset"].failures) == 3


@pytest.mark.parametrize("key", [
    pytest.param(key, marks=pytest.mark.xfail(
        strict=True, reason="no suite reports this defect yet"))
    if row.missed is None else key
    for key, row in PLANTED.items()])
def test_a_planted_defect_is_reported(monkeypatch, key):
    row = PLANTED[key]
    monkeypatch.setattr(row.module, row.name,
                        row.plant(getattr(row.module, row.name)))
    reports = _reports()
    missed = _missed(reports)
    assert missed, f"no suite reports a broken {row.name}"
    if row.missed is not None:
        assert missed == row.missed
    for run, count in row.failures.items():
        assert len(reports[run].failures) == count


def test_every_suite_misses_under_some_planted_defect():
    """Each registered suite can fail: some row names one of its runs.  The
    strict xfail row, which names none, counts for nothing."""
    covered = {name for row in PLANTED.values() if row.missed
               for name, _ in row.missed}
    assert covered == set(harness.SUITES)
