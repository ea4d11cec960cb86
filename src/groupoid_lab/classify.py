"""Classification of internal functors.

Every class of functor recognized here is decided by the flags of one base
morphism:

* ``tau_factorization`` measures how arrows lift along a chosen endpoint;
  its surjectivity class gives the fibration hierarchy.
* the record's ``hat_tau`` restricts that measurement to arrows ending (or
  starting) at zero, in pointed instances; it gives the star hierarchy.
* ``partial_zero`` packages domain, image arrow and codomain into a single
  three-legged map whose mono / regular-epi / iso flags decide faithful,
  full and fully faithful.
* the record's ``reach`` asks which objects of the codomain are reachable
  by an arrow from the image; its flags (``essential``) decide essential
  surjectivity.

``FunctorClassification`` is the one record of a functor's measurements:
it builds each once, on its first read.  Each public reader
(``tau_factorization``, ``classify_*``, ``partial_zero`` and ``is_*``) reads
a fresh record, and ``classification_report`` reads all of one.

Each classification exists in a "d" and a "c" flavour.  Both are always
computed and compared; a mismatch raises SideDivergenceError because the
theory promises agreement and a divergence can only be an implementation
bug.  Fully-faithfulness is likewise decided twice, through two differently
encoded limits, and cross-checked.

The classifiers assume that their functor sits on groupoids; the CLI
checks this first.  On other input they may raise or return flags: with a
domain whose inverse map is the identity, ``classify_fibration`` still
returns a label while T's strong h-pullback raises DiagramError.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, wraps

from .base import (
    BaseMorphism,
    GroupoidLabError,
    classify_morphism,
    comma,
    compose,
    kernel,
    pullback,
)
from .groupoid import InternalFunctor
from .holim import comparison_J, comparison_T

FIBRATION_LABELS = ("not_fibration", "fibration", "split_epi_fibration",
                    "discrete_fibration")
STAR_LABELS = ("not_star", "star_fibration", "split_epi_star_fibration")


class SideDivergenceError(GroupoidLabError):
    """The d-side and c-side of a classification disagree."""


def _ends(g, side: str):
    """The endpoint map of ``g`` that ``side`` names, then the other one."""
    if side not in ("d", "c"):
        raise ValueError("side must be 'd' or 'c'")
    return (g.d, g.c) if side == "d" else (g.c, g.d)


def fibration_at_least(label: str, floor: str) -> bool:
    return FIBRATION_LABELS.index(label) >= FIBRATION_LABELS.index(floor)


def star_at_least(label: str, floor: str) -> bool:
    return STAR_LABELS.index(label) >= STAR_LABELS.index(floor)


def _agreed(what: str, label_d: str, label_c: str) -> str:
    if label_d != label_c:
        raise SideDivergenceError(
            f"{what} sides disagree: {label_d} vs {label_c}")
    return label_d


@dataclass
class PartialZero:
    """The three-legged endpoint-and-image map with its decided flags."""

    morphism: BaseMorphism
    faithful: bool
    full: bool
    to_dom: BaseMorphism
    to_arrow: BaseMorphism
    to_cod: BaseMorphism


def fully_faithful_comparison(fun: InternalFunctor) -> BaseMorphism:
    """Mediator from arrows into the comma object of the endpoints.

    The comma object holds the triples (left object, arrow, right object)
    whose arrow runs between the images of its ends; the comparison is an
    iso exactly when the functor is fully faithful.  This is the same
    predicate partial_zero decides, but computed through a differently
    encoded limit.
    """
    a, b = fun.dom, fun.cod
    lim = comma(fun.F0, b.d, b.c, fun.F0, ("left", "mid", "right"))
    return lim.mediate({"left": a.d, "mid": fun.F1, "right": a.c})


def _per_side(build):
    """A record's measurement on one side, built on its first read and kept."""
    @wraps(build)
    def read(self, side):
        key = (build.__name__, side)
        if key not in self._sides:
            self._sides[key] = build(self, side)
        return self._sides[key]
    return read


class FunctorClassification:
    """The measurements of one functor, each built on its first read and kept.

    Per side ("d" or "c"): the pullback of F0 against the codomain's
    endpoint, which tau and the reachable-objects map both read, then tau,
    hat tau and that map; once: the partial zero.  ``flags`` reads the
    labels off them and runs every cross-check; ``witnesses`` maps names to
    the base morphisms that decided them, except "T" and "J", which are the
    comparison functors.  Star entries appear only for pointed instances.
    """

    def __init__(self, fun: InternalFunctor):
        self.fun = fun
        self._sides = {}

    @_per_side
    def endpoint_pullback(self, side):
        return pullback(self.fun.F0, _ends(self.fun.cod, side)[0])

    @_per_side
    def tau(self, side):
        return self.endpoint_pullback(side).mediate(
            {"p1": _ends(self.fun.dom, side)[0], "p2": self.fun.F1})

    @_per_side
    def reach(self, side):
        return compose(self.endpoint_pullback(side).legs["p2"],
                       _ends(self.fun.cod, side)[1])

    @_per_side
    def hat_tau(self, side):
        """Kernel-restricted lifting measurement (pointed instances only).

        Side "d": arrows of the domain whose image ends at zero, measured by
        (domain object, image arrow) against kernel arrows of the codomain.
        Returns (pullback, measurement, source kernel, codomain-arrow kernel).
        """
        fun = self.fun
        near, far = _ends(fun.cod, side)
        ending = kernel(compose(fun.F1, far))
        target = kernel(far)
        restricted = target.mediate(
            {"ker": compose(ending.legs["ker"], fun.F1)})
        lim = pullback(fun.F0, compose(target.legs["ker"], near))
        source = compose(ending.legs["ker"], _ends(fun.dom, side)[0])
        return lim, lim.mediate({"p1": source, "p2": restricted}), ending, target

    # iso implies split epi, which implies regular epi, so the number of
    # these flags a measurement has is the index of its label

    @cached_property
    def fibration(self) -> str:
        return _agreed("fibration", *(
            FIBRATION_LABELS[f.regular_epi + f.split_epi + f.iso]
            for f in map(classify_morphism, (self.tau("d"), self.tau("c")))))

    @cached_property
    def star(self) -> str:
        """Inversion of arrows identifies the two kernel measurements: the
        square built from the restricted inversions must commute, which
        forces the two labels to agree.  Both are still checked."""
        a, b = self.fun.dom, self.fun.cod
        lim_d, tau_d, ending_d, ker_c = self.hat_tau("d")
        lim_c, tau_c, ending_c, ker_d = self.hat_tau("c")
        flip_base = ker_d.mediate({"ker": compose(ker_c.legs["ker"], b.i)})
        flip_source = ending_c.mediate(
            {"ker": compose(ending_d.legs["ker"], a.i)})
        across = lim_c.mediate({"p1": lim_d.legs["p1"],
                                "p2": compose(lim_d.legs["p2"], flip_base)})
        if compose(tau_d, across) != compose(flip_source, tau_c):
            raise SideDivergenceError("star inversion square does not commute")
        return _agreed("star", *(
            STAR_LABELS[f.regular_epi + f.split_epi]
            for f in map(classify_morphism, (tau_d, tau_c))))

    @cached_property
    def zero(self) -> PartialZero:
        fun, tau_d, first = self.fun, self.tau("d"), self.endpoint_pullback("d")
        second = pullback(self.reach("d"), fun.F0)
        morphism = second.mediate({"p1": tau_d, "p2": fun.dom.c})
        flags = classify_morphism(morphism)
        return PartialZero(morphism, flags.mono, flags.regular_epi,
                           compose(second.legs["p1"], first.legs["p1"]),
                           compose(second.legs["p1"], first.legs["p2"]),
                           second.legs["p2"])

    @cached_property
    def fully_faithful(self) -> bool:
        zero = self.zero
        via_limit = classify_morphism(fully_faithful_comparison(self.fun)).iso
        if via_limit != classify_morphism(zero.morphism).iso:
            raise SideDivergenceError("fully-faithful routes disagree")
        return via_limit

    @cached_property
    def essential(self):
        """The flags of the reachable-objects map, both sides compared."""
        fd = classify_morphism(self.reach("d"))
        fc = classify_morphism(self.reach("c"))
        if (fd.regular_epi, fd.split_epi) != (fc.regular_epi, fc.split_epi):
            raise SideDivergenceError("essential surjectivity sides disagree")
        return fd

    @cached_property
    def equivalence(self) -> dict:
        ff, ess = self.fully_faithful, self.essential
        return {"fully_faithful": ff, "essentially_surjective": ess.regular_epi,
                "weak_equivalence": ff and ess.regular_epi,
                "equivalence": ff and ess.split_epi}

    @cached_property
    def flags(self) -> dict:
        """Every flag; a label has each tier up to its own."""
        flags = {"faithful": self.zero.faithful, "full": self.zero.full,
                 **self.equivalence}
        for tier in FIBRATION_LABELS[1:]:
            flags[tier] = fibration_at_least(self.fibration, tier)
        if self.fun.dom.instance.pointed:
            for tier in STAR_LABELS[1:]:
                flags[tier] = star_at_least(self.star, tier)
        return flags

    @cached_property
    def T(self):
        return comparison_T(self.fun)

    @cached_property
    def witnesses(self) -> dict:
        witnesses = {"tau_d": self.tau("d"), "tau_c": self.tau("c"),
                     "partial_zero": self.zero.morphism,
                     "essential_surjectivity": self.reach("d"), "T": self.T}
        if self.fun.dom.instance.pointed:
            witnesses["hat_tau_d"] = self.hat_tau("d")[1]
            witnesses["hat_tau_c"] = self.hat_tau("c")[1]
            witnesses["J"] = comparison_J(self.fun)
        return witnesses

    def payload(self) -> dict:
        """JSON-ready view: flags plus domain/codomain witness sizes."""
        sizes = {}
        for name, w in self.witnesses.items():
            if isinstance(w, InternalFunctor):
                sizes[name + "0"] = [w.F0.dom.size, w.F0.cod.size]
                sizes[name + "1"] = [w.F1.dom.size, w.F1.cod.size]
            else:
                sizes[name] = [w.dom.size, w.cod.size]
        return {"flags": dict(self.flags), "witness_sizes": sizes}


def classification_report(fun: InternalFunctor) -> FunctorClassification:
    """The record of one functor with its flags and witnesses read, so a
    failed cross-check raises here; on a functor over a non-groupoid, T is
    built before the star measurements and raises first."""
    report = FunctorClassification(fun)
    report.fibration, report.equivalence, report.T, report.flags
    report.witnesses
    return report


# ---------------------------------------------------------------------------
# the public classifiers: each reads a fresh record


def tau_factorization(fun: InternalFunctor, side: str) -> BaseMorphism:
    """The canonical map from arrows to (endpoint object, image arrow) pairs.

    For side "d" it sends an arrow x to (d x, F1 x), landing in the pullback
    of F0 against the codomain's d; composition with the pullback legs
    recovers d and F1.  Side "c" is the symmetric construction.
    """
    return FunctorClassification(fun).tau(side)


def classify_fibration(fun: InternalFunctor) -> str:
    """Strongest fibration label, decided on both sides and compared."""
    return FunctorClassification(fun).fibration


def classify_star_fibration(fun: InternalFunctor) -> str:
    """Strongest star label; sides are matched through the inversion square."""
    return FunctorClassification(fun).star


def partial_zero(fun: InternalFunctor) -> PartialZero:
    """Send an arrow x to ((d x, F1 x), c x) in the iterated pullback.

    Injectivity of this map is faithfulness, surjectivity is fullness, and
    bijectivity is fully-faithfulness.
    """
    return FunctorClassification(fun).zero


def is_fully_faithful(fun: InternalFunctor) -> bool:
    """Decide fully-faithfulness twice and insist the answers match."""
    return FunctorClassification(fun).fully_faithful


def classify_equivalence(fun: InternalFunctor) -> dict:
    """Full faithfulness and the essential flags, each decided once, and the
    (weak) equivalence flags read off them; an equivalence needs the
    reachable-objects map to split, not merely be surjective."""
    return FunctorClassification(fun).equivalence


def is_weak_equivalence(fun: InternalFunctor) -> bool:
    return classify_equivalence(fun)["weak_equivalence"]


def is_equivalence(fun: InternalFunctor) -> bool:
    return classify_equivalence(fun)["equivalence"]
