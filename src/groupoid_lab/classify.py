"""Classification of internal functors.

Every class of functor recognized here is decided by the flags of one base
morphism:

* ``tau_factorization`` measures how arrows lift along a chosen endpoint;
  its surjectivity class gives the fibration hierarchy.
* ``hat_tau_factorization`` restricts that measurement to arrows ending (or
  starting) at zero, in pointed instances; it gives the star hierarchy.
* ``partial_zero`` packages domain, image arrow and codomain into a single
  three-legged map whose mono / regular-epi / iso flags decide faithful,
  full and fully faithful.
* the essential-surjectivity witness asks which objects of the codomain are
  reachable by an arrow from the image.

Each classification exists in a "d" and a "c" flavour.  Both are always
computed and compared; a mismatch raises SideDivergenceError because the
theory promises agreement and a divergence can only be an implementation
bug.  Fully-faithfulness is likewise decided twice, through two differently
encoded limits, and cross-checked.
"""

from __future__ import annotations

from dataclasses import dataclass

from .base import (
    BaseMorphism,
    Diagram,
    GroupoidLabError,
    classify_morphism,
    compose,
    finite_limit,
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


# ---------------------------------------------------------------------------
# fibrations


def _tau(fun: InternalFunctor, side: str):
    """The lifting measurement plus the pullback it factors through."""
    lim = pullback(fun.F0, _ends(fun.cod, side)[0])
    return lim, lim.mediate({"p1": _ends(fun.dom, side)[0], "p2": fun.F1})


def tau_factorization(fun: InternalFunctor, side: str = "d") -> BaseMorphism:
    """The canonical map from arrows to (endpoint object, image arrow) pairs.

    For side "d" it sends an arrow x to (d x, F1 x), landing in the pullback
    of F0 against the codomain's d; composition with the pullback legs
    recovers d and F1.  Side "c" is the symmetric construction.
    """
    return _tau(fun, side)[1]


def _fibration_label(flags) -> str:
    if flags.iso:
        return "discrete_fibration"
    if flags.split_epi:
        return "split_epi_fibration"
    if flags.regular_epi:
        return "fibration"
    return "not_fibration"


def classify_fibration(fun: InternalFunctor) -> str:
    """Strongest fibration label, decided on both sides and compared."""
    return _fibration_of(_tau(fun, "d")[1], _tau(fun, "c")[1])


def _fibration_of(tau_d: BaseMorphism, tau_c: BaseMorphism) -> str:
    label_d = _fibration_label(classify_morphism(tau_d))
    label_c = _fibration_label(classify_morphism(tau_c))
    if label_d != label_c:
        raise SideDivergenceError(
            f"fibration sides disagree: {label_d} vs {label_c}")
    return label_d


def fibration_at_least(label: str, floor: str) -> bool:
    return FIBRATION_LABELS.index(label) >= FIBRATION_LABELS.index(floor)


# ---------------------------------------------------------------------------
# star fibrations


def _hat_tau(fun: InternalFunctor, side: str):
    """Kernel-restricted lifting measurement (pointed instances only).

    Side "d": arrows of the domain whose image ends at zero, measured by
    (domain object, image arrow) against kernel arrows of the codomain.
    Returns (pullback, measurement, source kernel, codomain-arrow kernel).
    """
    near, far = _ends(fun.cod, side)
    ending = kernel(compose(fun.F1, far))
    target = kernel(far)
    restricted = target.mediate({"ker": compose(ending.legs["ker"], fun.F1)})
    lim = pullback(fun.F0, compose(target.legs["ker"], near))
    source = compose(ending.legs["ker"], _ends(fun.dom, side)[0])
    tau = lim.mediate({"p1": source, "p2": restricted})
    return lim, tau, ending, target


def hat_tau_factorization(fun: InternalFunctor, side: str = "d") -> BaseMorphism:
    return _hat_tau(fun, side)[1]


def _star_label(flags) -> str:
    if flags.split_epi:
        return "split_epi_star_fibration"
    if flags.regular_epi:
        return "star_fibration"
    return "not_star"


def classify_star_fibration(fun: InternalFunctor) -> str:
    """Strongest star label; sides are matched through the inversion square.

    Inversion of arrows identifies the two kernel measurements: the square
    built from the restricted inversions must commute, which forces the two
    labels to agree.  Both the square and the labels are still checked.
    """
    return _star_of(fun, _hat_tau(fun, "d"), _hat_tau(fun, "c"))


def _star_of(fun: InternalFunctor, hat_d, hat_c) -> str:
    a, b = fun.dom, fun.cod
    lim_d, tau_d, ending_d, ker_c = hat_d
    lim_c, tau_c, ending_c, ker_d = hat_c
    flip_base = ker_d.mediate({"ker": compose(ker_c.legs["ker"], b.i)})
    flip_source = ending_c.mediate(
        {"ker": compose(ending_d.legs["ker"], a.i)})
    across = lim_c.mediate({"p1": lim_d.legs["p1"],
                            "p2": compose(lim_d.legs["p2"], flip_base)})
    if compose(tau_d, across) != compose(flip_source, tau_c):
        raise SideDivergenceError("star inversion square does not commute")
    label_d = _star_label(classify_morphism(tau_d))
    label_c = _star_label(classify_morphism(tau_c))
    if label_d != label_c:
        raise SideDivergenceError(
            f"star sides disagree: {label_d} vs {label_c}")
    return label_d


def star_at_least(label: str, floor: str) -> bool:
    return STAR_LABELS.index(label) >= STAR_LABELS.index(floor)


# ---------------------------------------------------------------------------
# faithful / full / fully faithful


@dataclass
class PartialZero:
    """The three-legged endpoint-and-image map with its decided flags."""

    morphism: BaseMorphism
    faithful: bool
    full: bool
    to_dom: BaseMorphism
    to_arrow: BaseMorphism
    to_cod: BaseMorphism


def partial_zero(fun: InternalFunctor) -> PartialZero:
    """Send an arrow x to ((d x, F1 x), c x) in the iterated pullback.

    Injectivity of this map is faithfulness, surjectivity is fullness, and
    bijectivity is fully-faithfulness.
    """
    return _partial_zero(fun, _tau(fun, "d"))


def _partial_zero(fun: InternalFunctor, tau) -> PartialZero:
    """partial_zero, given the side-"d" lifting measurement ``_tau``."""
    first, tau_d = tau
    second = pullback(compose(first.legs["p2"], fun.cod.c), fun.F0)
    morphism = second.mediate({"p1": tau_d, "p2": fun.dom.c})
    flags = classify_morphism(morphism)
    return PartialZero(
        morphism=morphism,
        faithful=flags.mono,
        full=flags.regular_epi,
        to_dom=compose(second.legs["p1"], first.legs["p1"]),
        to_arrow=compose(second.legs["p1"], first.legs["p2"]),
        to_cod=second.legs["p2"],
    )


def is_faithful(fun: InternalFunctor) -> bool:
    return partial_zero(fun).faithful


def is_full(fun: InternalFunctor) -> bool:
    return partial_zero(fun).full


def fully_faithful_comparison(fun: InternalFunctor) -> BaseMorphism:
    """Mediator from arrows into the flat two-cospan limit of endpoints.

    The limit carrier holds 5-tuples (left object, arrow, right object, both
    base objects); the comparison is an iso exactly when the functor is
    fully faithful.  This is the same predicate partial_zero decides, but
    computed through a differently encoded limit.
    """
    a, b = fun.dom, fun.cod
    diagram = Diagram(
        nodes={"left": a.B0, "mid": b.B1, "right": a.B0,
               "base_d": b.B0, "base_c": b.B0},
        edges=[("left", "base_d", fun.F0), ("mid", "base_d", b.d),
               ("mid", "base_c", b.c), ("right", "base_c", fun.F0)])
    lim = finite_limit(diagram)
    return lim.mediate({"left": a.d, "mid": fun.F1, "right": a.c})


def is_fully_faithful(fun: InternalFunctor) -> bool:
    """Decide fully-faithfulness twice and insist the answers match."""
    return _fully_faithful(fun, partial_zero(fun))


def _fully_faithful(fun: InternalFunctor, zero: PartialZero) -> bool:
    via_limit = classify_morphism(fully_faithful_comparison(fun)).iso
    via_partial = classify_morphism(zero.morphism).iso
    if via_limit != via_partial:
        raise SideDivergenceError("fully-faithful routes disagree")
    return via_limit


# ---------------------------------------------------------------------------
# essential surjectivity and the equivalence notions


def essential_surjectivity_witness(fun: InternalFunctor,
                                   side: str = "d") -> BaseMorphism:
    """The reachable-objects map (image-endpoint pair) -> far endpoint."""
    near, far = _ends(fun.cod, side)
    return compose(pullback(fun.F0, near).legs["p2"], far)


def _essential_flags(fun: InternalFunctor):
    return _essential_of(essential_surjectivity_witness(fun, "d"),
                         essential_surjectivity_witness(fun, "c"))


def _essential_of(witness_d: BaseMorphism, witness_c: BaseMorphism):
    fd = classify_morphism(witness_d)
    fc = classify_morphism(witness_c)
    if (fd.regular_epi, fd.split_epi) != (fc.regular_epi, fc.split_epi):
        raise SideDivergenceError("essential surjectivity sides disagree")
    return fd


def is_essentially_surjective(fun: InternalFunctor) -> bool:
    return _essential_flags(fun).regular_epi


def classify_equivalence(fun: InternalFunctor) -> dict:
    """Full faithfulness and the essential flags, each decided once, and the
    (weak) equivalence flags read off them; an equivalence needs the
    reachable-objects map to split, not merely be surjective."""
    return _equivalence_flags(is_fully_faithful(fun), _essential_flags(fun))


def _equivalence_flags(ff: bool, ess) -> dict:
    return {"fully_faithful": ff, "essentially_surjective": ess.regular_epi,
            "weak_equivalence": ff and ess.regular_epi,
            "equivalence": ff and ess.split_epi}


def is_weak_equivalence(fun: InternalFunctor) -> bool:
    return classify_equivalence(fun)["weak_equivalence"]


def is_equivalence(fun: InternalFunctor) -> bool:
    return classify_equivalence(fun)["equivalence"]


# ---------------------------------------------------------------------------
# the aggregate report


@dataclass
class FunctorClassification:
    """All flags of one functor plus the morphisms that decided them.

    ``witnesses`` maps names to base morphisms, except "T" and "J" which
    are the comparison functors.  Star entries appear only for pointed
    instances.
    """

    flags: dict
    witnesses: dict

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
    """Every flag and witness of one functor; each measurement is built once
    and read by both the flags it decides and the witness it is."""
    tau_d, tau_c = _tau(fun, "d"), _tau(fun, "c")
    label = _fibration_of(tau_d[1], tau_c[1])
    zero = _partial_zero(fun, tau_d)
    reach_d = essential_surjectivity_witness(fun, "d")
    reach_c = essential_surjectivity_witness(fun, "c")
    flags = {
        "faithful": zero.faithful,
        "full": zero.full,
        **_equivalence_flags(_fully_faithful(fun, zero),
                             _essential_of(reach_d, reach_c)),
        "fibration": fibration_at_least(label, "fibration"),
        "split_epi_fibration": fibration_at_least(label, "split_epi_fibration"),
        "discrete_fibration": label == "discrete_fibration",
    }
    witnesses = {
        "tau_d": tau_d[1],
        "tau_c": tau_c[1],
        "partial_zero": zero.morphism,
        "essential_surjectivity": reach_d,
        "T": comparison_T(fun),
    }
    if fun.dom.instance.pointed:
        hat_d, hat_c = _hat_tau(fun, "d"), _hat_tau(fun, "c")
        star = _star_of(fun, hat_d, hat_c)
        flags["star_fibration"] = star_at_least(star, "star_fibration")
        flags["split_epi_star_fibration"] = star == "split_epi_star_fibration"
        witnesses["hat_tau_d"] = hat_d[1]
        witnesses["hat_tau_c"] = hat_c[1]
        witnesses["J"] = comparison_J(fun)
    return FunctorClassification(flags=flags, witnesses=witnesses)
