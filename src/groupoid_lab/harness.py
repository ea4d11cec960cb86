"""The verification suites behind the verify command, and their registry.

Each suite checks one structural fact at desk scale, on cases drawn from
``generators`` or walked from a ``catalog``, and reports serialized
witnesses for whatever failed.  Each suite is registered once, in
``SUITES``, with the instances it applies to, the instances that expect
witnesses, its default case bound, and a stream that yields one failure
list per case.  ``@_suite`` runs a per-case check; ``@_search`` numbers a
bounded search's verdicts over a fixed catalogue by candidate.
``run_suite`` is the one loop over a stream: it applies the bound, stops
at the third witness on a witness instance, and records whether the run
expects a witness.  The star search expects a witness on FinAb;
protomodularity expects one on FinPtdSet and a clean pass on FinAb.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import count, islice

from .arrow import (
    ArrowMorphism,
    ArrowObject,
    Diagonal,
    _fibre_flags,
    act_on_diagonal,
    classify_arrow_morphism,
    comparison_J_arr,
    compose_arr,
    h_kernel_factorization,
    h_kernel_preservation_comparison,
    identity_arr,
    is_essentially_surjective_arr,
    kernel_arr,
    kernel_preservation_comparison,
    normalize,
    normalize_homotopy,
    partial_zero_arr,
    strong_h_kernel_arr,
)
from .base import (
    FINAB,
    FINPTDSET,
    DiagramError,
    NoMediatorError,
    classify_morphism,
    compose,
    generated_subgroup_indices,
    identity,
    kernel,
    morphism_from_function,
    parse_instance,
    product,
    pullback,
    subobject_limit,
    zero_morphism,
)
from .catalog import _fibration_squares, _groupoid_catalog, _hom_memo
from .classify import (
    FunctorClassification,
    classify_equivalence,
    classify_fibration,
    classify_star_fibration,
    fibration_at_least,
    is_fully_faithful,
    is_weak_equivalence,
    partial_zero,
    star_at_least,
)
from .generators import (
    _budget,
    _discrete_fibration_into,
    _fibration_family,
    _random_arrow_morphism,
    _random_functor,
    _random_fully_faithful,
    _random_groupoid,
    _random_map,
    _random_object,
    _random_weak_equivalence,
    _subgroupoid_inclusion,
    _tagged_functor,
    _weak_equivalence_into,
    corrupt_functor,
    corrupt_groupoid,
    corrupt_transformation,
    gen_functor,
    gen_groupoid,
    gen_transformation,
)
from .groupoid import (
    InternalFunctor,
    InternalGroupoid,
    compose_functors,
    discrete_groupoid,
    functor,
    identity_functor,
    pi0_induced,
    pi1_induced,
    validate_functor,
    validate_groupoid,
    validate_transformation,
    zero_functor,
)
from .holim import (
    _square_map,
    comparison_J_data,
    comparison_T_data,
    h_kernel_into_pullback,
    is_levelwise_pullback_square,
    kernel_groupoid,
    mediate_pullback,
    pullback_groupoid,
    strong_h_kernel,
    strong_h_pullback,
)
from .serialize import value_to_data

# ---------------------------------------------------------------------------
# reports


@dataclass
class SuiteReport:
    """Outcome of one suite run on one instance.  No suite is timed: the
    payload keeps its ``elapsed_ms`` key, and it is always 0."""

    suite: str
    instance: str
    seed: object
    cases: int
    failures: list
    # a search on one of its witness instances; a skipped run expects none
    expects_witness: bool

    @property
    def expectation_met(self) -> bool:
        """At least one witness where one is expected, else no failure."""
        return bool(self.failures) == self.expects_witness

    @property
    def status(self) -> str:
        """The verdict ``groupoid-lab verify`` prints after the counts."""
        n = len(self.failures)
        if self.expects_witness:
            return f"witness found ({n})" if n else "UNMET: no witness found"
        return f"UNMET: {n} failures" if n else "ok"

    def payload(self) -> dict:
        return {
            "suite": self.suite,
            "instance": self.instance,
            "seed": self.seed,
            "cases": self.cases,
            "failures": self.failures,
            "elapsed_ms": 0,
        }


def _witness(case, reason, **values) -> dict:
    data = {key: v if isinstance(v, (str, int, float, bool)) or v is None
            else value_to_data(v) for key, v in values.items()}
    return {"case": case, "reason": reason, "witness": data}


# ---------------------------------------------------------------------------
# witness shrinking


def _shrink_square(m: ArrowMorphism, still_bad) -> ArrowMorphism:
    """Greedy element removal on a pointed square: take the first smaller
    square that is still bad, until none is."""
    while True:
        corners = (m.dom.top, m.dom.bottom, m.cod.top, m.cod.bottom)
        smaller = (_remove_element(m, which, drop)
                   for which, obj in enumerate(corners)
                   for drop in range(obj.size) if drop != obj.zero)
        bad = next((s for s in smaller if s is not None and still_bad(s)),
                   None)
        if bad is None:
            return m
        m = bad


def _remove_element(m: ArrowMorphism, which, drop):
    """The square with element ``drop`` of corner ``which`` (domain top and
    bottom, then codomain top and bottom) removed, or None when a kept
    element still maps onto it."""
    corner = (m.dom.top, m.dom.bottom, m.cod.top, m.cod.bottom)[which]
    sub = subobject_limit(corner, [i for i in range(corner.size) if i != drop])
    maps = {}
    for (src, dst), mor in {(0, 1): m.dom.a, (2, 3): m.cod.a,
                            (0, 2): m.f, (1, 3): m.f0}.items():
        if src == which:
            mor = compose(sub.legs["incl"], mor)
        if dst == which:
            try:
                mor = sub.mediate({"incl": mor})
            except NoMediatorError:
                return None
        maps[src, dst] = mor
    return ArrowMorphism(ArrowObject(maps[0, 1]), ArrowObject(maps[2, 3]),
                         maps[0, 2], maps[1, 3])


# ---------------------------------------------------------------------------
# registry


@dataclass(frozen=True)
class _Suite:
    # stream(instance, seed) yields one failure list per case
    stream: object
    instances: tuple
    witness_instances: frozenset
    # Witness searches need room to reach their first witness; everything
    # else gets a quick default that the acceptance run then scales up.
    default_cases: int


_ALL = ("finset", "finptdset", "finab")
_POINTED = ("finptdset", "finab")

# Filled by @_suite and @_search in definition order, which is the order
# verify runs the suites in.
SUITES = {}


class _Case:
    """Case ``k`` of a suite run: its replay tag, its own rng, its failures."""

    def __init__(self, name, instance, seed, k):
        self.k = k
        self.tag = f"{name}:{seed}:{k}"
        self.rng = random.Random(f"{instance.name}:{self.tag}")
        self.failures = []

    def fail(self, reason, **values):
        self.failures.append(_witness(self.k, reason, **values))


def _suite(name, instances):
    """Register ``check(instance, case)``, run on cases 0, 1, ... with a
    default bound of 50; each case's failures are those of its ``fail``."""
    def register(check):
        def stream(instance, seed):
            for k in count():
                case = _Case(name, instance, seed, k)
                check(instance, case)
                yield case.failures
        SUITES[name] = _Suite(stream, instances, frozenset(), 50)
        return check
    return register


def _search(name, instances, witness_instances, default_cases):
    """Register a generator ``search(instance)`` that yields one verdict per
    catalogue candidate, in order: None, or a failure ``(reason, values)``.
    Candidate k is case k, and its failure is a witness numbered k."""
    def register(search):
        def stream(instance, seed):
            for k, verdict in enumerate(search(instance)):
                yield (() if verdict is None
                       else [_witness(k, verdict[0], **verdict[1])])
        SUITES[name] = _Suite(stream, instances, frozenset(witness_instances),
                              default_cases)
        return search
    return register


def _floor_holds(case, fun, floor):
    """The fibration label of ``fun``, or None once the case has failed
    because the label is below the generator's ``floor`` (if it has one)."""
    label = classify_fibration(fun)
    if floor and not fibration_at_least(label, floor):
        case.fail(f"generator floor {floor!r} disagrees with label {label!r}",
                  functor=fun)
        return None
    return label


# ---------------------------------------------------------------------------
# suites


@_suite("axioms", _ALL)
def _check_axioms(instance, case):
    """Generated structures validate; corrupted ones name the broken axiom."""
    validators = {"groupoid": validate_groupoid,
                  "functor": validate_functor,
                  "transformation": validate_transformation}
    triple = {"groupoid": gen_groupoid(instance, case.tag),
              "functor": gen_functor(instance, case.tag),
              "transformation": gen_transformation(instance, case.tag)}
    for kind, value in triple.items():
        bad = validators[kind](value)
        if bad:
            case.fail(f"generated {kind} failed validation: {bad}",
                      value=value)
    if case.k % 5 != 4:
        return
    rng = random.Random(f"{instance.name}:{case.tag}:corrupt")
    kind = ("groupoid", "functor", "transformation")[(case.k // 5) % 3]
    corrupter = {"groupoid": corrupt_groupoid,
                 "functor": corrupt_functor,
                 "transformation": corrupt_transformation}[kind]
    out = corrupter(triple[kind], rng)
    if out is None:
        return
    bad_value, expected = out
    got = validators[kind](bad_value)
    if expected not in got:
        case.fail(f"corrupted {kind} expected axiom {expected!r}, "
                  f"validator reported {got}", value=bad_value)


def _refinement_square_holds(fun: InternalFunctor, tdata):
    """The proof-level square: arrows against the strict comparison.

    Sends an arrow x to the degenerate square on its image, mediates into
    the relaxed pullback's arrow level, and checks the resulting square
    over the comparison functor is a pullback at the object level.
    """
    a, b = fun.dom, fun.cod
    v = tdata.relaxed
    u = compose(a.d, fun.F0, b.e)
    try:
        sq_map = _square_map(v.squares.pairs, b.composition_pairs(),
                             u, fun.F1, u, fun.F1)
        fbar = v.arrow_limit.mediate({"g_arr": compose(a.d, fun.F0),
                                      "squares": sq_map,
                                      "f_arr": identity(a.B1)})
        strict_iso = tdata.strict.object_limit.mediate(
            {"p1": fun.F0, "p2": identity(a.B0)})
    except NoMediatorError:
        return False, "refinement cone fails to mediate"
    t0 = compose(strict_iso, tdata.functor.F0)
    dv = v.groupoid.d
    if compose(fbar, dv) != compose(a.d, t0):
        return False, "refinement square does not commute"
    try:
        med = pullback(t0, dv).mediate({"p1": a.d, "p2": fbar})
    except NoMediatorError:
        return False, "refinement square has no mediator"
    if not classify_morphism(med).iso:
        return False, "refinement square is not a pullback"
    return True, ""


@_suite("prop-fibration-T", _ALL)
def _check_prop_fibration_t(instance, case):
    """Fibration flags match weak equivalence of the strict comparison,
    with the proof-level refinement square."""
    heavy = 8 if instance is FINAB else 6
    fun, floor = _tagged_functor(instance, case.rng, heavy)
    label = _floor_holds(case, fun, floor)
    if label is None:
        return
    tdata = comparison_T_data(fun)
    t = classify_equivalence(tdata.functor)
    if fibration_at_least(label, "fibration") != t["weak_equivalence"]:
        case.fail("fibration flag disagrees with weak equivalence of the "
                  "strict comparison", functor=fun, label=label)
    if (fibration_at_least(label, "split_epi_fibration")
            != t["equivalence"]):
        case.fail("split fibration flag disagrees with equivalence of the "
                  "strict comparison", functor=fun, label=label)
    if case.k % 4 == 0:
        ok, reason = _refinement_square_holds(fun, tdata)
        if not ok:
            case.fail(reason, functor=fun)


@_suite("prop-star-fibration-J", _POINTED)
def _check_prop_star_fibration_j(instance, case):
    """Star flags match weak equivalence of the kernel comparison."""
    heavy = 6 if instance is FINPTDSET else 8
    fun, floor = _tagged_functor(instance, case.rng, heavy)
    if _floor_holds(case, fun, floor) is None:
        return
    star = classify_star_fibration(fun)
    j = classify_equivalence(comparison_J_data(fun).functor)
    if star_at_least(star, "star_fibration") != j["weak_equivalence"]:
        case.fail("star flag disagrees with weak equivalence of the kernel "
                  "comparison", functor=fun, star=star)
    if (star_at_least(star, "split_epi_star_fibration")
            != j["equivalence"]):
        case.fail("split star flag disagrees with equivalence of the kernel "
                  "comparison", functor=fun, star=star)


def _kernel_square_checks(fun: InternalFunctor, jdata):
    """The kernel comparison against the strict comparison, as one square."""
    tdata = comparison_T_data(fun)
    kg, hk = jdata.strict, jdata.relaxed
    try:
        ell = mediate_pullback(tdata.strict, zero_functor(
            kg.groupoid, tdata.strict.to_first.cod), kg.to_second)
    except NoMediatorError:
        return "kernel cone misses the strict pullback"
    try:
        i_fun = h_kernel_into_pullback(tdata.relaxed, hk)
    except NoMediatorError:
        return "h-kernel cone misses the relaxed pullback"
    if compose_functors(jdata.functor, i_fun) != compose_functors(
            ell, tdata.functor):
        return "kernel square does not commute"
    if not is_levelwise_pullback_square(jdata.functor, ell, i_fun,
                                        tdata.functor):
        return "kernel square is not a level-wise pullback"
    if classify_fibration(i_fun) != "discrete_fibration":
        return "h-kernel inclusion is not a discrete fibration"
    return None


@_suite("cor-weak-equivalence-J", _POINTED)
def _check_cor_weak_equivalence_j(instance, case):
    """Fibrations have weakly invertible kernel comparisons, through a
    pullback square of comparisons."""
    heavy = 6 if instance is FINPTDSET else 8
    fun, floor = _fibration_family(instance, case.rng, heavy)
    label = _floor_holds(case, fun, floor)
    if label is None:
        return
    jdata = comparison_J_data(fun)
    j = classify_equivalence(jdata.functor)
    if not j["weak_equivalence"]:
        case.fail("fibration whose kernel comparison is not a weak "
                  "equivalence", functor=fun, label=label)
    if (fibration_at_least(label, "split_epi_fibration")
            and not j["equivalence"]):
        case.fail("split fibration whose kernel comparison is not an "
                  "equivalence", functor=fun, label=label)
    if case.k % 3 == 0:
        reason = _kernel_square_checks(fun, jdata)
        if reason:
            case.fail(reason, functor=fun)


@_suite("fibration-implies-star", _POINTED)
def _check_fibration_implies_star(instance, case):
    """Every generated fibration is a star-fibration."""
    fun, floor = _fibration_family(instance, case.rng,
                                   _budget(instance, None))
    label = _floor_holds(case, fun, floor)
    if label is None:
        return
    star = classify_star_fibration(fun)
    if not star_at_least(star, "star_fibration"):
        case.fail("fibration that is not a star-fibration", functor=fun,
                  label=label, star=star)
    if (fibration_at_least(label, "split_epi_fibration")
            and not star_at_least(star, "split_epi_star_fibration")):
        case.fail("split fibration that is not a split star-fibration",
                  functor=fun, label=label, star=star)


@_search("star-not-fibration-search", ("finab",), ("finab",), 200)
def _search_star_not_fibration(instance):
    """Search for a star-fibration that is not a fibration: each functor
    between small groupoid pairs, smallest first, is one candidate."""
    catalog = _groupoid_catalog(8)
    hom = _hom_memo()
    pairs = sorted(
        ((a, b) for a in catalog for b in catalog),
        key=lambda p: (p[0].B1.size + p[1].B1.size,
                       p[0].B1.size, p[1].B1.size))
    for dom, cod in pairs:
        for f0 in hom(dom.B0, cod.B0):
            for f1 in hom(dom.B1, cod.B1):
                candidate = InternalFunctor(dom, cod, f0, f1)
                if validate_functor(candidate):
                    continue
                label = classify_fibration(candidate)
                if label == "not_fibration":
                    star = classify_star_fibration(candidate)
                    if star_at_least(star, "star_fibration"):
                        yield ("star-fibration that is not a fibration",
                               {"functor": candidate, "label": label,
                                "star": star})
                        continue
                yield None


@_suite("hkernel-discrete-fibration", _POINTED)
def _check_hkernel_discrete_fibration(instance, case):
    """h-kernel projections classify as discrete fibrations."""
    heavy = 6 if instance is FINPTDSET else 8
    fun = _random_functor(instance, case.rng, heavy)
    label = classify_fibration(strong_h_kernel(fun).to_f_dom)
    if label != "discrete_fibration":
        case.fail(f"h-kernel projection classified {label!r}", functor=fun)


@_suite("ff-normalization-pullback", _POINTED)
def _check_ff_normalization_pullback(instance, case):
    """Normalized squares of fully faithful functors are pullbacks."""
    fun = _random_fully_faithful(instance, case.rng)
    if not is_fully_faithful(fun):
        case.fail("generator produced a functor that is not fully faithful",
                  functor=fun)
        return
    if not classify_morphism(partial_zero_arr(normalize(fun))).iso:
        case.fail("fully faithful functor whose normalized square is not "
                  "a pullback", functor=fun)


@_suite("pullback-discrete-fibration-transfer", _ALL)
def _check_pullback_transfer(instance, case):
    """Weak equivalence transfers across pullbacks along discrete
    fibrations."""
    rng = case.rng
    base = _random_groupoid(instance, rng, 6)
    disc = _discrete_fibration_into(base, rng)
    if classify_fibration(disc) != "discrete_fibration":
        case.fail("generator produced a non-discrete fibration leg",
                  functor=disc)
        return
    weq = _weak_equivalence_into(base, rng)
    weq_flags = classify_equivalence(weq)
    if not weq_flags["weak_equivalence"]:
        case.fail("generator produced a non-weak-equivalence leg",
                  functor=weq)
        return
    pulled = classify_equivalence(pullback_groupoid(weq, disc).to_second)
    if not pulled["weak_equivalence"]:
        case.fail("weak equivalence fails to transfer across the pullback",
                  functor=weq, along=disc)
    if weq_flags["equivalence"] and not pulled["equivalence"]:
        case.fail("equivalence fails to transfer across the pullback",
                  functor=weq, along=disc)


@_suite("normalization-preserves-kernels", _POINTED)
def _check_normalization_preserves_kernels(instance, case):
    """Normalization commutes with kernels and strong h-kernels up to
    canonical isomorphism."""
    heavy = 5 if instance is FINPTDSET else 8
    fun = _random_functor(instance, case.rng, heavy)
    nf = normalize(fun)
    incl, ker = kernel_groupoid(fun)[1], kernel_arr(nf)
    cmp_k = kernel_preservation_comparison(incl, nf, ker)
    if not (classify_morphism(cmp_k.f).iso
            and classify_morphism(cmp_k.f0).iso):
        case.fail("kernel comparison is not an isomorphism", functor=fun)
    elif compose_arr(cmp_k, ker) != normalize(incl):
        case.fail("kernel comparison does not commute with inclusions",
                  functor=fun)
    hk = strong_h_kernel(fun)
    arr = strong_h_kernel_arr(nf)
    cmp_h = h_kernel_preservation_comparison(hk, arr)
    if not (classify_morphism(cmp_h.f).iso
            and classify_morphism(cmp_h.f0).iso):
        case.fail("h-kernel comparison is not an isomorphism", functor=fun)
        return
    if compose_arr(cmp_h, arr.inclusion) != normalize(hk.to_f_dom):
        case.fail("h-kernel comparison does not commute with projections",
                  functor=fun)
        return
    direct = normalize_homotopy(hk.cell)
    acted = act_on_diagonal(cmp_h, arr.diagonal, identity_arr(arr.of.cod))
    if direct.d != acted.d:
        case.fail("h-kernel comparison does not respect the diagonal",
                  functor=fun)


@_suite("kernel-pullback-rows", _POINTED)
def _check_kernel_pullback_rows(instance, case):
    """Kernel rows of the partial-map rectangle, with its pullback square."""
    fun = _random_functor(instance, case.rng)
    a = fun.dom
    pz = partial_zero(fun)
    nf = normalize(fun)
    npz = partial_zero_arr(nf)
    kd = kernel(a.d).legs["ker"]
    zero_a0 = a.B0.zero_element()
    bottom = morphism_from_function(
        npz.cod, pz.morphism.cod,
        lambda p: ((zero_a0, p[1]), p[0]))
    if compose(pz.morphism, pz.to_dom) != a.d:
        case.fail("partial map does not project back to the source",
                  functor=fun)
        return
    if compose(npz, bottom) != compose(kd, pz.morphism):
        case.fail("restricted square does not commute", functor=fun)
        return
    try:
        row = kernel(pz.to_dom).mediate({"ker": bottom})
        top = kernel(a.d).mediate({"ker": kd})
        med = pullback(pz.morphism, bottom).mediate({"p1": kd, "p2": npz})
    except NoMediatorError:
        case.fail("kernel rows fail to mediate", functor=fun)
        return
    if not classify_morphism(top).iso:
        case.fail("arrow-level row is not a kernel", functor=fun)
    if not classify_morphism(row).iso:
        case.fail("restricted row is not a kernel", functor=fun)
    if not classify_morphism(med).iso:
        case.fail("restriction square is not a pullback", functor=fun)


@_suite("normalization-transfer", _POINTED)
def _check_normalization_transfer(instance, case):
    """Classification flags move along normalization, item by item."""
    rng = case.rng
    roll = rng.random()
    if roll < 0.4:
        fun, _ = _tagged_functor(instance, rng)
    elif roll < 0.7:
        fun = _random_fully_faithful(instance, rng)
    else:
        fun = _random_functor(instance, rng)
    record = FunctorClassification(fun)
    pz, ff = record.zero, record.fully_faithful
    ess = record.essential.regular_epi
    fib = fibration_at_least(record.fibration, "fibration")
    arrow_flags = classify_arrow_morphism(normalize(fun))
    items = [
        (1, pz.faithful, arrow_flags["faithful"]),
        (2, ff, arrow_flags["fully_faithful"]),
        (3, pz.full, arrow_flags["full"]),
        (8, arrow_flags["essentially_surjective"], ess),
        (9, fib, arrow_flags["fibration"]),
    ]
    if instance is FINAB:
        items += [
            (4, arrow_flags["faithful"], pz.faithful),
            (5, arrow_flags["fully_faithful"], ff),
            (6, arrow_flags["full"], pz.full),
            (7, ess, arrow_flags["essentially_surjective"]),
            (10, arrow_flags["fibration"], fib),
        ]
    for item, premise, conclusion in items:
        if premise and not conclusion:
            case.fail(f"transfer item {item} fails", functor=fun, item=item)


@_suite("kernels-strong-arr", _POINTED)
def _check_kernels_strong_arr(instance, case):
    """Square-level kernel comparisons are fully faithful, by the endpoint
    pullback and by the fibrewise count alike, and factor kernel cones.
    The two counts are also compared on the square itself, whose flags
    take every value, as J's are always true."""
    m = _random_arrow_morphism(instance, case.rng, 6)
    j = comparison_J_arr(m)
    for square, name in ((m, "square"), (j, "kernel comparison")):
        flags = classify_morphism(partial_zero_arr(square))
        if _fibre_flags(square) != (flags.mono, flags.regular_epi):
            case.fail(f"fibrewise flags of the {name} disagree with its "
                      "endpoint pullback", square=m)
            return
    if not flags.iso:  # J's flags, read last
        case.fail("kernel comparison of a square is not fully faithful",
                  square=m)
        return
    hk = strong_h_kernel_arr(m)
    if hk.diagonal.morphism != compose_arr(hk.inclusion, m):
        case.fail("h-kernel diagonal sits on the wrong square", square=m)
        return
    karr = kernel_arr(m)
    mu = Diagonal(compose_arr(karr, m),
                  zero_morphism(karr.dom.bottom, m.cod.top))
    try:
        factor = h_kernel_factorization(hk, karr, mu)
    except NoMediatorError:
        case.fail("kernel cone fails to factor through the h-kernel",
                  square=m)
        return
    if factor != j:
        case.fail("factorization disagrees with the kernel comparison",
                  square=m)
    # J(m) is essentially surjective iff its bottom map and its codomain's
    # arrow are jointly strongly epic: their images cover the codomain
    # (FinPtdSet) or generate it as a subgroup (FinAb)
    cover = set(j.f0.map) | set(j.cod.a.map)
    if instance is FINAB:
        cover = generated_subgroup_indices(j.f0.cod, cover)
    joint_epi = len(cover) == j.f0.cod.size
    if classify_arrow_morphism(m)["star_fibration"] != joint_epi:
        case.fail("star flag disagrees with the joint-epi oracle", square=m)


def _j_flags(m: ArrowMorphism):
    """(J(m) is fully faithful, J(m) is essentially surjective)."""
    j = comparison_J_arr(m)
    return all(_fibre_flags(j)), is_essentially_surjective_arr(j)


@_search("protomodularity-char", _POINTED,
         [n for n in _POINTED if not parse_instance(n).protomodular], 100)
def _search_protomodularity(instance):
    """Fibration squares have weakly invertible kernel comparisons exactly
    in a protomodular instance.

    Sweeps fibration squares and tests the kernel comparison.  Where the
    instance declares itself protomodular (FinAb) the comparison must
    always be a weak equivalence (violations are failures); elsewhere
    (FinPtdSet) the sweep is a counterexample search and found witnesses,
    shrunk while they stay bad, are the expected outcome.
    """
    def still_bad(cand):
        return (classify_morphism(cand.f).regular_epi
                and not all(_j_flags(cand)))

    for m in _fibration_squares(instance):
        if all(_j_flags(m)):
            yield None
        elif instance.protomodular:
            yield ("fibration square whose kernel comparison fails weak "
                   "equivalence", {"square": m})
        else:
            small = _shrink_square(m, still_bad)
            fully_faithful, joint_epi = _j_flags(small)
            yield ("fibration square whose kernel comparison fails the "
                   "joint-epi oracle",
                   {"square": small, "joint_epi": joint_epi,
                    "fully_faithful": fully_faithful})


@_suite("pi-invariance", _ALL)
def _check_pi_invariance(instance, case):
    """Weak equivalences induce isomorphisms on components and loops."""
    fun = _random_weak_equivalence(instance, case.rng)
    if not is_weak_equivalence(fun):
        case.fail("generator produced a non-weak-equivalence", functor=fun)
        return
    if not classify_morphism(pi0_induced(fun)).iso:
        case.fail("weak equivalence with non-isomorphic component map",
                  functor=fun)
    if instance.pointed and not classify_morphism(pi1_induced(fun)).iso:
        case.fail("weak equivalence with non-isomorphic loop map",
                  functor=fun)


@_suite("mediator-uniqueness", _ALL)
def _check_mediator_uniqueness(instance, case):
    """A limit's apex lists each tuple of leg values once, so its legs
    are jointly injective and a cone factors through it at most once."""
    rng = case.rng
    kinds = ["pullback", "product", "h-object", "h-arrow"]
    if instance.pointed:
        kinds.append("kernel")
    kind = rng.choice(kinds)
    if kind in ("pullback", "product", "kernel"):
        x = _random_object(instance, rng, 5)
        z = _random_object(instance, rng, 5)
        if kind == "pullback":
            y = _random_object(instance, rng, 5)
            lim = pullback(_random_map(x, z, rng), _random_map(y, z, rng))
        elif kind == "product":
            lim = product(x, z)
        else:
            lim = kernel(_random_map(x, z, rng))
    else:
        small = 3 if instance is not FINAB else 4
        b = _random_groupoid(instance, rng, small)
        f = _cospan_leg(b, rng)
        g = _cospan_leg(b, rng)
        hp = strong_h_pullback(f, g)
        lim = hp.object_limit if kind == "h-object" else hp.arrow_limit
    if len(set(zip(*(leg.map for leg in lim.legs.values())))) < lim.apex.size:
        case.fail("apex lists an element twice", kind=kind, apex=lim.apex)


def _cospan_leg(b: InternalGroupoid, rng) -> InternalFunctor:
    roll = rng.random()
    if roll < 0.4:
        return identity_functor(b)
    if roll < 0.7:
        return _subgroupoid_inclusion(b, rng)
    a = discrete_groupoid(_random_object(b.instance, rng, 2))
    f0 = _random_map(a.B0, b.B0, rng)
    return functor(a, b, f0, lambda o: b.e(f0(o)))


def suite_names():
    return list(SUITES)


def run_suite(name, instance, n_cases, seed) -> SuiteReport:
    """Run the first ``n_cases`` cases (``None``: the registered bound) of
    a suite on one instance, up to the third witness on a witness instance.

    Instances outside the suite's capability list produce an empty report
    with zero cases, so "all" loops can iterate uniformly.
    """
    spec = SUITES.get(name)
    if spec is None:
        raise DiagramError(f"unknown suite {name!r}")
    if n_cases is None:
        n_cases = spec.default_cases
    if type(n_cases) is not int or n_cases < 1:
        raise DiagramError(f"a suite's case count must be an int >= 1, "
                           f"not {n_cases!r}")
    applies = instance.name in spec.instances
    expects_witness = applies and instance.name in spec.witness_instances
    cases, failures = 0, []
    if applies:
        for cases, found in enumerate(
                islice(spec.stream(instance, seed), n_cases), 1):
            failures += found
            if expects_witness and len(failures) >= 3:
                break
    return SuiteReport(suite=name, instance=instance.name, seed=seed,
                       cases=cases, failures=failures,
                       expects_witness=expects_witness)
