"""The arrow category with null-homotopies, and the normalization functor.

An object is a single base morphism a: A -> A0, a morphism is a commutative
square (f, f0), and a null-homotopy of a square is a diagonal filler.  The
category carries kernels (levelwise) and strong h-kernels (built from one
pullback), giving classification notions that mirror the internal-functor
ones: the fibres of the two vertical arrows decide faithful / full / fully
faithful (the flags of the endpoint-image factorization, with no pullback
built), joint surjectivity onto the base decides essential surjectivity,
and the top component decides fibrations.  The kernel comparison J is
read off the two base kernels and the endpoint pullback: it builds neither
the kernel square nor the strong h-kernel's inclusion.

``normalize`` translates internal groupoids and functors into this category
by restricting to kernel arrows of d; the comparison helpers at the bottom
exhibit the canonical isos showing the translation preserves kernels and
strong h-kernels.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field

from .base import (
    BaseMorphism,
    CapabilityError,
    DiagramError,
    LimitResult,
    NoMediatorError,
    classify_morphism,
    compose,
    identity,
    jointly_strongly_epi,
    kernel,
    product,
    pullback,
    zero_morphism,
)
from .groupoid import (
    InternalFunctor,
    InternalGroupoid,
    NatTransformation,
    groupoid_from_arrow,
    zero_functor,
)
from .holim import HPullback


@dataclass
class ArrowObject:
    """A single base morphism, seen as an object of the arrow category.

    As the codomain of squares it keeps the pullback of each bottom map f0
    against ``a`` that their endpoint factorizations read, and the bottom
    map of their kernel comparison J once one is built, keyed by
    ``id(f0)`` next to f0 itself: squares into one object that share their
    f0 share both, and they are freed with the object.  The table is made
    on the first square that asks, so an object no square reads this way
    (J's own two) holds none.
    """

    a: BaseMorphism
    _pullbacks: dict | None = field(default=None, init=False,
                                    compare=False, repr=False)

    @property
    def top(self):
        return self.a.dom

    @property
    def bottom(self):
        return self.a.cod


@dataclass
class ArrowMorphism:
    """A commutative square between two arrow objects.

    Squares the library builds and knows to commute pass the private
    ``_trusted`` as True, last and positionally, and skip the typing and
    commutation checks, as BaseObject and BaseMorphism do.
    """

    dom: ArrowObject
    cod: ArrowObject
    f: BaseMorphism
    f0: BaseMorphism
    _trusted: InitVar[bool] = False

    def __post_init__(self, _trusted):
        if _trusted:
            return
        if self.f.dom != self.dom.top or self.f.cod != self.cod.top:
            raise DiagramError("top component is mistyped")
        if self.f0.dom != self.dom.bottom or self.f0.cod != self.cod.bottom:
            raise DiagramError("bottom component is mistyped")
        if _then(self.dom.a, self.f0) != _then(self.f, self.cod.a):
            raise DiagramError("square does not commute")


@dataclass
class Diagonal:
    """A null-homotopy: a diagonal filler of a commutative square."""

    morphism: ArrowMorphism
    d: BaseMorphism

    def __post_init__(self):
        m = self.morphism
        if self.d.dom != m.dom.bottom or self.d.cod != m.cod.top:
            raise DiagramError("diagonal is mistyped")
        if _then(m.dom.a, self.d) != m.f.map:
            raise DiagramError("diagonal misses the top triangle")
        if _then(self.d, m.cod.a) != m.f0.map:
            raise DiagramError("diagonal misses the bottom triangle")


def _then(f: BaseMorphism, g: BaseMorphism) -> tuple:
    """The index table of compose(f, g), without building the composite."""
    g_map = g.map
    return tuple([g_map[j] for j in f.map])


def identity_arr(obj: ArrowObject) -> ArrowMorphism:
    return ArrowMorphism(obj, obj, identity(obj.top), identity(obj.bottom))


def compose_arr(first: ArrowMorphism, second: ArrowMorphism) -> ArrowMorphism:
    if first.cod != second.dom:
        raise DiagramError("squares are not composable")
    return ArrowMorphism(first.dom, second.cod,
                         compose(first.f, second.f),
                         compose(first.f0, second.f0))


def act_on_diagonal(pre: ArrowMorphism, mu: Diagonal,
                    post: ArrowMorphism) -> Diagonal:
    """Paste a diagonal between squares composed on either side.

    The result fills pre . mu.morphism . post, running through the bottom
    of pre, the diagonal itself, then the top of post.
    """
    whole = compose_arr(compose_arr(pre, mu.morphism), post)
    return Diagonal(whole, compose(pre.f0, mu.d, post.f))


# ---------------------------------------------------------------------------
# kernels and strong h-kernels


def _kernels(m: ArrowMorphism):
    """The top and bottom inclusions of a square's levelwise kernel, and
    the restricted vertical arrow ker f -> ker f0 between them."""
    top, bottom = kernel(m.f), kernel(m.f0)
    restricted = bottom.mediate({"ker": compose(top.legs["ker"], m.dom.a)})
    return top.legs["ker"], bottom.legs["ker"], restricted


def kernel_arr(m: ArrowMorphism) -> ArrowMorphism:
    """Levelwise kernel of a square, as its inclusion square: its ``dom`` is
    the kernel object, the restricted vertical arrow."""
    top, bottom, restricted = _kernels(m)
    return ArrowMorphism(ArrowObject(restricted), m.dom, top, bottom, True)


@dataclass
class ArrowHKernel:
    """Strong h-kernel triple (object ``inclusion.dom``) and its pullback."""

    of: ArrowMorphism
    inclusion: ArrowMorphism
    diagonal: Diagonal
    limit: LimitResult


def _kept_entry(m: ArrowMorphism) -> list:
    """The entry [f0, pullback of f0 and m.cod.a, J's bottom or None] kept
    on the codomain object for m.f0, built on the first square that asks.

    The entry holds f0, so no other map can take its id while it lives.
    """
    f0, kept = m.f0, m.cod._pullbacks
    if kept is None:
        kept = m.cod._pullbacks = {}
    hit = kept.get(id(f0))
    if hit is None:
        hit = kept[id(f0)] = [f0, pullback(f0, m.cod.a), None]
    return hit


def _endpoint_factorization(m: ArrowMorphism):
    """The pullback of m.f0 and m.cod.a, and (m.dom.a, m.f) mediated into it.

    The pullback is built once per codomain object and f0, and kept on the
    codomain object.
    """
    lim = _kept_entry(m)[1]
    return lim, lim.mediate({"p1": m.dom.a, "p2": m.f})


def partial_zero_arr(m: ArrowMorphism) -> BaseMorphism:
    """The endpoint-image factorization of a square through one pullback."""
    return _endpoint_factorization(m)[1]


def strong_h_kernel_arr(m: ArrowMorphism) -> ArrowHKernel:
    """The strong h-kernel triple of a square, built from one pullback.

    The object is the endpoint factorization of the square, the inclusion
    keeps the top and projects the bottom onto the first leg, and the
    diagonal is the second leg, filling the inclusion followed by m.
    """
    if not m.dom.top.instance.pointed:
        raise CapabilityError("strong h-kernels need a pointed instance")
    lim, endpoint = _endpoint_factorization(m)
    incl = ArrowMorphism(ArrowObject(endpoint), m.dom, identity(m.dom.top),
                         lim.legs["p1"])
    diag = Diagonal(compose_arr(incl, m), lim.legs["p2"])
    return ArrowHKernel(of=m, inclusion=incl, diagonal=diag, limit=lim)


def h_kernel_factorization(hk: ArrowHKernel, g: ArrowMorphism,
                           mu: Diagonal) -> ArrowMorphism:
    """The unique square through the h-kernel inducing (g, mu).

    mu must fill the composite of g with the measured square; the result
    keeps the top of g and pairs its bottom with the diagonal.
    """
    if g.cod != hk.of.dom or mu.morphism != compose_arr(g, hk.of):
        raise NoMediatorError("triple is mistyped for the h-kernel")
    paired = hk.limit.mediate({"p1": g.f0, "p2": mu.d})
    factor = ArrowMorphism(g.dom, hk.inclusion.dom, g.f, paired)
    if compose_arr(factor, hk.inclusion) != g:
        raise NoMediatorError("factorization fails the projection law")
    recovered = act_on_diagonal(factor, hk.diagonal, identity_arr(hk.of.cod))
    if recovered.d != mu.d:
        raise NoMediatorError("factorization fails the homotopy law")
    return factor


def strong_lift(hk: ArrowHKernel, h: ArrowMorphism, mu: Diagonal) -> Diagonal:
    """The unique diagonal of h hiding behind a diagonal of h . inclusion.

    Requires the compatibility equation between mu pasted with the measured
    square and h pasted with the h-kernel's own diagonal; under it, the
    underlying map of mu already fills h itself.
    """
    if h.cod != hk.inclusion.dom or mu.morphism != compose_arr(h, hk.inclusion):
        raise NoMediatorError("triple is mistyped for the strong lift")
    via_square = act_on_diagonal(identity_arr(h.dom), mu, hk.of)
    via_kernel = act_on_diagonal(h, hk.diagonal, identity_arr(hk.of.cod))
    if via_square.d != via_kernel.d:
        raise NoMediatorError("lift condition fails")
    lifted = Diagonal(h, mu.d)
    assert act_on_diagonal(identity_arr(h.dom), lifted,
                           hk.inclusion).d == mu.d
    return lifted


def comparison_J_arr(m: ArrowMorphism) -> ArrowMorphism:
    """Canonical comparison from the kernel into the strong h-kernel.

    Reads the two base kernels of f and f0 and the restricted arrow between
    them, and of the strong h-kernel only its pullback and its object: it
    builds neither the kernel square nor the strong h-kernel's inclusion or
    diagonal.  The bottom pairs the bottom kernel inclusion with the zero
    diagonal.  That bottom reads only f0 and the codomain object, so the
    first J that asks keeps it in their entry beside the endpoint pullback,
    and squares sharing both share it.
    """
    if not m.dom.top.instance.pointed:
        raise CapabilityError("strong h-kernels need a pointed instance")
    top, bottom, restricted = _kernels(m)
    entry = _kept_entry(m)
    _, lim, j_bottom = entry
    if j_bottom is None:
        j_bottom = entry[2] = lim.mediate(
            {"p1": bottom, "p2": zero_morphism(bottom.dom, m.cod.top)})
    endpoint = lim.mediate({"p1": m.dom.a, "p2": m.f})
    return ArrowMorphism(ArrowObject(restricted), ArrowObject(endpoint), top,
                         j_bottom, True)


# ---------------------------------------------------------------------------
# classification


def _fibre_flags(m: ArrowMorphism) -> tuple[bool, bool]:
    """(faithful, full) of a square, counted on the fibres of its arrows.

    These are the mono and regular-epi flags of the endpoint factorization
    x -> (a x, f x) into A0 x_B0 B, decided without building the pullback.
    It is injective iff the pairs (a x, f x) are distinct, that is iff f is
    injective on every fibre a^-1(x0).  As the square commutes, its image
    lies in the pullback, which has |b^-1(f0 x0)| points over each x0; so
    it is surjective iff the two counts agree, that is iff f maps every
    a^-1(x0) onto b^-1(f0 x0), also where the a-fibre is empty.
    """
    image = len(set(zip(m.dom.a.map, m.f.map)))
    b_fibre = [0] * m.cod.bottom.size
    for x0 in m.cod.a.map:
        b_fibre[x0] += 1
    apex = sum(map(b_fibre.__getitem__, m.f0.map))
    return image == len(m.f.map), image == apex


def is_essentially_surjective_arr(m: ArrowMorphism) -> bool:
    return jointly_strongly_epi([m.f0, m.cod.a])


def classify_arrow_morphism(m: ArrowMorphism) -> dict:
    """All square-level classification flags.

    Faithful and full are counted on fibres, with no pullback built; the
    star flag builds the kernel comparison, so pointed instances only.
    """
    if not m.dom.top.instance.pointed:
        raise CapabilityError("square classification needs a pointed instance")
    faithful, full = _fibre_flags(m)
    ff = faithful and full
    ess = is_essentially_surjective_arr(m)
    return {
        "faithful": faithful,
        "full": full,
        "fully_faithful": ff,
        "essentially_surjective": ess,
        "weak_equivalence": ff and ess,
        "fibration": classify_morphism(m.f).regular_epi,
        "star_fibration": is_essentially_surjective_arr(comparison_J_arr(m)),
    }


# ---------------------------------------------------------------------------
# normalization


def normalize_obj(grp: InternalGroupoid) -> ArrowObject:
    """Restrict a groupoid to its arrows out of zero, as a single map.

    The object is the endpoint map: kernel arrows of d, sent to their
    codomain object.
    """
    lim = kernel(grp.d)
    return ArrowObject(compose(lim.legs["ker"], grp.c))


def normalize(fun: InternalFunctor) -> ArrowMorphism:
    """The square a functor induces between the normalized endpoint maps."""
    down = kernel(fun.dom.d)
    up = kernel(fun.cod.d)
    restricted = up.mediate({"ker": compose(down.legs["ker"], fun.F1)})
    return ArrowMorphism(normalize_obj(fun.dom), normalize_obj(fun.cod),
                         restricted, fun.F0)


def normalize_homotopy(cell: NatTransformation) -> Diagonal:
    """Translate a null-homotopy (a 2-cell out of zero) into a diagonal.

    The source must be the zero functor and the component map must land on
    kernel arrows of d; any other 2-cell is rejected.
    """
    fun = cell.target
    if cell.source != zero_functor(fun.dom, fun.cod):
        raise NoMediatorError("2-cell source is not the zero functor")
    lift = kernel(fun.cod.d).mediate({"ker": cell.alpha})
    return Diagonal(normalize(fun), lift)


def graph_comparison(delta: BaseMorphism) -> ArrowMorphism:
    """Canonical iso from the normalization of a graph groupoid back to it.

    Kernel arrows of the graph groupoid on delta are the pairs (0, n); the
    correspondence (0, n) -> n identifies the normalized object with delta
    itself.
    """
    grp = groupoid_from_arrow(delta)  # its arrows: product(cod, dom).apex
    top = compose(kernel(grp.d).legs["ker"],
                  product(delta.cod, delta.dom).legs["p2"])
    return ArrowMorphism(normalize_obj(grp), ArrowObject(delta), top, identity(delta.cod))


def kernel_preservation_comparison(incl: InternalFunctor,
                                   square: ArrowMorphism,
                                   ker: ArrowMorphism) -> ArrowMorphism:
    """Canonical iso: normalize the kernel, or take the square's kernel.

    ``incl`` is the level-wise kernel's inclusion into a functor's domain
    (``kernel_groupoid``), ``square`` the functor's normalization and
    ``ker`` its kernel square ``kernel_arr(square)``, whose ``dom`` is the
    comparison's codomain.  Both sides carve the same arrows out of the
    domain (those killed by d and by the functor); the comparison
    re-indexes one carrier into the other and must be a levelwise iso.
    """
    kg = incl.dom
    inner = kernel(incl.cod.d).mediate(
        {"ker": compose(kernel(kg.d).legs["ker"], incl.F1)})
    top = kernel(square.f).mediate({"ker": inner})
    bottom = kernel(square.f0).mediate({"ker": incl.F0})
    return ArrowMorphism(normalize_obj(kg), ker.dom, top, bottom)


def h_kernel_preservation_comparison(hk: HPullback,
                                     arr: ArrowHKernel) -> ArrowMorphism:
    """Canonical iso between the two strong h-kernels of a functor.

    Normalizing the groupoid-level strong h-kernel ``hk`` of a functor, or
    taking the square-level strong h-kernel ``arr`` of its normalization,
    gives the same object up to the comparison built here: the top
    re-indexes kernel arrows through the projection, the bottom pairs the
    projected object with the universal 2-cell's component.
    """
    fun, proj = hk.f, hk.to_f_dom
    top = kernel(fun.dom.d).mediate(
        {"ker": compose(kernel(hk.groupoid.d).legs["ker"], proj.F1)})
    beta = kernel(fun.cod.d).mediate({"ker": hk.cell.alpha})
    bottom = arr.limit.mediate({"p1": proj.F0, "p2": beta})
    return ArrowMorphism(normalize_obj(hk.groupoid), arr.inclusion.dom, top,
                         bottom)
