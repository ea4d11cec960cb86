"""Homotopy limits of internal groupoids.

Every construction is a finite limit in the base instance.  The level-wise
ones hand a base limit of objects and one of arrows to
``groupoid.levelwise_groupoid``, which derives the structure maps and the
composition from the legs:

* ``pullback_groupoid`` -- strict pullbacks, which are automatically
  strong: every compatible pair of 2-cells into the legs factors through
  the apex (``mediate_pullback_cell``).
* ``strong_h_pullback`` -- the homotopy pullback of a cospan of functors,
  a comma object per level with the square groupoid in the middle, with
  both halves of its universal property
  (``mediate_h_pullback``, ``mediate_h_pullback_cell``); ``strong_h_kernel``
  is the strong h-pullback along the zero functor 0 -> B.
* ``kernel_groupoid`` -- the level-wise kernel.

A mediator takes each 2-cell of its cone as its components X0 -> B1, as
the functors beside it fix the cell's ends; T, J and the h-kernel's cone
all go through ``mediate_h_pullback``.

``arrow_groupoid`` is the groupoid of commutative squares of B: the
pullback of the composition map against itself, with its two evaluation
functors and the tautological 2-cell between them.  Its structure maps
are composites of the legs of ``pullback(m, m)`` and of the composable
pairs, or mediators into them.  T and J are one comparison along a leg g
into the codomain: from the strict pullback along g into the strong
h-pullback along g.  ``comparison_T`` takes g = Dis(B0) -> B, the object
inclusion, and ``comparison_J`` takes g = 0 -> B, so J runs out of the
strict pullback along zero (the kernel, objects (0, a)) into the strong
h-kernel.  Both legs send every arrow to an identity, so T and J read
only the n^3 |G|^2 squares with an identity top, not all n^4 |G|^3 of a
connected B with n objects and vertex group G.

Squares are encoded as pairs of composable pairs: a square with sides
``left: x -> y``, ``right: x' -> y'``, ``top: x -> x'``, ``bottom: y -> y'``
and ``left . bottom = top . right`` is stored as
``((left, bottom), (top, right))``.  As an arrow of the square groupoid it
points from ``left`` to ``right``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .base import (
    BaseMorphism,
    CapabilityError,
    CompositionError,
    DiagramError,
    LimitResult,
    NoMediatorError,
    classify_morphism,
    comma,
    compose,
    identity,
    kernel,
    pullback,
)
from .groupoid import (
    InternalFunctor,
    InternalGroupoid,
    NatTransformation,
    _assemble,
    _index_mul,
    compose_functors,
    discrete_embedding,
    levelwise_groupoid,
    validate_transformation,
    zero_functor,
    zero_groupoid,
)


# ---------------------------------------------------------------------------
# strict pullbacks


@dataclass
class GroupoidPullback:
    """A level-wise pullback of groupoids with its projection functors.

    ``to_first`` lands in the domain of the first cospan leg, ``to_second``
    in the domain of the second; the limit results are kept so strict cones
    can be mediated later.
    """

    groupoid: InternalGroupoid
    to_first: InternalFunctor
    to_second: InternalFunctor
    object_limit: LimitResult
    arrow_limit: LimitResult


def pullback_groupoid(f: InternalFunctor, g: InternalFunctor) -> GroupoidPullback:
    """Strict pullback of a cospan of functors, computed level-wise.

    Carrier elements are pairs (x, y) with f(x) = g(y), at both levels;
    structure maps act componentwise.
    """
    if f.cod != g.cod:
        raise DiagramError("pullback needs a common codomain groupoid")
    lim0 = pullback(f.F0, g.F0)
    lim1 = pullback(f.F1, g.F1)
    grp, (to_first, to_second) = levelwise_groupoid(lim0, lim1, [f.dom, g.dom])
    return GroupoidPullback(grp, to_first, to_second, lim0, lim1)


def mediate_pullback(pb: GroupoidPullback, u: InternalFunctor,
                     v: InternalFunctor) -> InternalFunctor:
    """The unique functor into a strict pullback recovering both legs."""
    if u.dom != v.dom:
        raise CompositionError("cone legs have different source groupoids")
    t0 = pb.object_limit.mediate({"p1": u.F0, "p2": v.F0})
    t1 = pb.arrow_limit.mediate({"p1": u.F1, "p2": v.F1})
    return InternalFunctor(u.dom, pb.groupoid, t0, t1)


def mediate_pullback_cell(pb: GroupoidPullback, left: InternalFunctor,
                          right: InternalFunctor, alpha: BaseMorphism,
                          beta: BaseMorphism) -> NatTransformation:
    """The 2-dimensional half of strictness for level-wise pullbacks.

    Given L, M into the pullback and the components alpha, beta of 2-cells
    L.to_first => M.to_first, L.to_second => M.to_second whose whiskered
    composites into the cospan codomain agree, returns the unique (checked)
    2-cell L => M projecting to both, with components (alpha_x, beta_x).
    """
    amap = pb.arrow_limit.mediate({"p1": alpha, "p2": beta})
    cell = NatTransformation(left, right, amap)
    bad = validate_transformation(cell)
    if bad:
        raise NoMediatorError(f"paired cell fails {bad}")
    return cell


# ---------------------------------------------------------------------------
# the groupoid of commutative squares


@dataclass
class ArrowGroupoid:
    """The groupoid of commutative squares of a base groupoid.

    Objects are the arrows of B; an arrow from ``left`` to ``right`` is a
    commutative square as described in the module docstring.  ``eval_dom``
    and ``eval_cod`` send a square to its top and bottom side (and an object
    arrow to its source and target object); ``cell`` is the tautological
    transformation eval_dom => eval_cod whose component at an arrow is that
    arrow itself.  ``pairs`` is the defining pullback of m against m, or
    with ``identity_tops`` the graph of the inner pair of each outer one.
    """

    groupoid: InternalGroupoid
    eval_dom: InternalFunctor
    eval_cod: InternalFunctor
    cell: NatTransformation
    pairs: LimitResult
    identity_tops: bool


def _square_map(sq, pairs, left, bottom, top, right) -> BaseMorphism:
    """The mediator into the squares ``sq`` over ``pairs`` with these sides."""
    return sq.mediate({"p1": pairs.mediate({"p1": left, "p2": bottom}),
                       "p2": pairs.mediate({"p1": top, "p2": right})})


def arrow_groupoid(b: InternalGroupoid,
                   identity_tops: bool = False) -> ArrowGroupoid:
    """Build the square groupoid of ``b`` with its evaluation structure,
    or with ``identity_tops`` its sub-groupoid of squares whose top is an
    identity: one per outer pair (left, bottom), with inner pair (e d m, m).
    """
    pairs = b.composition_pairs()
    first, second = pairs.legs["p1"], pairs.legs["p2"]
    if identity_tops:
        inner_of = pairs.mediate({"p1": compose(b.m, b.d, b.e), "p2": b.m})
        sq = pullback(inner_of, identity(pairs.apex))
    else:
        sq = pullback(b.m, b.m)
    # a square is ((left, bottom), (top, right)): outer then inner pair
    outer, inner = sq.legs["p1"], sq.legs["p2"]
    d, c = compose(outer, first), compose(inner, second)
    top, bottom = compose(inner, first), compose(outer, second)
    e = _square_map(sq, pairs, identity(b.B1), compose(b.c, b.e),
                    compose(b.d, b.e), identity(b.B1))
    i = _square_map(sq, pairs, c, compose(bottom, b.i), compose(top, b.i), d)
    # paste along the shared vertical side, composing tops and bottoms
    mul, look, pair = _index_mul(b), sq.lookup, pairs.lookup
    dm, cm, tm, bm = d.map, c.map, top.map, bottom.map
    grp = _assemble(b.B1, sq.apex, d, c, e, i, lambda x, y: look[
        pair[dm[x], mul(bm[x], bm[y])], pair[mul(tm[x], tm[y]), cm[y]]])
    eval_dom = InternalFunctor(grp, b, b.d, top)
    eval_cod = InternalFunctor(grp, b, b.c, bottom)
    cell = NatTransformation(eval_dom, eval_cod, identity(b.B1))
    return ArrowGroupoid(grp, eval_dom, eval_cod, cell, sq, identity_tops)


def mediate_squares(data: ArrowGroupoid, mu: NatTransformation) -> InternalFunctor:
    """The functor into the square groupoid classifying a 2-cell.

    A transformation mu: K => H between functors X -> B corresponds to the
    functor sending an object x to the component mu_x and an arrow to the
    naturality square over it.  Composing the result with eval_dom gives
    back K, with eval_cod gives H, and whiskering the tautological cell
    recovers mu.
    """
    k, h = mu.source, mu.target
    b = data.eval_dom.cod
    if k.cod != b:
        raise CompositionError("cell does not land in the square base")
    x = k.dom
    try:
        f1 = _square_map(data.pairs, b.composition_pairs(),
                         compose(x.d, mu.alpha), h.F1, k.F1,
                         compose(x.c, mu.alpha))
    except (CompositionError, NoMediatorError) as exc:
        raise DiagramError("cell components do not form squares") from exc
    return InternalFunctor(x, data.groupoid, mu.alpha, f1)


# ---------------------------------------------------------------------------
# strong h-pullbacks

@dataclass
class HPullback:
    """A strong homotopy pullback of f against g.

    ``to_f_dom`` and ``to_g_dom`` are the projection functors to the two
    leg domains, and ``cell`` is the structural 2-cell
    to_g_dom . g => to_f_dom . f whose component at an apex object is its
    middle (arrow) coordinate.  Both comma limits and the squares of the
    codomain that the leg g meets are kept for the mediators.
    """

    groupoid: InternalGroupoid
    to_f_dom: InternalFunctor
    to_g_dom: InternalFunctor
    cell: NatTransformation
    f: InternalFunctor
    g: InternalFunctor
    object_limit: LimitResult
    arrow_limit: LimitResult
    squares: ArrowGroupoid


def strong_h_pullback(f: InternalFunctor, g: InternalFunctor) -> HPullback:
    """Homotopy pullback of a cospan, as a comma object at each level.

    Level 0 consists of triples (object x of g.dom, arrow m of the
    codomain, object y of f.dom) where m runs from g x to f y; level 1 is
    the comma object one dimension up, with the square groupoid in the
    middle slot.  Each element also reads m's two ends.  Structure maps act
    componentwise.  A leg that sends every arrow to an identity, as T's and
    J's do, meets only the n^3 |G|^2 squares with an identity top (of
    n^4 |G|^3 over a connected codomain with n objects and vertex group G),
    and the middle slot holds only those.  f keeps its squares for its next
    h-pullback; a leg that moves arrows replaces them by all squares.
    """
    if f.cod != g.cod:
        raise DiagramError("strong h-pullback needs a common codomain")
    b = f.cod
    a, c = f.dom, g.dom
    identity_tops = set(g.F1.map) <= set(b.e.map)
    if f._squares is None or (f._squares.identity_tops and not identity_tops):
        f._squares = arrow_groupoid(b, identity_tops)  # T and J share it
    sq = f._squares
    sqg = sq.groupoid

    lim0 = comma(g.F0, b.d, b.c, f.F0, ("g_obj", "arrows", "f_obj"))
    lim1 = comma(g.F1, sq.eval_dom.F1, sq.eval_cod.F1, f.F1,
                 ("g_arr", "squares", "f_arr"))
    grp, (to_g, _, to_f) = levelwise_groupoid(lim0, lim1, [c, sqg, a])
    cell = NatTransformation(compose_functors(to_g, g),
                             compose_functors(to_f, f), lim0.legs["arrows"])
    return HPullback(groupoid=grp, to_f_dom=to_f, to_g_dom=to_g, cell=cell,
                     f=f, g=g, object_limit=lim0, arrow_limit=lim1,
                     squares=sq)


def mediate_h_pullback(hp: HPullback, to_f: InternalFunctor,
                       to_g: InternalFunctor,
                       alpha: BaseMorphism) -> InternalFunctor:
    """The unique functor into a strong h-pullback induced by a cone.

    The cone consists of functors to_f: X -> f.dom, to_g: X -> g.dom and
    the components alpha: X0 -> B1 of a 2-cell to_g . g => to_f . f.  The
    result T satisfies T . hp.to_f_dom = to_f, T . hp.to_g_dom = to_g, and
    recovers alpha through the structural cell.  Components that are not
    natural raise NoMediatorError.
    """
    f, g = hp.f, hp.g
    if to_f.cod != f.dom or to_g.cod != g.dom:
        raise CompositionError("cone legs do not match the cospan domains")
    if to_f.dom != to_g.dom:
        raise CompositionError("cone legs have different source groupoids")
    t0 = hp.object_limit.mediate({"g_obj": to_g.F0, "arrows": alpha,
                                  "f_obj": to_f.F0})
    cell = NatTransformation(compose_functors(to_g, g),
                             compose_functors(to_f, f), alpha)
    try:
        # the naturality square of the cone cell over each arrow
        squares = mediate_squares(hp.squares, cell)
    except DiagramError as exc:
        raise NoMediatorError("cone cell is not natural over the cospan") from exc
    t1 = hp.arrow_limit.mediate({"g_arr": to_g.F1, "squares": squares.F1,
                                 "f_arr": to_f.F1})
    return InternalFunctor(to_f.dom, hp.groupoid, t0, t1)


def mediate_h_pullback_cell(hp: HPullback, left: InternalFunctor,
                            right: InternalFunctor, g_alpha: BaseMorphism,
                            f_alpha: BaseMorphism) -> NatTransformation:
    """The 2-dimensional universal property of a strong h-pullback.

    Given functors L, M: X -> apex and the components g_alpha, f_alpha of
    2-cells L . to_g_dom => M . to_g_dom, L . to_f_dom => M . to_f_dom that
    paste compatibly with the structural cell, returns the unique (checked)
    mu: L => M whiskering to both.  The component at x is the apex arrow
    assembled from the two given components and the pasting square.
    """
    f, g, phi0 = hp.f, hp.g, hp.cell.alpha
    try:
        square = _square_map(hp.squares.pairs, f.cod.composition_pairs(),
                             compose(left.F0, phi0), compose(f_alpha, f.F1),
                             compose(g_alpha, g.F1), compose(right.F0, phi0))
        amap = hp.arrow_limit.mediate({"g_arr": g_alpha, "squares": square,
                                       "f_arr": f_alpha})
    except (CompositionError, NoMediatorError) as exc:
        raise NoMediatorError("cells do not paste with the structural cell") from exc
    cell = NatTransformation(left, right, amap)
    bad = validate_transformation(cell)
    if bad:
        raise NoMediatorError(f"assembled cell fails {bad}")
    return cell


# ---------------------------------------------------------------------------
# kernels and strong h-kernels


def kernel_groupoid(fun: InternalFunctor):
    """Level-wise kernel of a functor, with its inclusion.

    Returns (kernel groupoid, inclusion functor).  Requires a pointed
    instance: ``base.kernel`` raises CapabilityError otherwise.
    """
    grp, (incl,) = levelwise_groupoid(kernel(fun.F0), kernel(fun.F1),
                                      [fun.dom])
    return grp, incl


def _zero_leg(b: InternalGroupoid) -> InternalFunctor:
    """The zero functor 0 -> b, the leg along which kernels are taken."""
    if not b.instance.pointed:
        raise CapabilityError("strong h-kernels need a pointed instance")
    return zero_functor(zero_groupoid(b.instance), b)


def strong_h_kernel(fun: InternalFunctor) -> HPullback:
    """Strong h-kernel of a functor: its strong h-pullback along zero.

    The level-0 carrier is, up to the redundant coordinates of the limit
    tuples, the set of pairs (object a0, arrow from zero to its image);
    ``to_f_dom`` is the projection and ``cell`` the null-homotopy
    zero => to_f_dom . f.
    """
    return strong_h_pullback(fun, _zero_leg(fun.cod))


def h_kernel_into_pullback(hp: HPullback, hk: HPullback) -> InternalFunctor:
    """The mediator of a strong h-kernel's cone into a strong h-pullback.

    ``hk`` is a strong h-kernel of hp.f; its cone is the zero functor on the
    g side, its projection on the f side and its null-homotopy.  The
    mediator composes to those, and its image is a kernel of the g-side
    projection (checked in tests/test_holim.py::TestHKernelIntoPullback).
    """
    to_g = zero_functor(hk.groupoid, hp.g.dom)
    return mediate_h_pullback(hp, hk.to_f_dom, to_g, hk.cell.alpha)


# ---------------------------------------------------------------------------
# comparison functors


@dataclass
class Comparison:
    """The comparison from a strict pullback to the strong h-pullback.

    Along a leg g into the codomain of f, ``strict`` is the level-wise
    pullback of g against f, ``relaxed`` the strong h-pullback of f along
    g, and ``functor`` the mediator of the strict square, whose cell is the
    identity at each common image.
    """

    strict: GroupoidPullback
    relaxed: HPullback
    functor: InternalFunctor


def _comparison(fun: InternalFunctor, g: InternalFunctor) -> Comparison:
    strict = pullback_groupoid(g, fun)
    relaxed = strong_h_pullback(fun, g)
    functor = mediate_h_pullback(relaxed, strict.to_second, strict.to_first,
                                 compose(strict.object_limit.legs["p1"], g.F0,
                                         fun.cod.e))
    return Comparison(strict=strict, relaxed=relaxed, functor=functor)


def comparison_T_data(fun: InternalFunctor) -> Comparison:
    """The comparison along the object inclusion Dis(B0) -> B."""
    return _comparison(fun, discrete_embedding(fun.cod))


def comparison_T(fun: InternalFunctor) -> InternalFunctor:
    """Canonical comparison from the strict to the homotopy pullback.

    Its full faithfulness witnesses that level-wise pullbacks are strong;
    it is a weak equivalence exactly when the functor is a fibration.
    """
    return comparison_T_data(fun).functor


def comparison_J_data(fun: InternalFunctor) -> Comparison:
    """The comparison along the zero functor 0 -> B: out of the kernel, as
    the strict pullback along zero, into the strong h-kernel."""
    return _comparison(fun, _zero_leg(fun.cod))


def comparison_J(fun: InternalFunctor) -> InternalFunctor:
    """Canonical comparison from the kernel to the strong h-kernel.

    Always fully faithful; a weak equivalence exactly when the functor is
    a star-fibration.
    """
    return comparison_J_data(fun).functor


# ---------------------------------------------------------------------------
# square checks


def is_levelwise_pullback_square(u: InternalFunctor, v: InternalFunctor,
                                 f: InternalFunctor,
                                 g: InternalFunctor) -> bool:
    """Whether a commutative square of functors is a level-wise pullback.

    The square reads u . f = v . g with u, v out of the candidate apex.
    Both levels are checked by classifying the induced base mediator, which
    exists once the square commutes.
    """
    if compose_functors(u, f) != compose_functors(v, g):
        return False
    for uu, vv, ff, gg in ((u.F0, v.F0, f.F0, g.F0),
                           (u.F1, v.F1, f.F1, g.F1)):
        med = pullback(ff, gg).mediate({"p1": uu, "p2": vv})
        if not classify_morphism(med).iso:
            return False
    return True
