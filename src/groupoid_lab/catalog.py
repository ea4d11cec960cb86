"""The fixed catalogues that the verify searches walk, smallest first.

A catalogue is a deterministic list or stream with no randomness: the
FinAb objects Z1 to Zn (with Z2 x Z2 from n = 4), the pointed sets of
at most n elements, the small FinAb groupoids, and the commutative
squares over the first two whose top map is a regular epi.  A search
numbers its verdicts by position in one of them, so the order of each
is part of every pinned report.  ``_hom_memo`` lists each hom set a
search reads once.
"""

from __future__ import annotations

from math import gcd

from .arrow import ArrowMorphism, ArrowObject, _then
from .base import (
    FINAB,
    classify_morphism,
    direct_sum,
    enumerate_morphisms,
    finptdset_object,
    zmod,
)
from .generators import _cyclic_hom
from .groupoid import (
    delooping,
    discrete_groupoid,
    groupoid_from_arrow,
    indiscrete_groupoid,
)


def _finab_catalog(max_order):
    objs = [zmod(k) for k in range(1, max_order + 1)]
    if max_order >= 4:
        objs.append(direct_sum(zmod(2), zmod(2)))
    return sorted(objs, key=lambda o: o.size)


def _finptdset_catalog(max_size):
    return [finptdset_object(["*"] + [f"x{i}" for i in range(1, n)], 0)
            for n in range(1, max_size + 1)]


def _groupoid_catalog(max_arrows):
    """FinAb groupoids with at most ``max_arrows`` arrows, smallest first."""
    out = []
    for g in _finab_catalog(max_arrows):
        out.append(delooping(g))
        out.append(discrete_groupoid(g))
    out.append(indiscrete_groupoid(zmod(2)))
    for m in range(1, max_arrows + 1):
        for n in range(1, max_arrows // m + 1):
            for j in range(gcd(m, n)):
                out.append(groupoid_from_arrow(_cyclic_hom(m, n, j)))
    return sorted(out, key=lambda b: (b.B1.size, b.B0.size))


def _hom_memo():
    """``enumerate_morphisms`` as a list, memoized per pair of objects."""
    homs = {}

    def hom(x, y):
        key = (id(x), id(y))
        if key not in homs:
            homs[key] = list(enumerate_morphisms(x, y))
        return homs[key]

    return hom


def _fibration_squares(instance):
    """Deterministic stream of the squares the protomodularity sweep reads.

    These are the commutative squares of the catalogue whose top map is a
    regular epi, smallest carriers first; each hom list is classified once.
    Quadruples (a, a0, b, b0) with no regular epi a -> b hold no square and
    are dropped before the (stable) sort.  Squares commute on index tables:
    per quadruple the table of top;f0 is built once, per bottom map the
    epis f are bucketed by the table of f;bot, so each (top, f0) finds its
    squares by one lookup.
    """
    if instance is FINAB:
        objs = _finab_catalog(8)
    else:
        objs = _finptdset_catalog(3)
    hom = _hom_memo()
    epis = {(id(x), id(y)): [f for f in hom(x, y)
                             if classify_morphism(f).regular_epi]
            for x in objs for y in objs}
    quads = sorted(
        ((a, a0, b, b0) for a in objs for a0 in objs
         for b in objs if epis[id(a), id(b)] for b0 in objs),
        key=lambda q: (sum(o.size for o in q),
                       tuple(o.size for o in q)))
    for a_obj, a0_obj, b_obj, b0_obj in quads:
        f0s = hom(a0_obj, b0_obj)
        sides = [(ArrowObject(top), [(f0, _then(top, f0)) for f0 in f0s])
                 for top in hom(a_obj, a0_obj)]
        for bot in hom(b_obj, b0_obj):
            cod = ArrowObject(bot)
            by_table = {}
            for f in epis[id(a_obj), id(b_obj)]:
                by_table.setdefault(_then(f, bot), []).append(f)
            for dom, tables in sides:
                for f0, table in tables:
                    for f in by_table.get(table, ()):
                        yield ArrowMorphism(dom, cod, f, f0, True)
