"""Re-validate what the library builds trusted.

Limit apexes, legs, mediators, subgroups, quotients, direct sums, zero
objects, enumerated homs, sections, induced maps of components, the
structure maps of built groupoids and the squares the arrow layer builds
(kernel inclusions, kernel comparisons with the bottom maps they share,
and the protomodularity sweep's stream) skip construction-time validation
because they are valid by construction.
These tests build each of them from seeded inputs, run the skipped checks
by hand, and run the axiom validators on every groupoid and functor built.
"""

from itertools import islice

import pytest

from groupoid_lab.arrow import (
    ArrowMorphism,
    ArrowObject,
    _fibre_flags,
    comparison_J_arr,
    is_essentially_surjective_arr,
    kernel_arr,
    normalize,
)
from groupoid_lab.base import (
    FINAB,
    FINPTDSET,
    FINSET,
    BaseMorphism,
    BaseObject,
    LimitResult,
    comma,
    direct_sum,
    enumerate_morphisms,
    generated_subgroup_indices,
    identity,
    kernel,
    product,
    pullback,
    quotient_by_subgroup,
    split_section,
    subobject_limit,
    zero_morphism,
    zero_object,
)
from groupoid_lab.groupoid import (
    InternalFunctor,
    InternalGroupoid,
    NatTransformation,
    validate_functor,
    validate_groupoid,
    validate_transformation,
)
from groupoid_lab.groupoid import (full_subgroupoid, pi0, pi0_induced, pi1,
                                   product_groupoid)
from groupoid_lab.catalog import _fibration_squares
from groupoid_lab.generators import gen_functor
from groupoid_lab.harness import _j_flags
from groupoid_lab.holim import (
    arrow_groupoid,
    comparison_J_data,
    comparison_T_data,
    kernel_groupoid,
    strong_h_pullback,
)


def _recheck(value, seen):
    """Run every skipped validation and axiom check reachable from value."""
    if id(value) in seen:
        return
    seen.add(id(value))
    if isinstance(value, BaseObject):
        value._validate()
    elif isinstance(value, BaseMorphism):
        _recheck(value.dom, seen)
        _recheck(value.cod, seen)
        value._validate()
    elif isinstance(value, LimitResult):
        _recheck(value.apex, seen)
        for leg in value.legs.values():
            _recheck(leg, seen)
    elif isinstance(value, ArrowMorphism):
        for part in (value.dom.a, value.cod.a, value.f, value.f0):
            _recheck(part, seen)
        # the untrusted rebuild checks typing and commutation
        ArrowMorphism(value.dom, value.cod, value.f, value.f0)
    elif isinstance(value, InternalGroupoid):
        for part in (value.B0, value.B1, value.d, value.c, value.e,
                     value.m, value.i):
            _recheck(part, seen)
        assert validate_groupoid(value) == []
    elif isinstance(value, InternalFunctor):
        for part in (value.dom, value.cod, value.F0, value.F1):
            _recheck(part, seen)
        assert validate_functor(value) == []
    elif isinstance(value, NatTransformation):
        for part in (value.source, value.target, value.alpha):
            _recheck(part, seen)
        assert validate_transformation(value) == []
    else:
        raise TypeError(f"nothing to re-check on {value!r}")


def _built_from(fun):
    """Every trusted construction the library makes from one functor."""
    a, b = fun.dom, fun.cod
    pointed = a.instance.pointed
    if a.instance is FINAB:
        objects = generated_subgroup_indices(a.B0,
                                             a.B0.generating_sequence()[:1])
    else:  # the zero (if any) and the last object
        objects = [o for o in (a.B0.zero, a.B0.size - 1) if o is not None]
    built = [
        fun,
        pullback(fun.F1, fun.F1),
        product(a.B0, b.B1),
        comma(fun.F0, b.d, b.c, fun.F0, ("source", "arrow", "target")),
        pullback(fun.F0, fun.F0).mediate(
            {"p1": identity(a.B0), "p2": identity(a.B0)}),
        *enumerate_morphisms(a.B0, b.B0),
        arrow_groupoid(b).groupoid,
        strong_h_pullback(fun, fun).groupoid,
        *product_groupoid(a, b),
        *full_subgroupoid(a, objects),
    ]
    # pi0 ends in the one quotient constructor on every instance, and the
    # induced map is read off the two projections
    for g in (a, b):
        _, projection = pi0(g)
        built += [projection, split_section(projection)]
    built.append(pi0_induced(fun))
    if a.instance is FINAB:
        sub = generated_subgroup_indices(b.B1, b.B1.generating_sequence()[:1])
        quotient, projection = quotient_by_subgroup(b.B1, sub)
        built += [subobject_limit(b.B1, sub).apex, quotient, projection,
                  split_section(projection), direct_sum(a.B1, b.B0)]
    t_data = comparison_T_data(fun)
    built += [t_data.strict.groupoid, t_data.strict.to_first,
              t_data.strict.to_second, t_data.relaxed.to_f_dom,
              t_data.relaxed.to_g_dom, t_data.relaxed.cell,
              t_data.relaxed.object_limit, t_data.relaxed.arrow_limit,
              t_data.functor]
    if pointed:
        j_data = comparison_J_data(fun)
        square = normalize(fun)
        built += [zero_object(a.instance), kernel(fun.F1),
                  *kernel_groupoid(fun), *pi1(a),
                  j_data.strict.groupoid, j_data.strict.to_second,
                  j_data.relaxed.to_f_dom,
                  j_data.functor, kernel_arr(square),
                  comparison_J_arr(square)]
    built += islice(_fibration_squares(a.instance), 50)
    return [v for v in built if v is not None]


# Seeds whose groupoids keep every apex small enough for the O(n^2)
# re-checks to finish in well under a second each.
_POINTED_SEEDS = [(FINAB, 5), (FINAB, 13), (FINAB, 24),
                  (FINPTDSET, 0), (FINPTDSET, 1), (FINPTDSET, 6)]
_SEEDS = _POINTED_SEEDS + [(FINSET, 4), (FINSET, 5), (FINSET, 6)]


@pytest.mark.parametrize("instance, seed", _SEEDS)
def test_trusted_constructions_pass_full_validation(instance, seed):
    seen = set()
    for value in _built_from(gen_functor(instance, seed)):
        _recheck(value, seen)


@pytest.mark.parametrize("instance, seed", _POINTED_SEEDS)
def test_a_kept_kernel_passes_full_validation(instance, seed):
    fun = gen_functor(instance, seed)
    kg, _ = kernel_groupoid(fun)  # takes the kernels of F0 and F1
    kept = fun.F1._kernel
    assert kept is not None and kernel(fun.F1) is kept
    _recheck(kept, set())
    _recheck(kg, set())


@pytest.mark.parametrize("instance, count", [(FINAB, 300), (FINPTDSET, 795)])
def test_a_shared_j_bottom_matches_a_fresh_one(instance, count):
    # a stream square's J reads the bottom kept for an earlier square with
    # its codomain object and f0; it must be the J built afresh
    seen, squares = set(), list(islice(_fibration_squares(instance), count))
    assert len(squares) == count
    bottoms = set()
    for m in squares:
        j = comparison_J_arr(m)
        bottoms.add(id(j.f0))
        ker = kernel_arr(m)
        lim = pullback(m.f0, m.cod.a)
        bottom = lim.mediate(
            {"p1": ker.f0,
             "p2": zero_morphism(ker.dom.bottom, m.cod.top)})
        assert j.f0 == bottom
        _recheck(j, seen)
        fresh = ArrowMorphism(ker.dom,
                              ArrowObject(lim.mediate({"p1": m.dom.a,
                                                       "p2": m.f})),
                              ker.f, bottom)
        assert _j_flags(m) == (all(_fibre_flags(fresh)),
                               is_essentially_surjective_arr(fresh))
    assert len(bottoms) < count  # some squares did share a bottom
