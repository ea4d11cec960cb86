"""The internal Gabriel-Zisman sequence of a functor, built from structure.

For a functor F: A -> B of pointed groupoids, HK is its strong h-kernel
and p: HK -> A the projection.  The loop groupoid OmegaB is the strong
h-pullback of the zero leg 0 -> B against itself: a discrete groupoid
whose objects are the loops at zero.  Two mediators into strong
h-pullbacks give the rest:

* M: OmegaB -> HK, from the zero functor OmegaB -> A and the loops
  themselves as the null-homotopy;
* N: OmegaB -> HK_p, from M and the identity at zero, so that
  OmegaB -> HK_p -> HK -> A -> B is a fibre sequence of groupoids.

The connecting map delta: pi1(B) -> pi0(HK) reads a loop l as the OmegaB
object whose arrow is l, sends it along M and takes its component.  The
demo prints, for each functor, whether

    pi1(HK) -> pi1(A) -> pi1(B) -> pi0(HK) -> pi0(A) -> pi0(B)

is exact at its four inner terms (the image of each map is the preimage
of zero under the next) and whether N is a weak equivalence.  It exits 1
if a sequence is not exact, if an N is not a weak equivalence, or if no
delta sends a loop off the zero component.

Run it as ``PYTHONPATH=src python demos/gabriel_zisman.py``.
"""

import sys

from groupoid_lab.base import (
    FINAB,
    FINPTDSET,
    BaseMorphism,
    compose,
    zero_morphism,
)
from groupoid_lab.classify import is_weak_equivalence
from groupoid_lab.generators import gen_fibration, gen_functor
from groupoid_lab.groupoid import (
    pi0,
    pi0_induced,
    pi1,
    pi1_induced,
    zero_functor,
    zero_groupoid,
)
from groupoid_lab.holim import (
    mediate_h_pullback,
    strong_h_kernel,
    strong_h_pullback,
)

# (generator, instance, seeds); gen_functor(FINPTDSET, 5) and
# gen_functor(FINAB, 0) have a delta that leaves the zero component
CASES = [
    (gen_functor, FINPTDSET, range(6)),
    (gen_functor, FINAB, range(4)),
    (gen_fibration, FINPTDSET, range(3)),
    (gen_fibration, FINAB, range(3)),
]


def exact_at(into, out_of) -> bool:
    """Whether the image of ``into`` is the preimage of zero under
    ``out_of``, two maps through one pointed object."""
    zero = out_of.cod.zero
    return set(into.map) == {i for i, j in enumerate(out_of.map) if j == zero}


def sequence(fun):
    """The five maps pi1(HK) -> ... -> pi0(B) of a functor, and N."""
    a, b = fun.dom, fun.cod
    hk = strong_h_kernel(fun)
    p = hk.to_f_dom
    zero_leg = zero_functor(zero_groupoid(b.instance), b)
    om = strong_h_pullback(zero_leg, zero_leg)
    loop_objects = om.groupoid.B0
    m = mediate_h_pullback(hk, zero_functor(om.groupoid, a), om.to_g_dom,
                           om.cell.alpha)
    n = mediate_h_pullback(strong_h_kernel(p), m, om.to_g_dom,
                           compose(zero_morphism(loop_objects, a.B0), a.e))
    # delta: a loop (its index in B1) -> the OmegaB object whose arrow it
    # is -> its image under M -> the component of HK holding that image
    object_of = {arrow: o for o, arrow in enumerate(om.cell.alpha.map)}
    _, component = pi0(hk.groupoid)
    loops, incl = pi1(b)
    delta = BaseMorphism(loops, component.cod,
                         [component.map[m.F0.map[object_of[arrow]]]
                          for arrow in incl.map])
    return [pi1_induced(p), pi1_induced(fun), delta, pi0_induced(p),
            pi0_induced(fun)], n


def main():
    failed = non_trivial = 0
    print(f"{'functor':<30}{'exact at: pi1A  pi1B pi0HK  pi0A':>34}"
          f"{'N weak eq':>11}  delta")
    for gen, instance, seeds in CASES:
        for seed in seeds:
            maps, n = sequence(gen(instance, seed))
            exact = [exact_at(f, g) for f, g in zip(maps, maps[1:])]
            weak = is_weak_equivalence(n)
            delta = maps[2]
            moves = set(delta.map) != {delta.cod.zero}
            failed += not (all(exact) and weak)
            non_trivial += moves
            print(f"{f'{gen.__name__}({instance.name}, {seed})':<40}"
                  + "".join(f"{str(e):>6}" for e in exact)
                  + f"{str(weak):>11}  "
                  + ("non-trivial" if moves else "trivial"))
    print(f"{failed} functors fail; {non_trivial} have a non-trivial delta")
    return 1 if failed or not non_trivial else 0


if __name__ == "__main__":
    sys.exit(main())
