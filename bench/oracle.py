"""Checks of the verdicts the library prints, written apart from the library.

Everything here reads the serialized input the benchmark wrote and the
output the command printed.  Each check returns a list of problems; an
empty list means the verdict is correct.
"""

from collections import Counter
from itertools import product

FLAG_NAMES = ("faithful", "full", "fully_faithful", "essentially_surjective",
              "weak_equivalence", "equivalence", "fibration",
              "split_epi_fibration", "discrete_fibration", "star_fibration",
              "split_epi_star_fibration")

WITNESS_NAMES = ("tau_d", "tau_c", "partial_zero", "essential_surjectivity",
                 "T0", "T1", "hat_tau_d", "hat_tau_c", "J0", "J1")

# (premise, conclusion): the premise flag implies the conclusion flag
IMPLICATIONS = (("discrete_fibration", "split_epi_fibration"),
                ("split_epi_fibration", "fibration"),
                ("fibration", "star_fibration"),
                ("split_epi_fibration", "split_epi_star_fibration"),
                ("split_epi_star_fibration", "star_fibration"),
                ("equivalence", "weak_equivalence"))


def check_classify(functor_data, payload):
    """Problems with a classify payload for the functor in ``functor_data``."""
    flags = payload.get("flags", {})
    sizes = payload.get("witness_sizes", {})
    if sorted(flags) != sorted(FLAG_NAMES):
        return [f"flag names {sorted(flags)}"]
    if sorted(sizes) != sorted(WITNESS_NAMES):
        return [f"witness names {sorted(sizes)}"]
    problems = []
    if flags["weak_equivalence"] != (flags["fully_faithful"]
                                     and flags["essentially_surjective"]):
        problems.append("weak_equivalence != fully_faithful and ess")
    if flags["fully_faithful"] != (flags["faithful"] and flags["full"]):
        problems.append("fully_faithful != faithful and full")
    for premise, conclusion in IMPLICATIONS:
        if flags[premise] and not flags[conclusion]:
            problems.append(f"{premise} without {conclusion}")
    problems += _check_sizes(functor_data, sizes)
    if _is_delooping(functor_data):
        problems += _check_delooping(functor_data, flags)
    return problems


def _check_sizes(fun, sizes):
    a, b = fun["dom"], fun["cod"]
    f0 = fun["F0"]["map"]
    a1 = len(a["B1"]["carrier"])
    b0 = len(b["B0"]["carrier"])
    problems = []
    for side in ("d", "c"):
        # the pullback of F0 against the codomain's d (or c)
        ends = Counter(b[side]["map"])
        apex = sum(ends[f0[x]] for x in range(len(f0)))
        if sizes[f"tau_{side}"] != [a1, apex]:
            problems.append(f"tau_{side} sizes {sizes[f'tau_{side}']}, "
                            f"expected {[a1, apex]}")
        if side == "d" and sizes["essential_surjectivity"] != [apex, b0]:
            problems.append(f"essential_surjectivity sizes "
                            f"{sizes['essential_surjectivity']}")
    if sizes["partial_zero"][0] != a1:
        problems.append(f"partial_zero sizes {sizes['partial_zero']}")
    for name in WITNESS_NAMES:
        pair = sizes[name]
        if len(pair) != 2 or min(pair) < 1:
            problems.append(f"{name} sizes {pair}")
    return problems


def _is_delooping(fun):
    return (len(fun["dom"]["B0"]["carrier"]) == 1
            and len(fun["cod"]["B0"]["carrier"]) == 1)


def _check_delooping(fun, flags):
    """Flags of a one-object functor D(phi): D(A) -> D(B), decided on phi."""
    phi = fun["F1"]["map"]
    a, b = fun["dom"]["B1"]["structure"], fun["cod"]["B1"]["structure"]
    injective = len(set(phi)) == len(phi)
    surjective = set(phi) == set(range(len(b["add"])))
    expected = {
        "faithful": injective,
        "full": surjective,
        "fibration": surjective,
        "essentially_surjective": True,
        "split_epi_fibration": surjective and has_section(phi, a, b),
    }
    return [f"{name} is {flags[name]}, phi says {want}"
            for name, want in expected.items() if flags[name] != want]


def generators(group):
    """A greedy generating list of a group given by its Cayley table."""
    add, zero = group["add"], group["zero"]
    span, gens = {zero}, []
    for g in range(len(add)):
        if g in span:
            continue
        gens.append(g)
        frontier = list(span)
        while frontier:
            x = frontier.pop()
            for h in gens:
                y = add[x][h]
                if y not in span:
                    span.add(y)
                    frontier.append(y)
    return gens


def has_section(phi, a, b):
    """Whether phi: A -> B has an additive section, by direct search over
    preimages of a generating list of B."""
    gens = generators(b)
    fibres = [[x for x, y in enumerate(phi) if y == g] for g in gens]
    for images in product(*fibres):
        section = {b["zero"]: a["zero"]}
        frontier = [b["zero"]]
        consistent = True
        while frontier and consistent:
            x = frontier.pop()
            for g, img in zip(gens, images):
                y, v = b["add"][x][g], a["add"][section[x]][img]
                if y not in section:
                    section[y] = v
                    frontier.append(y)
                elif section[y] != v:
                    consistent = False
                    break
        if consistent:
            return True
    return False


def pointed_cover(maps, size):
    """Whether the images of ``maps`` cover a pointed set of ``size``."""
    hit = set()
    for m in maps:
        hit.update(m)
    return hit == set(range(size))
