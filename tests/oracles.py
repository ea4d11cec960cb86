"""Test oracles that stay independent of the library code they check."""

import itertools

from groupoid_lab.base import (
    BaseMorphism,
    CompositionError,
    DiagramError,
    LimitResult,
)


def count_factorizations(limit: LimitResult, cone: dict) -> int:
    """Independent oracle: how many morphisms factor a cone through a limit.

    Scans, for every source element, which apex elements satisfy all leg
    equations; the count is the product of per-element choices intersected
    with structure preservation.  The tests use it to certify mediator
    uniqueness.
    """
    given = list(cone.values())
    src = given[0].dom
    if any(v.dom is not src and v.dom != src for v in given):
        raise CompositionError("cone legs have different sources")
    named = [(limit.legs[k], v) for k, v in cone.items()]
    choices = []
    for i in range(src.size):
        ok = [j for j in range(limit.apex.size)
              if all(leg.map[j] == v.map[i] for leg, v in named)]
        choices.append(ok)
    count = 0
    for table in itertools.product(*choices):
        try:
            BaseMorphism(src, limit.apex, table)
        except DiagramError:
            continue
        count += 1
    return count
