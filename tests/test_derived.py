"""Derived constructions stay byte-identical.

Every level-wise limit of groupoids (products, strict pullbacks, strong
h-pullbacks, kernels, strong h-kernels) and every subobject (full
subgroupoids, loops at zero) are built from ``gen_functor(instance, seed)``
for seeds 0-2 on every instance that supports them.
data/derived-constructions.json holds the SHA-256 of ``to_json`` of each
value and each of its projection functors and cells.

Regenerate the file (only when a change of output is intended) with::

    PYTHONPATH=src python tests/test_derived.py
"""

import hashlib
import json
from pathlib import Path

from groupoid_lab.base import FINAB, FINPTDSET, FINSET, generated_subgroup_indices
from groupoid_lab.groupoid import full_subgroupoid, pi1, product_groupoid
from groupoid_lab.generators import gen_functor
from groupoid_lab.holim import (
    kernel_groupoid,
    pullback_groupoid,
    strong_h_kernel,
    strong_h_pullback,
)
from groupoid_lab.serialize import to_json

DERIVED = Path(__file__).parent / "data" / "derived-constructions.json"
SEEDS = range(3)


def _object_indices(g):
    """A valid object subset of g: a subgroup, or every other object."""
    b0 = g.B0
    if b0.instance is FINAB:
        return generated_subgroup_indices(b0, b0.generating_sequence()[:1])
    keep = set(range(0, b0.size, 2))
    if b0.instance is FINPTDSET:
        keep.add(b0.zero)
    return sorted(keep)


def _derived(fun):
    """(name, value) for every derived construction built from fun."""
    a = fun.dom
    yield "product_groupoid", product_groupoid(a, fun.cod)
    pb = pullback_groupoid(fun, fun)
    yield "pullback_groupoid", (pb.groupoid, pb.to_first, pb.to_second)
    hp = strong_h_pullback(fun, fun)
    yield "strong_h_pullback", (hp.groupoid, hp.to_f_dom, hp.to_g_dom,
                                hp.cell)
    yield "full_subgroupoid", full_subgroupoid(a, _object_indices(a))
    if a.instance.pointed:
        yield "kernel_groupoid", kernel_groupoid(fun)
        hk = strong_h_kernel(fun)
        yield "strong_h_kernel", (hk.groupoid, hk.to_f_dom, hk.cell)
        yield "pi1", pi1(a)


def _digests():
    out = {}
    for instance in (FINSET, FINPTDSET, FINAB):
        for seed in SEEDS:
            for name, values in _derived(gen_functor(instance, seed)):
                out[f"{instance.name}:{seed}:{name}"] = [
                    hashlib.sha256(to_json(v).encode()).hexdigest()
                    for v in values]
    return out


def _record():
    """The text of the pinned file, as regeneration writes it."""
    return json.dumps(_digests(), indent=1, sort_keys=True) + "\n"


def test_derived_constructions_match_the_recorded_run():
    assert DERIVED.read_text(encoding="utf-8") == _record()


if __name__ == "__main__":
    DERIVED.write_text(_record(), encoding="utf-8")
