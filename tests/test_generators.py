"""The seeded generators draw the same values, and keep their promises.

data/generator-digests.json holds the SHA-256 of ``to_json`` of every
draw of ``gen_groupoid``, ``gen_functor``, ``gen_transformation`` and
``gen_fibration`` for seeds 0-49 on every instance, so a re-weighted or
reordered draw shows as a changed digest.

Regenerate the file (only when a change of output is intended) with::

    PYTHONPATH=src python tests/test_generators.py
"""

import hashlib
import json
import random
from pathlib import Path

import pytest

from groupoid_lab.base import FINAB, FINPTDSET, FINSET
from groupoid_lab.generators import (
    _random_object,
    _random_surjection,
    gen_fibration,
    gen_functor,
    gen_groupoid,
    gen_transformation,
)
from groupoid_lab.serialize import to_json

DIGESTS = Path(__file__).parent / "data" / "generator-digests.json"
SEEDS = range(50)
GENERATORS = (gen_groupoid, gen_functor, gen_transformation, gen_fibration)


def _digests():
    return {f"{instance.name}:{gen.__name__}:{seed}":
            hashlib.sha256(to_json(gen(instance, seed)).encode()).hexdigest()
            for instance in (FINSET, FINPTDSET, FINAB)
            for gen in GENERATORS for seed in SEEDS}


def _record():
    """The text of the pinned file, as regeneration writes it."""
    return json.dumps(_digests(), indent=1, sort_keys=True) + "\n"


def test_generators_match_the_recorded_draws():
    assert DIGESTS.read_text(encoding="utf-8") == _record()


@pytest.mark.parametrize("instance", [FINSET, FINPTDSET],
                         ids=lambda i: i.name)
def test_random_surjections_are_onto_and_pointed(instance):
    for seed in range(200):
        rng = random.Random(seed)
        f = _random_surjection(_random_object(instance, rng, 8), rng)
        assert set(f.map) == set(range(f.cod.size)), seed
        if instance is FINPTDSET:
            assert f.map[f.dom.zero] == f.cod.zero, seed


if __name__ == "__main__":
    DIGESTS.write_text(_record(), encoding="utf-8")
