"""Round-trip and determinism checks for the JSON formats."""

import copy
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupoid_lab.base import (
    FINAB,
    FINPTDSET,
    FINSET,
    BaseObject,
    DiagramError,
    finptdset_object,
    finset_object,
    identity,
    morphism_from_function,
    zmod,
)
from groupoid_lab.groupoid import (
    cyclic_delooping,
    discrete_groupoid,
    groupoid_from_arrow,
    identity_cell,
    identity_functor,
    indiscrete_groupoid,
    validate_functor,
)
from groupoid_lab.classify import classification_report
from groupoid_lab.generators import gen_functor
from groupoid_lab.holim import arrow_groupoid
from groupoid_lab.arrow import ArrowMorphism, ArrowObject, Diagonal
from groupoid_lab.serialize import (
    from_json,
    object_to_data,
    to_json,
    value_from_data,
    value_to_data,
)


def doubling_arrow():
    return morphism_from_function(zmod(2), zmod(4), lambda n: 2 * n)


class TestBaseRoundTrips:
    def test_object_formats(self):
        for obj in (finset_object(["p", "q"]),
                    finptdset_object(["*", "x", "y"]), zmod(6)):
            data = object_to_data(obj)
            assert set(data) == {"instance", "carrier", "structure"}
            assert value_from_data(data) == obj

    def test_structure_fields(self):
        data = object_to_data(zmod(3))
        assert data["structure"]["zero"] == 0
        assert data["structure"]["add"][1][2] == 0
        pointed = object_to_data(finptdset_object(["*", "x"]))
        assert pointed["structure"] == {"basepoint": 0}
        assert object_to_data(finset_object([0]))["structure"] == {}

    def test_morphism_map_is_index_level(self):
        data = value_to_data(doubling_arrow())
        assert data["map"] == [0, 2]
        assert value_from_data(data) == doubling_arrow()

    def test_nested_carriers_restore_tuples(self):
        ag = arrow_groupoid(cyclic_delooping(FINSET, 3))
        assert from_json(to_json(ag.groupoid)) == ag.groupoid


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_every_accepted_object_round_trips(data):
    """Whatever the validated constructor accepts, JSON gives back equal."""
    instance = data.draw(st.sampled_from([FINSET, FINPTDSET, FINAB]))
    n = data.draw(st.integers(1, 4))
    group = zmod(n)
    fields = data.draw(st.sets(st.sampled_from(["zero", "add", "neg"])))
    structure = {"zero": data.draw(st.integers(0, n - 1)),
                 "add": group.add, "neg": group.neg}
    try:
        obj = BaseObject(instance, [f"e{i}" for i in range(n)],
                         **{k: structure[k] for k in fields})
    except DiagramError:
        return
    assert from_json(to_json(obj)) == obj


class TestStructureRoundTrips:
    def test_groupoid(self):
        g = groupoid_from_arrow(doubling_arrow())
        data = value_to_data(g)
        assert set(data) == {"B0", "B1", "d", "c", "e", "m", "i"}
        assert value_from_data(data) == g

    def test_groupoid_families(self):
        for g in (cyclic_delooping(FINAB, 4),
                  discrete_groupoid(finset_object(["p", "q"])),
                  indiscrete_groupoid(finptdset_object(["*", "u"]))):
            assert from_json(to_json(g)) == g

    def test_functor_and_cell(self):
        fun = identity_functor(groupoid_from_arrow(doubling_arrow()))
        assert from_json(to_json(fun)) == fun
        cell = identity_cell(fun)
        assert from_json(to_json(cell)) == cell

    def test_arrow_values(self):
        delta = doubling_arrow()
        obj = ArrowObject(delta)
        sq = ArrowMorphism(obj, ArrowObject(identity(zmod(4))), delta,
                           identity(zmod(4)))
        diag = Diagonal(sq, identity(zmod(4)))
        for value in (obj, sq, diag):
            assert from_json(to_json(value)) == value


class TestDeterminismAndErrors:
    def test_equal_values_equal_bytes(self):
        one = to_json(groupoid_from_arrow(doubling_arrow()))
        two = to_json(from_json(one))
        assert one == two

    def test_keys_are_sorted(self):
        data = json.loads(to_json(zmod(2)))
        assert list(data) == sorted(data)

    def test_malformed_json_is_a_diagram_error(self):
        with pytest.raises(DiagramError):
            from_json("{not json")

    def test_unrecognized_shape_is_rejected(self):
        with pytest.raises(DiagramError):
            value_from_data({"mystery": 1})
        with pytest.raises(DiagramError):
            value_from_data([1, 2])

    def test_structural_validation_still_runs_on_load(self):
        data = value_to_data(doubling_arrow())
        data["map"] = [0, 9]
        with pytest.raises(DiagramError):
            value_from_data(data)


class TestOneObjectPerDistinctData:
    """One decode builds each distinct object once, and takes a groupoid's
    composable pairs from the pullback of its c and d."""

    @pytest.mark.parametrize("instance", [FINSET, FINPTDSET, FINAB])
    def test_copies_are_one_object(self, instance):
        for seed in range(6):
            fun = from_json(to_json(gen_functor(instance, seed)))
            for g in (fun.dom, fun.cod):
                assert g.d.dom is g.B1 and g.c.cod is g.B0
                assert g.m.dom is g.composition_pairs().apex
            assert fun.F1.dom is fun.dom.B1 and fun.F1.cod is fun.cod.B1

    @pytest.mark.parametrize("instance", [FINSET, FINPTDSET, FINAB])
    def test_decoding_keeps_bytes_and_verdicts(self, instance):
        for seed in range(21):
            fun = gen_functor(instance, seed)
            text = to_json(fun)
            decoded = from_json(text)
            assert to_json(decoded) == text
            assert (classification_report(decoded).payload()
                    == classification_report(fun).payload())

    @staticmethod
    def _outcome(data):
        try:
            fun = value_from_data(data)
        except DiagramError as exc:
            return str(exc)
        return validate_functor(fun)

    def _changed(self, instance, *path, edit):
        data = value_to_data(gen_functor(instance, 2))
        obj = data
        for key in path:
            obj = obj[key]
        edit(obj)
        return self._outcome(data)

    def test_a_changed_pairs_table_fails_its_own_check(self):
        def change(obj):  # kept commutative, so associativity must catch it
            add = obj["structure"]["add"]
            add[1][2] = add[2][1] = (add[1][2] + 1) % len(add)
        assert (self._changed(FINAB, "cod", "m", "dom", edit=change)
                == "addition table is not associative")

    def test_a_valid_pairs_object_that_is_no_pullback_is_mistyped(self):
        def reverse(obj):
            obj["carrier"].reverse()
        assert (self._changed(FINAB, "cod", "m", "dom", edit=reverse)
                == ["composition-carrier"])

    def test_ill_typed_copies_miss_the_memo(self):
        # each edit is to a later copy of an object decoded before it, and
        # bool, float and list entries equal or hold valid indices
        def listed(obj):
            add = obj["structure"]["add"]
            add[1][0] = [add[1][0]]

        def field(name, value):
            return lambda obj: obj["structure"].__setitem__(name, value)
        bad_index = "group table entry is not an int index in range"
        assert self._changed(FINAB, "cod", "c", "dom", edit=listed) == bad_index
        assert self._changed(FINAB, "cod", "d", "cod",
                             edit=field("zero", False)) == bad_index
        assert self._changed(FINAB, "cod", "m", "dom",
                             edit=field("zero", 0.0)) == bad_index
        assert (self._changed(FINPTDSET, "cod", "e", "dom",
                              edit=field("basepoint", True))
                == "a pointed set needs a basepoint index")

    def test_carrier_types_survive_the_memo(self):
        # True == 1, but a copy with bool elements is an object of its own
        data = value_to_data(identity_functor(cyclic_delooping(FINSET, 3)))
        data["dom"]["d"]["dom"]["carrier"] = [False, True, 2]
        fun = value_from_data(data)
        assert fun.dom.d.dom is not fun.dom.B1
        assert fun.dom.d.dom.carrier == (False, True, 2)
        assert to_json(fun) == json.dumps(data, sort_keys=True)

    def test_a_pairs_apex_with_bool_elements_misses_the_memo(self):
        # the pullback of c and d pairs bools, which equal the ints of this
        # m.dom copy, so the apex must not be offered for it
        data = value_to_data(discrete_groupoid(finset_object([False, True, 2])))
        pairs = data["m"]["dom"]
        pairs["carrier"] = [[int(x) for x in pair] for pair in pairs["carrier"]]
        assert (to_json(value_from_data(data))
                == json.dumps(data, sort_keys=True))

