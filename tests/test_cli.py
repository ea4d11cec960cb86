"""Tests for the command line interface.

The exit contract is fixed: 0 success, 1 invalid object or failed
property expectation, 2 usage or parse error.  Reports written with
--out zero the timing field, so a fixed seed gives identical bytes.
data/verify-seed0.json and data/verify-seed42.json are the default
``verify --seed 0 --out`` and ``--seed 42 --out`` reports, recorded byte
for byte.
"""

import argparse
import collections
import copy
import json
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from groupoid_lab.arrow import ArrowObject, Diagonal, identity_arr, normalize
from groupoid_lab.base import (
    FINAB,
    FINPTDSET,
    FINSET,
    finptdset_object,
    finset_object,
    identity,
    morphism_from_function,
    zmod,
)
from groupoid_lab.cli import main
from groupoid_lab.groupoid import (
    InternalFunctor,
    InternalGroupoid,
    NatTransformation,
    cyclic_delooping,
    delooping,
    discrete_groupoid,
    identity_cell,
    identity_functor,
    indiscrete_groupoid,
)
from groupoid_lab.generators import gen_functor, gen_transformation
from groupoid_lab.serialize import to_json, value_to_data

DATA = Path(__file__).parent / "data"


@pytest.fixture
def groupoid_file(tmp_path):
    path = tmp_path / "groupoid.json"
    path.write_text(to_json(delooping(zmod(4))))
    return str(path)


@pytest.fixture
def functor_file(tmp_path):
    path = tmp_path / "functor.json"
    path.write_text(to_json(identity_functor(delooping(zmod(4)))))
    return str(path)


@pytest.fixture
def square_file(tmp_path):
    path = tmp_path / "square.json"
    path.write_text(to_json(normalize(identity_functor(delooping(zmod(4))))))
    return str(path)


class TestValidate:
    def test_valid_groupoid_exits_zero(self, groupoid_file, capsys):
        assert main(["validate", groupoid_file]) == 0
        assert "valid groupoid" in capsys.readouterr().out

    def test_valid_functor_exits_zero(self, functor_file, capsys):
        assert main(["validate", functor_file]) == 0
        assert "valid functor" in capsys.readouterr().out

    def test_constructor_checked_kinds_exit_zero(self, square_file, capsys):
        assert main(["validate", square_file]) == 0
        assert "valid arrow morphism" in capsys.readouterr().out

    def test_broken_unit_law_is_named(self, tmp_path, capsys):
        data = value_to_data(cyclic_delooping(FINSET, 4))
        data["e"]["map"] = [1]
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(data))
        assert main(["validate", str(path)]) == 1
        assert "unit-law" in capsys.readouterr().out

    def test_non_commuting_square_is_invalid(self, tmp_path, capsys):
        from groupoid_lab.arrow import ArrowMorphism, ArrowObject
        from groupoid_lab.base import finptdset_object, identity
        x = finptdset_object(["*", "x1"])
        obj = ArrowObject(identity(x))
        square = ArrowMorphism(obj, obj, identity(x), identity(x))
        data = value_to_data(square)
        data["f0"]["map"] = [0, 0]
        path = tmp_path / "skew.json"
        path.write_text(json.dumps(data))
        assert main(["validate", str(path)]) == 1
        assert "commute" in capsys.readouterr().err

    def test_malformed_json_is_a_usage_error(self, tmp_path, capsys):
        path = tmp_path / "garbage.json"
        path.write_text("{not json")
        assert main(["validate", str(path)]) == 2
        assert "malformed JSON" in capsys.readouterr().err

    def test_unrecognized_shape_is_a_usage_error(self, tmp_path, capsys):
        path = tmp_path / "shapeless.json"
        path.write_text('{"x": 1}')
        assert main(["validate", str(path)]) == 2
        assert "unrecognized" in capsys.readouterr().err

    def test_missing_file_is_a_usage_error(self, tmp_path, capsys):
        assert main(["validate", str(tmp_path / "absent.json")]) == 2
        assert "cannot read" in capsys.readouterr().err

    @pytest.mark.parametrize("data", [
        {"instance": 5, "carrier": [1]},
        {"dom": {"instance": "finset", "carrier": [0, 1]},
         "cod": {"instance": "finset", "carrier": [0, 1]},
         "map": [0.5, True]},
        {"instance": "finptdset", "carrier": ["*", "a"],
         "structure": {"basepoint": True}},
        {"instance": "finab", "carrier": [0],
         "structure": {"add": [[0]], "neg": [0], "zero": False}},
        {"instance": "finset", "carrier": "ab"},
        *({"instance": "finset", "carrier": ["a"], "structure": structure}
          for structure in ("x", 5, [0], None, [], {"add": 1})),
        {"instance": "finptdset", "carrier": ["*", "a"],
         "structure": {"basepoint": 0, "junk": 1}},
        {"instance": "finab", "carrier": [0],
         "structure": {"add": [[0]], "neg": [0], "zero": 0,
                       "basepoint": 0}},
    ], ids=["instance-name", "map-entries", "basepoint", "zero", "carrier",
            "finset-str", "finset-int", "finset-list", "finset-null",
            "finset-empty-list", "finset-add", "finptdset-extra-key",
            "finab-extra-key"])
    def test_ill_typed_input_is_invalid(self, tmp_path, capsys, data):
        path = tmp_path / "ill-typed.json"
        path.write_text(json.dumps(data))
        assert main(["validate", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(str(path))
        assert "Traceback" not in err

    @pytest.mark.parametrize("raw", [
        b'{"instance": "fin\xe9set", "carrier": []}',
        b"[" * 100000 + b"]" * 100000,
        b'{"instance": "finset", "carrier": [' + b"[" * 985 + b"1"
        + b"]" * 985 + b"]}",
    ], ids=["latin-1", "deep-json", "deep-element"])
    def test_unreadable_data_is_a_usage_error(self, tmp_path, capsys, raw):
        path = tmp_path / "unreadable.json"
        path.write_bytes(raw)
        assert main(["validate", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(("malformed JSON", str(path)))
        assert "Traceback" not in err

    def test_mistyped_functor_parts_are_invalid(self, tmp_path, capsys):
        data = value_to_data(identity_functor(delooping(zmod(2))))
        data["dom"]["d"]["cod"] = value_to_data(zmod(2))
        path = tmp_path / "mistyped.json"
        path.write_text(json.dumps(data))
        assert main(["validate", str(path)]) == 1
        assert "Traceback" not in capsys.readouterr().err

    def test_cell_over_a_mistyped_functor_is_invalid(self, tmp_path, capsys):
        g = indiscrete_groupoid(finptdset_object(["*", "a"]))
        data = value_to_data(identity_cell(identity_functor(g)))
        # F1 lands in a larger object than the codomain's arrows
        data["source"]["F1"]["cod"] = value_to_data(
            finptdset_object(["*"] + list("abcdef")))
        data["source"]["F1"]["map"] = [0, 6, 6, 6]
        path = tmp_path / "mistyped-cell.json"
        path.write_text(json.dumps(data))
        assert main(["validate", str(path)]) == 1
        assert "Traceback" not in capsys.readouterr().err


# One small value of each shape the decoder knows, and the fields of each
# composite shape with the shape each field holds.
_Z2_SQUARE = identity_arr(ArrowObject(identity(zmod(2))))
_SHAPE_DATA = {name: value_to_data(v) for name, v in {
    "groupoid": delooping(zmod(2)),
    "functor": identity_functor(delooping(zmod(2))),
    "transformation": identity_cell(identity_functor(delooping(zmod(2)))),
    "diagonal": Diagonal(_Z2_SQUARE, identity(zmod(2))),
    "arrow morphism": _Z2_SQUARE,
    "arrow object": _Z2_SQUARE.dom,
    "morphism": identity(zmod(2)),
    "object": zmod(2),
}.items()}
_FIELDS = {
    "groupoid": {"B0": "object", "B1": "object", "d": "morphism",
                 "c": "morphism", "e": "morphism", "m": "morphism",
                 "i": "morphism"},
    "functor": {"dom": "groupoid", "cod": "groupoid", "F0": "morphism",
                "F1": "morphism"},
    "transformation": {"source": "functor", "target": "functor",
                       "alpha": "morphism"},
    "diagonal": {"morphism": "arrow morphism", "d": "morphism"},
    "arrow morphism": {"dom": "arrow object", "cod": "arrow object",
                       "f": "morphism", "f0": "morphism"},
    "arrow object": {"a": "morphism"},
}
_CROSS = [(shape, field, filler) for shape, fields in _FIELDS.items()
          for field in fields for filler in _SHAPE_DATA]


@pytest.mark.parametrize("shape, field, filler", _CROSS,
                         ids=[f"{s}.{f}={x}" for s, f, x in _CROSS])
def test_a_field_decodes_only_its_own_shape(tmp_path, capsys, shape, field,
                                           filler):
    """Another shape's data in a field is a usage error; the field's own
    shape decodes, and the value is then valid or invalid."""
    data = copy.deepcopy(_SHAPE_DATA[shape])
    data[field] = _SHAPE_DATA[filler]
    path = tmp_path / "crossed.json"
    path.write_text(json.dumps(data))
    code = main(["validate", str(path)])
    assert "Traceback" not in capsys.readouterr().err
    assert code in ((0, 1) if filler == _FIELDS[shape][field] else (2,))


@pytest.mark.parametrize("name", list(_SHAPE_DATA))
def test_each_shape_validates_under_its_kind_name(tmp_path, capsys, name):
    path = tmp_path / "value.json"
    path.write_text(json.dumps(_SHAPE_DATA[name]))
    assert main(["validate", str(path)]) == 0
    assert capsys.readouterr().out == f"valid {name}\n"


# Values whose serialized form the fuzz test below corrupts: one of each
# kind the decoder knows, all small enough to validate in a millisecond.
_FUZZ_SEEDS = [
    value_to_data(v) for v in (
        zmod(3),
        finptdset_object(["*", "a"]),
        morphism_from_function(zmod(4), zmod(2), lambda x: x % 2),
        delooping(zmod(4)),
        cyclic_delooping(FINSET, 3),
        indiscrete_groupoid(finptdset_object(["*", "a"])),
        identity_functor(delooping(zmod(2))),
        identity_cell(identity_functor(cyclic_delooping(FINPTDSET, 2))),
        normalize(identity_functor(delooping(zmod(2)))),
    )
]


def _paths(node, prefix=()):
    yield prefix
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _paths(child, prefix + (key,))
    elif isinstance(node, list):
        for k, child in enumerate(node):
            yield from _paths(child, prefix + (k,))


_KEYS = st.sampled_from(sorted({path[-1] for seed in _FUZZ_SEEDS
                                for path in _paths(seed)
                                if path and isinstance(path[-1], str)}))
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 9) | st.floats()
    | st.text(max_size=3) | st.sampled_from(["finset", "finptdset", "finab"]),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(_KEYS | st.text(max_size=2), inner,
                                     max_size=5)),
    max_leaves=12)


@st.composite
def _corrupted_values(draw):
    """A serialized value with one subtree replaced by random JSON."""
    data = copy.deepcopy(draw(st.sampled_from(_FUZZ_SEEDS)))
    path = draw(st.sampled_from(list(_paths(data))))
    replacement = draw(st.integers(-1, 9) | _JSON)
    if not path:
        return replacement
    parent = data
    for step in path[:-1]:
        parent = parent[step]
    parent[path[-1]] = replacement
    return data


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_JSON | _corrupted_values())
def test_validate_keeps_the_exit_contract_on_any_json(tmp_path, data):
    path = tmp_path / "fuzz.json"
    path.write_text(json.dumps(data))
    assert main(["validate", str(path)]) in (0, 1, 2)


# The values that replace one node of a serialized value, in turn.
_LEAVES = [None, True, False, -1, 0, 1, 2, 10**6, 0.5, 1.0, "x", "", [], {},
           [0], [[0]], float("nan")]
_DELETED = object()


def _single_leaf_mutations(data):
    """data with one node below the root replaced by each of _LEAVES, and
    with each dict key deleted, one mutation at a time."""
    for path in list(_paths(data))[1:]:
        fills = _LEAVES + ([_DELETED] if isinstance(path[-1], str) else [])
        for fill in fills:
            mutant = copy.deepcopy(data)
            parent = mutant
            for step in path[:-1]:
                parent = parent[step]
            if fill is _DELETED:
                del parent[path[-1]]
            else:
                parent[path[-1]] = copy.deepcopy(fill)
            yield mutant


@pytest.mark.parametrize("value, counts", [
    (normalize(gen_functor(FINPTDSET, 1)), {0: 52, 1: 921, 2: 488}),
    (identity_functor(cyclic_delooping(FINPTDSET, 2)),
     {0: 177, 1: 2804, 2: 1554}),
], ids=["square", "functor"])
def test_classify_keeps_the_exit_contract_on_every_single_leaf_mutation(
        tmp_path, capsys, value, counts):
    """Exhaustive over the grammar, so the exit codes are pinned: a file
    the decoder starts to accept, or to refuse otherwise, changes them."""
    data = value_to_data(value)
    path = tmp_path / "value.json"
    path.write_text(json.dumps(data))
    assert main(["classify", str(path), "--format", "json"]) == 0
    capsys.readouterr()
    codes = collections.Counter()
    for mutant in _single_leaf_mutations(data):
        path.write_text(json.dumps(mutant))
        code = main(["classify", str(path), "--format", "json"])
        out = capsys.readouterr().out
        assert code in (0, 1, 2)
        if code == 0:
            assert set(json.loads(out)) == {"flags", "witness_sizes"}
        codes[code] += 1
    assert codes == counts


@pytest.mark.parametrize("value, counts", [
    (cyclic_delooping(FINAB, 2), {0: 168, 1: 2595, 2: 1190}),
    (cyclic_delooping(FINPTDSET, 2), {0: 79, 1: 1230, 2: 648}),
    # a finset object's structure must be absent or {}: the 192 mutants that
    # replace one of the 12 objects' {} with one of 16 other leaves exit 1
    (discrete_groupoid(finset_object(["a", "b"])), {0: 34, 1: 1238, 2: 418}),
], ids=["finab", "finptdset", "finset"])
def test_validate_keeps_the_exit_contract_on_every_single_leaf_mutation(
        tmp_path, capsys, value, counts):
    """The same grammar under ``validate`` on three groupoids: the exit
    codes are pinned, so a newly accepted or refused file changes them."""
    data = value_to_data(value)
    path = tmp_path / "value.json"
    path.write_text(json.dumps(data))
    assert main(["validate", str(path)]) == 0
    codes = collections.Counter()
    for mutant in _single_leaf_mutations(data):
        path.write_text(json.dumps(mutant))
        code = main(["validate", str(path)])
        assert code in (0, 1, 2)
        codes[code] += 1
    capsys.readouterr()
    assert codes == counts


class TestClassify:
    def test_identity_functor_flags_are_all_true(self, functor_file, capsys):
        assert main(["classify", functor_file, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert all(payload["flags"].values())
        assert "tau_d" in payload["witness_sizes"]
        assert "T0" in payload["witness_sizes"]
        assert "J0" in payload["witness_sizes"]

    def test_table_format_prints_flags_and_sizes(self, functor_file, capsys):
        assert main(["classify", functor_file]) == 0
        out = capsys.readouterr().out
        assert "flags" in out
        assert "witness sizes" in out
        assert "discrete_fibration" in out

    def test_arrow_kind_reports_the_square_flags(self, square_file, capsys):
        assert main(["classify", square_file, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload["flags"]) == {
            "faithful", "full", "fully_faithful", "essentially_surjective",
            "weak_equivalence", "fibration", "star_fibration"}
        assert set(payload["witness_sizes"]) == {
            "partial_zero", "J_top", "J_bottom"}

    def test_groupoid_file_is_not_a_functor(self, groupoid_file, capsys):
        assert main(["classify", groupoid_file]) == 1
        assert ("expected a functor or an arrow morphism, file holds a "
                "groupoid" in capsys.readouterr().err)

    def test_invalid_groupoid_file_names_its_axioms(self, tmp_path, capsys):
        data = value_to_data(cyclic_delooping(FINSET, 4))
        data["e"]["map"] = [1]
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(data))
        assert main(["classify", str(path)]) == 1
        assert "unit-law" in capsys.readouterr().out

    def test_the_kind_option_is_gone(self, square_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["classify", square_file, "--kind", "arrow"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --kind" in capsys.readouterr().err

    def test_malformed_json_is_a_usage_error(self, tmp_path, capsys):
        path = tmp_path / "garbage.json"
        path.write_text("{not json")
        assert main(["classify", str(path)]) == 2
        assert "malformed JSON" in capsys.readouterr().err

    def test_missing_file_is_a_usage_error(self, tmp_path, capsys):
        assert main(["classify", str(tmp_path / "absent.json")]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_unpointed_square_is_rejected(self, tmp_path, capsys):
        from groupoid_lab.arrow import ArrowMorphism, ArrowObject
        from groupoid_lab.base import finset_object, identity
        x = finset_object(["a0", "a1"])
        obj = ArrowObject(identity(x))
        square = ArrowMorphism(obj, obj, identity(x), identity(x))
        path = tmp_path / "finset-square.json"
        path.write_text(to_json(square))
        assert main(["classify", str(path)]) == 1


def _without_inverses(g):
    """g with its inverse map replaced by the identity: typed, no groupoid."""
    return InternalGroupoid(g.B0, g.B1, g.d, g.c, g.e, g.m, identity(g.B1))


def _over(fun, dom):
    return InternalFunctor(dom, fun.cod, fun.F0, fun.F1)


class TestGroupoidsUnderneath:
    """validate and classify check the groupoids under a functor or a cell
    first; the functor and cell validators check only their typing."""

    @pytest.mark.parametrize("instance, seed",
                             [(FINSET, 1), (FINAB, 3), (FINPTDSET, 0)],
                             ids=["finset-1", "finab-3", "finptdset-0"])
    def test_functor_over_a_non_groupoid(self, tmp_path, capsys, instance,
                                         seed):
        fun = gen_functor(instance, seed)
        path = tmp_path / "functor.json"
        path.write_text(to_json(_over(fun, _without_inverses(fun.dom))))
        assert main(["validate", str(path)]) == 1
        assert capsys.readouterr().out == "inverse-law\n"
        assert main(["classify", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == "inverse-law\n"
        assert "Traceback" not in err

    def test_cell_over_a_non_groupoid(self, tmp_path, capsys):
        cell = gen_transformation(FINSET, 4)
        dom = _without_inverses(cell.source.dom)
        path = tmp_path / "cell.json"
        path.write_text(to_json(NatTransformation(
            _over(cell.source, dom), _over(cell.target, dom), cell.alpha)))
        assert main(["validate", str(path)]) == 1
        assert capsys.readouterr().out == "inverse-law\n"


class TestVerify:
    def test_single_suite_single_instance(self, capsys):
        code = main(["verify", "--suite", "axioms", "--instance", "finset",
                     "--cases", "5", "--seed", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("axioms/finset: cases=5 failures=0 ok")

    def test_unwritable_out_is_a_usage_error(self, tmp_path, capsys):
        out = tmp_path / "absent" / "x.json"
        code = main(["verify", "--suite", "axioms", "--instance", "finset",
                     "--cases", "2", "--out", str(out)])
        assert code == 2
        printed, err = capsys.readouterr()
        assert printed.startswith("axioms/finset: cases=2 failures=0 ok")
        assert err.startswith(f"cannot write {out}")

    def test_unknown_suite_is_a_usage_error(self, capsys):
        assert main(["verify", "--suite", "no-such-suite"]) == 2
        assert "unknown suite" in capsys.readouterr().err

    def test_unknown_instance_is_a_usage_error(self, capsys):
        assert main(["verify", "--suite", "axioms",
                     "--instance", "topoi"]) == 2
        assert "unknown base instance" in capsys.readouterr().err

    def test_zero_cases_are_a_usage_error(self, capsys):
        assert main(["verify", "--suite", "axioms", "--cases", "0"]) == 2
        assert "at least 1" in capsys.readouterr().err

    def test_inapplicable_pair_is_an_empty_pass(self, capsys):
        code = main(["verify", "--suite", "star-not-fibration-search",
                     "--instance", "finset"])
        assert code == 0
        assert "cases=0 failures=0 ok" in capsys.readouterr().out

    def test_witness_suite_meets_with_the_default_bound(self, capsys):
        code = main(["verify", "--suite", "star-not-fibration-search",
                     "--instance", "finab"])
        assert code == 0
        assert "witness found" in capsys.readouterr().out

    def test_witness_suite_fails_when_the_bound_is_tiny(self, capsys):
        code = main(["verify", "--suite", "star-not-fibration-search",
                     "--instance", "finab", "--cases", "5"])
        assert code == 1
        assert "UNMET: no witness found" in capsys.readouterr().out

    def test_out_reports_are_byte_identical(self, tmp_path, capsys):
        first = tmp_path / "first.json"
        second = tmp_path / "second.json"
        for out in (first, second):
            code = main(["verify", "--suite", "axioms",
                         "--instance", "finab", "--cases", "4",
                         "--seed", "9", "--out", str(out)])
            assert code == 0
        capsys.readouterr()
        assert first.read_bytes() == second.read_bytes()
        reports = json.loads(first.read_text())
        assert len(reports) == 1
        assert set(reports[0]) == {"suite", "instance", "seed", "cases",
                                   "failures", "elapsed_ms"}
        assert reports[0]["elapsed_ms"] == 0
        assert reports[0]["seed"] == 9

    @pytest.mark.parametrize("seed", [0, 42])
    def test_default_report_matches_the_recorded_run(self, seed, tmp_path,
                                                     capsys):
        out = tmp_path / "verify.json"
        assert main(["verify", "--seed", str(seed), "--out", str(out)]) == 0
        transcript = DATA / f"verify-seed{seed}.txt"
        assert capsys.readouterr().out == transcript.read_text(
            encoding="utf-8")
        recorded = DATA / f"verify-seed{seed}.json"
        assert out.read_bytes() == recorded.read_bytes()

    def test_the_seed_comes_from_the_option_alone(self, tmp_path, capsys,
                                                  monkeypatch):
        unseeded = tmp_path / "unseeded.json"
        explicit = tmp_path / "explicit.json"
        monkeypatch.setenv("GROUPOID_LAB_SEED", "7")
        assert main(["verify", "--suite", "axioms", "--instance", "finset",
                     "--cases", "4", "--out", str(unseeded)]) == 0
        assert main(["verify", "--suite", "axioms", "--instance", "finset",
                     "--cases", "4", "--seed", "0",
                     "--out", str(explicit)]) == 0
        capsys.readouterr()
        assert unseeded.read_bytes() == explicit.read_bytes()


class TestInProcess:
    """``main`` called again and again in one process, as a library caller
    or the benchmark does."""

    def test_later_calls_build_no_parser(self, functor_file, capsys,
                                         monkeypatch):
        assert main(["validate", functor_file]) == 0
        built = []
        init = argparse.ArgumentParser.__init__

        def spy(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
        assert main(["classify", functor_file, "--format", "json"]) == 0
        assert main(["verify", "--suite", "no-such-suite"]) == 2
        capsys.readouterr()
        assert built == []

    def test_a_usage_error_leaves_later_calls_alone(self, functor_file,
                                                    capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--cases", "x"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: groupoid-lab verify")
        assert "invalid int value: 'x'" in err
        outs = []
        for _ in range(2):
            assert main(["classify", functor_file, "--format", "json"]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]
        assert json.loads(outs[0])["flags"]["equivalence"] is True
