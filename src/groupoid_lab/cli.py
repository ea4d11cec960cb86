"""Command line front end: validate files, classify, and run suites.

Exit codes follow one contract across subcommands: 0 for success, 1 for
an invalid object or a failed property expectation, 2 for usage and
parse errors.  ``validate`` and ``classify`` load a file one way: decode
it, then check its axioms.  ``classify`` reads a functor or a square,
whichever the file holds.  ``verify`` takes its seed from ``--seed``
alone (default 0).  No suite is timed: reports written with ``--out``
keep an ``elapsed_ms`` field that is always 0, so identical flags and
seed produce byte-identical files.

``main(argv)`` is the in-process entry point as well as the console
script's; it builds its argument parser once per process, on first call.
"""

import argparse
import functools
import json
import sys

from .arrow import (
    ArrowMorphism,
    classify_arrow_morphism,
    comparison_J_arr,
    partial_zero_arr,
)
from .base import GroupoidLabError, parse_instance
from .classify import classification_report
from .groupoid import (
    InternalFunctor,
    InternalGroupoid,
    NatTransformation,
    validate_functor,
    validate_groupoid,
    validate_transformation,
)
from .harness import SUITES, run_suite, suite_names
from .serialize import UnknownShapeError, kind_name, value_from_data

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_USAGE = 2

def _violations(value) -> list[str]:
    """The axioms a groupoid, functor or transformation breaks, checked from
    the bottom up: the groupoids it sits on, a transformation's two
    functors, then the value itself, stopping at the first level that
    reports one.  Other kinds validate inside their constructors."""
    if isinstance(value, InternalGroupoid):
        return validate_groupoid(value)
    if isinstance(value, InternalFunctor):
        functors, validator = [value], validate_functor
    elif isinstance(value, NatTransformation):
        functors = [value.source, value.target]
        validator = validate_transformation
    else:
        return []
    groupoids = {id(g): g for f in functors for g in (f.dom, f.cod)}
    bad = [axiom for g in groupoids.values() for axiom in validate_groupoid(g)]
    if not bad and validator is validate_transformation:
        bad = [axiom for f in functors for axiom in validate_functor(f)]
    return list(dict.fromkeys(bad)) if bad else validator(value)


def _refused(code, message):
    print(message, file=sys.stderr)
    return None, code


def _load_checked(path):
    """Decode one JSON file and check the value's axioms.

    Returns (value, EXIT_OK) for a valid value.  Otherwise it prints why
    and returns (None, exit_code): unreadable or shapeless input is a
    usage error, while data that names a known shape but fails to build,
    or breaks an axiom, is invalid.  Violated axioms go to stdout, one a
    line, and every other reason to stderr.
    """
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        return _refused(EXIT_USAGE, f"cannot read {path}: {exc}")
    except (ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError and UnicodeDecodeError
        return _refused(EXIT_USAGE, f"malformed JSON in {path}: {exc}")
    try:
        value = value_from_data(data)
    except UnknownShapeError as exc:
        return _refused(EXIT_USAGE, f"{path}: {exc}")
    except GroupoidLabError as exc:
        return _refused(EXIT_INVALID, f"{path}: {exc}")
    except (KeyError, TypeError, ValueError, IndexError, RecursionError) as exc:
        return _refused(EXIT_USAGE, f"{path}: malformed value data ({exc!r})")
    try:
        violations = _violations(value)
    except GroupoidLabError as exc:
        # parts of mistyped shape cannot even be composed
        return _refused(EXIT_INVALID, f"{path}: {exc}")
    for axiom in violations:
        print(axiom)
    return (None, EXIT_INVALID) if violations else (value, EXIT_OK)


def cmd_validate(args) -> int:
    value, code = _load_checked(args.path)
    if code == EXIT_OK:
        print(f"valid {kind_name(value)}")
    return code


def _arrow_payload(square: ArrowMorphism) -> dict:
    flags = classify_arrow_morphism(square)
    zero = partial_zero_arr(square)
    j = comparison_J_arr(square)
    sizes = {
        "partial_zero": [zero.dom.size, zero.cod.size],
        "J_top": [j.f.dom.size, j.f.cod.size],
        "J_bottom": [j.f0.dom.size, j.f0.cod.size],
    }
    return {"flags": flags, "witness_sizes": sizes}


def _print_payload(payload: dict, format_: str) -> None:
    if format_ == "json":
        print(json.dumps(payload, sort_keys=True, indent=2))
        return
    print("flags")
    width = max(len(name) for name in payload["flags"])
    for name in sorted(payload["flags"]):
        flag = "true" if payload["flags"][name] else "false"
        print(f"  {name:<{width}}  {flag}")
    print("witness sizes")
    width = max(len(name) for name in payload["witness_sizes"])
    for name in sorted(payload["witness_sizes"]):
        dom_size, cod_size = payload["witness_sizes"][name]
        print(f"  {name:<{width}}  {dom_size} -> {cod_size}")


def cmd_classify(args) -> int:
    value, code = _load_checked(args.path)
    if code != EXIT_OK:
        return code
    if not isinstance(value, (InternalFunctor, ArrowMorphism)):
        print("expected a functor or an arrow morphism, file holds a "
              f"{kind_name(value)}", file=sys.stderr)
        return EXIT_INVALID
    try:
        payload = (classification_report(value).payload()
                   if isinstance(value, InternalFunctor)
                   else _arrow_payload(value))
    except GroupoidLabError as exc:
        print(exc, file=sys.stderr)
        return EXIT_INVALID
    _print_payload(payload, args.format_)
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.cases is not None and args.cases < 1:
        print("--cases must be at least 1", file=sys.stderr)
        return EXIT_USAGE
    names = suite_names()
    if args.suite == "all":
        selected = names
    elif args.suite in names:
        selected = [args.suite]
    else:
        print(f"unknown suite {args.suite!r}", file=sys.stderr)
        return EXIT_USAGE
    if args.instance == "all":
        pinned = None
    else:
        try:
            pinned = [parse_instance(args.instance)]
        except GroupoidLabError as exc:
            print(exc, file=sys.stderr)
            return EXIT_USAGE

    reports = []
    for name in selected:
        targets = pinned or [parse_instance(n) for n in SUITES[name].instances]
        for instance in targets:
            report = run_suite(name, instance, args.cases, args.seed)
            reports.append(report)
            print(f"{name}/{instance.name}: cases={report.cases} "
                  f"failures={len(report.failures)} {report.status}")
    if args.out:
        payloads = [r.payload() for r in reports]
        text = json.dumps(payloads, sort_keys=True, indent=2) + "\n"
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            print(f"cannot write {args.out}: {exc}", file=sys.stderr)
            return EXIT_USAGE
    return EXIT_OK if all(r.expectation_met for r in reports) else EXIT_INVALID


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="groupoid-lab",
        description="Validate, classify, and property-test internal "
                    "groupoids over the finite base instances.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser(
        "validate", help="check one serialized value against the axioms")
    p_validate.add_argument("path", help="JSON file holding one value")

    p_classify = sub.add_parser(
        "classify", help="print the flag vector of a functor or square")
    p_classify.add_argument("path", help="JSON file holding a functor or a "
                                         "square")
    p_classify.add_argument("--format", dest="format_",
                            choices=("json", "table"), default="table")

    p_verify = sub.add_parser(
        "verify", help="run registered property suites")
    p_verify.add_argument("--suite", default="all",
                          help="suite name, or 'all' (default)")
    p_verify.add_argument("--instance", default="all",
                          help="finset, finptdset, finab, or 'all'")
    p_verify.add_argument("--cases", type=int, default=None,
                          help="cases per suite (default: per-suite bound)")
    p_verify.add_argument("--seed", type=int, default=0,
                          help="generator seed (default: 0)")
    p_verify.add_argument("--out", default=None,
                          help="write the reports as JSON to this file")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "validate": cmd_validate,
        "classify": cmd_classify,
        "verify": cmd_verify,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
