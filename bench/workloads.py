"""The four benchmark workloads.

Each workload turns a seed into inputs in ``setup``, runs one small
verdict in ``warm_up``, and runs its whole verdict set once per call of
``run_pass``.  A pass is a closed loop with one caller: the next verdict
starts when the previous one has returned.  ``check`` then turns the raw
outputs of a pass into one ``Verdict`` per verdict; it runs outside the
timed pass.  The library is reached through module attributes at call
time, so a traced run sees every call through the tracer's wrappers.
"""

import contextlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path

import oracle
from speed import CLOCK

DEFAULT_SEED = 0
REFS = Path(__file__).resolve().parent / "refs"


@dataclass
class Verdict:
    tag: str
    seconds: float
    problems: list

    @property
    def ok(self):
        return not self.problems


def call_cli(lib, argv, stream=None):
    """Run ``groupoid-lab argv`` in-process; return (exit code, stdout).

    Standard error, where the command explains a rejection, is dropped.  An
    exception escaping the command is a failed verdict, not a crash of the
    benchmark: it comes back as the exit code ``"raised"``.
    """
    out = stream if stream is not None else io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            code = lib.cli.main(argv)
        except Exception as exc:    # the command must never raise
            return "raised", f"{type(exc).__name__}: {exc}"
    return code, out.getvalue()


def timed_cli(lib, tracer, tag, argv, stream=None):
    """``call_cli`` as one verdict: (exit code, stdout, seconds)."""
    t_mark = tracer.begin_verdict() if tracer else None
    t0 = CLOCK.now()
    code, text = call_cli(lib, argv, stream)
    seconds = CLOCK.now() - t0
    if tracer:
        tracer.end_verdict(tag, t_mark)
    return code, text, seconds


def load_ref(name):
    with open(REFS / name, encoding="utf-8") as handle:
        return json.load(handle)


class _StampedLines(io.StringIO):
    """A stdout capture that notes when each line was completed."""

    def __init__(self):
        super().__init__()
        self.stamps = []

    def write(self, s):
        n = super().write(s)
        self.stamps.extend([CLOCK.now()] * s.count("\n"))
        return n


# ---------------------------------------------------------------------------
# classify


class Classify:
    """``groupoid-lab classify f.json --format json`` on FinAb functors.

    Inputs are seeded draws ``gen_functor(FINAB, "<seed>:<k>")``, k = 0, 1,
    ..., sorted into slots until every slot is full.  Most slots take
    one-object functors D(phi): D(A) -> D(Z_n) with a fixed cyclic codomain
    and a fixed order of A, whose flags the delooping oracle decides from
    phi; one slot takes any codomain with 256 commutative squares (several
    objects).  The codomain D(Z_n) has n^3 squares: up to 512 (Z8) the
    arrow groupoid gets a dense add table, above it (Z9) a lazy one.  The
    seed picks the group A of the given order and the map; fixing the
    codomain and the order of A keeps the work of a pass alike across seeds
    (a D(Z8) verdict costs about half again as much from an A of order 16
    as from the trivial group).
    """

    name = "classify"
    # (slot, cyclic codomain order and order of A, or None for the
    # 256-square slot, draws).  Four of the six verdicts go to D(Z8), with
    # one cheaper and one dearer slot on either side, so that the median
    # verdict lies between the D(Z8) ones from A of order 2 and 4.
    SLOTS = (("squares256", None, 1),
             ("Z8/1", (8, 1), 1), ("Z8/2", (8, 2), 1), ("Z8/4", (8, 4), 1),
             ("Z8/8", (8, 8), 1), ("Z9/3", (9, 3), 1))
    MAX_DRAWS = 5000
    chosen = None

    def setup(self, lib, seed, workdir):
        if self.chosen is None:
            self.chosen = self.choose(lib, seed)
        self.inputs = []
        for slot, tag in self.chosen:
            fun = lib.harness.gen_functor(lib.base.FINAB, tag)
            text = lib.serialize.to_json(fun)
            path = Path(workdir) / f"functor-{len(self.inputs)}.json"
            path.write_text(text, encoding="utf-8")
            self.inputs.append((slot, tag, str(path), json.loads(text)))
        self.refs = (load_ref("classify-seed0.json")
                     if seed == DEFAULT_SEED else None)

    def choose(self, lib, seed):
        """Scan the seed's draws once; return the (slot, tag) of each input.

        Later set-ups regenerate only the chosen draws, so that ``setup_s``
        measures what a user pays: import, generation and warm-up.
        """
        wanted = {slot: count for slot, _, count in self.SLOTS}
        cyclic = {orders: (slot, lib.base.zmod(orders[0]))
                  for slot, orders, _ in self.SLOTS if orders is not None}
        chosen = []
        for k in range(self.MAX_DRAWS):
            tag = f"{seed}:{k}"
            fun = lib.harness.gen_functor(lib.base.FINAB, tag)
            cod = fun.cod
            slot = None
            if fun.dom.B0.size == 1 and cod.B0.size == 1:
                slot, group = cyclic.get((cod.B1.size, fun.dom.B1.size),
                                         (None, None))
                if slot is not None and cod.B1 != group:
                    slot = None
            elif sum(len(b) ** 2 for b in cod.m.preimages()) == 256:
                slot = "squares256"
            if wanted.get(slot):
                wanted[slot] -= 1
                chosen.append((slot, tag))
                if not any(wanted.values()):
                    return chosen
        raise RuntimeError(f"slots {wanted} still open after "
                           f"{self.MAX_DRAWS} draws")

    def warm_up(self, lib):
        # D(1) -> D(Z8) is the one input that is the same for every seed
        # (the trivial group has one map), so set-up costs alike across seeds
        path = next(p for slot, _, p, _ in self.inputs if slot == "Z8/1")
        call_cli(lib, ["classify", path, "--format", "json"])

    def run_pass(self, lib, tracer):
        return [(tag, data) + timed_cli(lib, tracer, tag,
                                        ["classify", path, "--format", "json"])
                for _, tag, path, data in self.inputs]

    def check(self, lib, runs):
        verdicts = []
        for tag, data, code, text, seconds in runs:
            problems = [] if code == 0 else [f"exit code {code}"]
            if code == 0:
                payload = json.loads(text)
                problems += oracle.check_classify(data, payload)
                if self.refs is not None and self.refs.get(tag) != payload:
                    problems.append("payload differs from the reference")
            verdicts.append(Verdict(tag, seconds, problems))
        return verdicts


# ---------------------------------------------------------------------------
# sweep


class Sweep:
    """The exhaustive FinAb protomodularity sweep, one verdict per pass."""

    name = "sweep"
    SQUARES = 20796

    def setup(self, lib, seed, workdir):
        self.seed = seed

    def warm_up(self, lib):
        lib.harness.run_suite("protomodularity-char", lib.base.FINAB, 20,
                              self.seed)

    def run_pass(self, lib, tracer):
        tag = f"finab:protomodularity-char:{self.seed}"
        t_mark = tracer.begin_verdict() if tracer else None
        t0 = CLOCK.now()
        try:
            report = lib.harness.run_suite("protomodularity-char",
                                           lib.base.FINAB, 25000, self.seed)
            cases, failures = report.cases, report.failures
        except Exception as exc:    # a failed verdict, not a crash
            cases, failures = None, [f"{type(exc).__name__}: {exc}"]
        seconds = CLOCK.now() - t0
        if tracer:
            tracer.end_verdict(tag, t_mark)
        return [(tag, cases, failures, seconds)]

    def check(self, lib, runs):
        return [Verdict(tag, seconds, check_sweep(cases, failures))
                for tag, cases, failures, seconds in runs]


def check_sweep(cases, failures):
    problems = []
    if cases != Sweep.SQUARES:
        problems.append(f"{cases} squares examined, expected {Sweep.SQUARES}")
    if failures:
        problems.append(f"{len(failures)} failures on FinAb")
    return problems


# ---------------------------------------------------------------------------
# verify-sets


class VerifySets:
    """``groupoid-lab verify --instance finset`` then ``finptdset``.

    Each applicable suite run on one instance is one verdict; its time is
    read from when the command printed that suite's line.
    """

    name = "verify-sets"
    INSTANCES = ("finset", "finptdset")
    CASES = 200
    SEARCH = ("protomodularity-char", "finptdset")   # expects witnesses
    REPORT_FIELDS = ("suite", "instance", "seed", "cases", "failures")

    def setup(self, lib, seed, workdir):
        self.seed = seed
        self.workdir = Path(workdir)
        refs = (load_ref("verify-sets-seed0.json")
                if seed == DEFAULT_SEED else None)
        self.refs = None if refs is None else {
            (r["suite"], r["instance"], r["seed"]): r for r in refs}

    def warm_up(self, lib):
        call_cli(lib, ["verify", "--suite", "axioms", "--instance", "finset",
                       "--cases", "2", "--seed", str(self.seed)])

    def run_pass(self, lib, tracer):
        runs = []
        seed = self.seed
        for inst in self.INSTANCES:
            out = self.workdir / f"verify-{inst}.json"
            stream = _StampedLines()
            t0 = CLOCK.now()
            code, text, _ = timed_cli(
                lib, tracer, f"verify:{inst}:{seed}",
                ["verify", "--instance", inst, "--cases", str(self.CASES),
                 "--seed", str(seed), "--out", str(out)], stream)
            starts = [t0] + stream.stamps[:-1]
            seconds = [b - a for a, b in zip(starts, stream.stamps)]
            runs.append((inst, seed, code, text.splitlines(), seconds, out))
        return runs

    def check(self, lib, runs):
        verdicts = []
        seen = set()
        for inst, seed, code, lines, seconds, out in runs:
            reports = json.loads(out.read_text(encoding="utf-8"))
            if len(lines) != len(reports):
                verdicts.append(Verdict(f"verify:{inst}:{seed}", 0.0,
                                        ["printed lines and reports differ"]))
                continue
            for line, dt, report in zip(lines, seconds, reports):
                if report["cases"] == 0:
                    continue      # suite not applicable to this instance
                seen.add((report["suite"], inst, seed))
                problems = [] if code == 0 else [f"exit code {code}"]
                problems += self.check_report(lib, inst, seed, line, report)
                verdicts.append(Verdict(f"{inst}:{report['suite']}:{seed}",
                                        dt, problems))
        for suite, inst, seed in sorted(set(self.refs or ()) - seen):
            verdicts.append(Verdict(f"{inst}:{suite}:{seed}", 0.0,
                                    ["reference suite run missing"]))
        return verdicts

    def check_report(self, lib, inst, seed, line, report):
        problems = []
        suite = report["suite"]
        if not line.startswith(f"{suite}/{inst}:"):
            problems.append(f"line {line!r} names another suite")
        if report["instance"] != inst or report["seed"] != seed:
            problems.append("report names another instance or seed")
        if (suite, inst) == self.SEARCH:
            if not 1 <= len(report["failures"]) <= 3:
                problems.append(f"{len(report['failures'])} witnesses")
            for witness in report["failures"]:
                problems += check_pointed_witness(lib, witness)
        else:
            if report["failures"] or report["cases"] != self.CASES:
                problems.append(f"cases={report['cases']} "
                                f"failures={len(report['failures'])}")
            if not line.endswith(" ok"):
                problems.append(f"status line {line!r}")
        if self.refs is not None:
            # key by key, so that a report may gain keys without breaking this
            ref = self.refs.get((suite, inst, seed))
            if ref is None or any(ref[k] != report[k]
                                  for k in self.REPORT_FIELDS):
                problems.append("report differs from the reference")
        return problems


def check_pointed_witness(lib, witness):
    """Re-check a FinPtdSet protomodularity witness: a fibration square
    whose kernel comparison is not a weak equivalence."""
    square = lib.serialize.value_from_data(witness["witness"]["square"])
    problems = []
    if set(square.f.map) != set(range(square.f.cod.size)):
        problems.append("witness square is not a fibration square")
    j = lib.arrow.comparison_J_arr(square)
    joint = lib.base.jointly_strongly_epi([j.f0, j.cod.a])
    if joint != oracle.pointed_cover([j.f0.map, j.cod.a.map],
                                     j.cod.a.cod.size):
        problems.append("jointly_strongly_epi disagrees with the image cover")
    ff = lib.base.classify_morphism(lib.arrow.partial_zero_arr(j)).iso
    recorded = witness["witness"]
    if recorded.get("joint_epi") != joint or recorded.get(
            "fully_faithful") != ff:
        problems.append("recorded flags differ from the re-check")
    if ff and joint:
        problems.append("witness comparison is a weak equivalence")
    return problems


# ---------------------------------------------------------------------------
# decode


class Decode:
    """``groupoid-lab validate x.json`` on files written during set-up.

    Valid serialized groupoids, functors and cells on all three instances;
    ``corrupt_*`` copies naming the axiom they break; single-entry
    corruptions of Cayley tables that keep them commutative, on both sides
    of the 48-element exhaustive associativity cutoff; and ill-typed
    indices.  Every file except the valid ones must be rejected.
    """

    name = "decode"
    reports_p90 = True      # well over 100 verdicts per run
    DRAWS = 8
    CAYLEY = {24: 6, 48: 6, 60: 24}

    def setup(self, lib, seed, workdir):
        self.cases = []
        self._workdir = Path(workdir)
        h, base = lib.harness, lib.base
        rng = random.Random(f"decode:{seed}")
        kinds = (("groupoid", h.gen_groupoid, h.corrupt_groupoid),
                 ("functor", h.gen_functor, h.corrupt_functor),
                 ("transformation", h.gen_transformation,
                  h.corrupt_transformation))
        for inst in (base.FINSET, base.FINPTDSET, base.FINAB):
            for kind, gen, corrupt in kinds:
                for k in range(self.DRAWS):
                    value = gen(inst, f"{seed}:{k}")
                    self._add(f"{inst.name}:{kind}:{k}",
                              lib.serialize.value_to_data(value),
                              ("valid", kind))
                    bad = corrupt(value, rng)
                    if bad is not None:
                        self._add(f"{inst.name}:{kind}:{k}:corrupt",
                                  lib.serialize.value_to_data(bad[0]),
                                  ("invalid", bad[1]))
        for n, count in self.CAYLEY.items():
            table = lib.serialize.value_to_data(base.zmod(n))
            for t in range(count):
                self._add(f"cayley:Z{n}:{t}", corrupt_cayley(table, rng),
                          ("invalid", None))
        for tag, data in ill_typed(lib).items():
            self._add(f"ill-typed:{tag}", data, ("invalid", None))

    def _add(self, tag, data, expect):
        path = self._workdir / f"decode-{len(self.cases)}.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        self.cases.append((tag, str(path), expect))

    def warm_up(self, lib):
        call_cli(lib, ["validate", self.cases[0][1]])

    def run_pass(self, lib, tracer):
        return [(tag, expect) + timed_cli(lib, tracer, tag,
                                          ["validate", path])
                for tag, path, expect in self.cases]

    def check(self, lib, runs):
        return [Verdict(tag, seconds, check_decode(expect, code, text))
                for tag, expect, code, text, seconds in runs]


def check_decode(expect, code, text):
    verdict, detail = expect
    lines = text.split()
    if verdict == "valid":
        if code != 0 or text.strip() != f"valid {detail}":
            return [f"valid {detail} got exit {code}: {text.strip()!r}"]
        return []
    if code == 0:
        return [f"accepted as {text.strip()!r}"]
    if detail is not None and detail not in lines:
        return [f"rejected without naming {detail}"]
    return []


def corrupt_cayley(data, rng):
    """A copy of a serialized group with add[i][j] = add[j][i] changed.

    Zero, inverse pairs and commutativity are left intact, so only
    associativity can catch the change.
    """
    add = [list(row) for row in data["structure"]["add"]]
    neg, zero = data["structure"]["neg"], data["structure"]["zero"]
    n = len(add)
    while True:
        i, j = rng.sample(range(n), 2)
        if zero in (i, j) or neg[i] == j:
            continue
        value = rng.choice([v for v in range(n)
                            if v not in (add[i][j], zero)])
        add[i][j] = add[j][i] = value
        break
    out = json.loads(json.dumps(data))
    out["structure"]["add"] = add
    return out


def ill_typed(lib):
    """Serialized values whose indices have the wrong JSON type."""
    ser, base = lib.serialize, lib.base
    two = base.finset_object(["a", "b"])
    mor = ser.value_to_data(base.identity(two))
    mor["map"] = [0.5, True]
    pointed = ser.value_to_data(base.finptdset_object(["*", "x"], 0))
    pointed["structure"]["basepoint"] = True
    group = ser.value_to_data(base.zmod(3))
    group["structure"]["zero"] = False
    return {"map": mor, "basepoint": pointed, "zero": group}


WORKLOADS = {w.name: w for w in (Classify, Sweep, VerifySets, Decode)}
