"""Self-test of the benchmark's checks: they must fail on wrong output.

    python3 bench/selftest.py

Feeds the workload checks a flipped classify flag, a wrong sweep count
and a corrupted file that the command accepted, and requires failed_frac
above zero for each; the untouched outputs must still pass, so neither
side holds vacuously.  Exits 0 when every expectation holds.
"""

import json
import sys
import tempfile

import run
import workloads


def failed_frac(verdicts):
    return sum(not v.ok for v in verdicts) / len(verdicts)


def mutated(runs, edit):
    """Classify runs whose printed payload went through ``edit``."""
    out = []
    for tag, data, code, text, seconds in runs:
        payload = json.loads(text)
        edit(payload)
        out.append((tag, data, code, json.dumps(payload), seconds))
    return out


def flip(flag):
    def edit(payload):
        payload["flags"][flag] = not payload["flags"][flag]
    return edit


def bump(witness, end):
    def edit(payload):
        payload["witness_sizes"][witness][end] += 1
    return edit


def classify_cases(lib, work):
    w = workloads.Classify()
    chosen = w.choose(lib, workloads.DEFAULT_SEED)
    w.chosen = [next(c for c in chosen if c[0] == slot)
                for slot in ("squares256", "Z8/2")]
    w.setup(lib, workloads.DEFAULT_SEED, work)
    runs = w.run_pass(lib, None)
    yield "classify output as printed", w.check(lib, runs), False
    yield "classify off the seed-0 reference", \
        w.check(lib, mutated(runs, bump("J1", 1))), True
    w.refs = None   # from here on the oracle alone
    for flag in ("faithful", "split_epi_fibration", "essentially_surjective"):
        yield f"classify with {flag} flipped", \
            w.check(lib, mutated(runs, flip(flag))), True
    yield "classify with a wrong tau_d size", \
        w.check(lib, mutated(runs, bump("tau_d", 1))), True


def sweep_cases(lib):
    w = workloads.Sweep()
    tag = "finab:protomodularity-char:0"
    yield "sweep of 20796 squares", w.check(lib, [(tag, 20796, [], 1.0)]), \
        False
    yield "sweep of 20795 squares", w.check(lib, [(tag, 20795, [], 1.0)]), \
        True
    yield "sweep with a failure", \
        w.check(lib, [(tag, 20796, [{"case": 0}], 1.0)]), True


def decode_cases(lib):
    w = workloads.Decode()
    valid = ("t", ("valid", "groupoid"), 0, "valid groupoid\n", 0.001)
    rejected = ("t", ("invalid", "unit-law"), 1, "unit-law\n", 0.001)
    accepted = ("t", ("invalid", "unit-law"), 0, "valid groupoid\n", 0.001)
    yield "decode of a valid and a rejected file", \
        w.check(lib, [valid, rejected]), False
    yield "decode of an accepted corruption", \
        w.check(lib, [valid, rejected, accepted]), True


def main():
    sys.path.insert(0, str(run.ROOT / "src"))
    lib = run.load_library()
    run.OUT.mkdir(parents=True, exist_ok=True)
    ok = True
    with tempfile.TemporaryDirectory(dir=run.OUT) as work:
        cases = [*classify_cases(lib, work), *sweep_cases(lib),
                 *decode_cases(lib)]
    for name, verdicts, should_fail in cases:
        frac = failed_frac(verdicts)
        good = (frac > 0) == should_fail
        ok = ok and good
        want = "failed_frac > 0" if should_fail else "failed_frac == 0"
        print(f"{'ok  ' if good else 'FAIL'} {name}: failed_frac "
              f"{frac:.3f} (want {want})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
