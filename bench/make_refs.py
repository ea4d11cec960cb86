"""Write the regression references of the default seed into bench/refs/.

    python3 bench/make_refs.py

The references pin the classify payloads and the verify-sets report fields
(suite, instance, seed, cases, failures) of seed 0.  Rewrite them only for
an intended change of output, and review the diff: any other difference is
a regression that the benchmark is there to catch.  Nothing is written
unless every other check of the two workloads passes.
"""

import json
import sys
import tempfile

import run
import workloads


def main():
    sys.path.insert(0, str(run.ROOT / "src"))
    workloads.load_ref = lambda name: None   # the references being written
    lib = run.load_library()
    seed = workloads.DEFAULT_SEED
    run.OUT.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as work:
        classify = workloads.Classify()
        classify.setup(lib, seed, work)
        runs = classify.run_pass(lib, None)
        bad = [v for v in classify.check(lib, runs) if not v.ok]
        payloads = {tag: json.loads(text)
                    for tag, _, code, text, _ in runs if code == 0}

        verify = workloads.VerifySets()
        verify.setup(lib, seed, work)
        runs = verify.run_pass(lib, None)
        bad += [v for v in verify.check(lib, runs) if not v.ok]
        reports = []
        for *_, out in runs:
            for report in json.loads(out.read_text(encoding="utf-8")):
                if report["cases"] > 0:
                    reports.append({k: report[k]
                                    for k in verify.REPORT_FIELDS})
    if bad:
        for v in bad:
            print(f"FAILED {v.tag}: {'; '.join(v.problems)}", file=sys.stderr)
        return 1
    for name, data in (("classify-seed0.json", payloads),
                       ("verify-sets-seed0.json", reports)):
        path = workloads.REFS / name
        path.write_text(json.dumps(data, sort_keys=True, indent=1) + "\n",
                        encoding="utf-8")
        print(f"wrote {path.relative_to(run.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
