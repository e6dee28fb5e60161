#!/usr/bin/env python3
"""Self-test of the fleet benchmark. For each workload, the tiny configuration
at the recorded seed (the harness's default seed) must reproduce its recorded
fingerprint (untraced and traced), and the same run checked against a
perturbed fingerprint must be rejected.

    python3 fleetbench/selftest.py            # run the self-test
    python3 fleetbench/selftest.py --record   # re-record fingerprints.json

Re-record only after a change that is meant to alter simulated behaviour; a
change that only speeds up the simulator must leave every fingerprint as is.
"""
import json
import sys

import run


def harness(workload, tiny=True, expect=None, trace=0):
    """Runs the harness at its default seed, the one fingerprints are recorded at."""
    args = ["--workload", workload, "--seconds", 1, "--trace", trace]
    if tiny:
        args.append("--tiny")
    if expect is not None:
        args += ["--expect", expect]
    return run.run_harness(args)[1]


def perturb(fingerprint):
    """The recorded value with its last hex digit changed."""
    last = "0123456789abcdef"[(int(fingerprint[-1], 16) + 1) % 16]
    return fingerprint[:-1] + last


def record():
    prints = {}
    for workload in run.WORKLOADS:
        tiny = harness(workload)
        full = harness(workload, tiny=False)
        if not (tiny["correct"] and full["correct"]):
            print(f"{workload}: not correct, nothing recorded: {tiny['errors'] + full['errors']}")
            return 1
        prints[workload] = {"tiny": tiny["fingerprint"], "full": full["fingerprint"]}
        print(f"{workload}: tiny {tiny['fingerprint']} full {full['fingerprint']}")
    with open(run.FINGERPRINTS, "w") as f:
        json.dump(prints, f, indent=1)
        f.write("\n")
    return 0


def selftest():
    prints = run.load_fingerprints()
    failures = []
    for workload in run.WORKLOADS:
        recorded = prints[workload]["tiny"]
        for trace in (0, 1):
            ok = harness(workload, expect=recorded, trace=trace)
            if not ok["correct"] or ok["fingerprint"] != recorded:
                failures.append(f"{workload} trace={trace}: recorded fingerprint not "
                                f"reproduced: {ok['fingerprint']} {ok['errors']}")
        wrong = perturb(recorded)
        bad = harness(workload, expect=wrong)
        if bad["correct"] or not any(wrong in e for e in bad["errors"]):
            failures.append(f"{workload}: perturbed fingerprint {wrong} was not rejected")
        print(f"{workload}: fingerprint {recorded} reproduced; perturbed {wrong} "
              f"{'rejected' if not bad['correct'] else 'ACCEPTED'}")
    for failure in failures:
        print("FAIL " + failure)
    print("selftest " + ("failed" if failures else "passed"))
    return 1 if failures else 0


def main():
    if not run.build():
        return 2
    if "--record" in sys.argv[1:]:
        return record()
    return selftest()


if __name__ == "__main__":
    sys.exit(main())
