#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload at minimal size.

    python3 perfbench/smoke.py

For each workload of BENCHMARK.json it runs one untraced and one traced
run of one second, and checks that the run is correct, that every
end-to-end (untraced) or per-layer (traced) metric of BENCHMARK.json is
printed with its unit, and that the traced run's Perfetto file passes
Wfc_obs.Trace_event.validate. Exits non-zero on the first failure.
"""
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def fail(msg):
    sys.stderr.write("smoke: FAIL: %s\n" % msg)
    sys.exit(1)


def run(workload, trace):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        fail("%s trace=%d exited %d: %s" % (workload, trace, out.returncode, out.stderr[-2000:]))
    return json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for w in bench["workloads"]:
        name = w["name"]
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            r = run(name, trace)
            if sorted(r) != ["attempted", "correct", "failed", "metrics"]:
                fail("%s: result keys %s" % (name, sorted(r)))
            if not (r["correct"] and r["failed"] == 0 and r["attempted"] >= 1):
                fail("%s trace=%d: correct=%s attempted=%s failed=%s"
                     % (name, trace, r["correct"], r["attempted"], r["failed"]))
            want = {m["name"]: m["unit"] for m in bench[key]}
            got = {k: v.get("unit") for k, v in r["metrics"].items()}
            if got != want:
                fail("%s trace=%d: metrics differ from BENCHMARK.json %s: %s"
                     % (name, trace, key, sorted(set(got.items()) ^ set(want.items()))))
            for k, v in r["metrics"].items():
                if not isinstance(v["value"], (int, float)):
                    fail("%s: %s is not a number" % (name, k))
            print("ok %s trace=%d: %d metrics" % (name, trace, len(got)), flush=True)
        trace_file = "perfbench/_run/%s.perfetto.json" % name
        check = subprocess.run(
            [os.path.join("_build", "default", "perfbench", "wfcbench.exe"), "validate-trace",
             trace_file], cwd=ROOT, capture_output=True, text=True)
        if check.returncode != 0:
            fail("%s: %s does not validate: %s" % (name, trace_file, check.stderr))
        print("ok %s: %s validates" % (name, trace_file), flush=True)
    print("smoke: all workloads ok")


if __name__ == "__main__":
    main()
