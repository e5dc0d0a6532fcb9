#!/usr/bin/env python3
"""Self-test of the benchmark: runs every workload in smoke mode and checks its output.

    python3 perfbench/selftest.py

Checks, for each workload in BENCHMARK.json:
  * --trace 0 prints every end-to-end metric with its unit, --trace 1 every
    per-layer metric, the last line is the JSON result, and the run is correct;
  * a corrupted oracle result makes the run exit non-zero with "correct": false.
And that the benchmark exits non-zero without a result in a directory that
holds only BENCHMARK.json and the benchmark's own files (no engine sources).
"""
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = [sys.executable, os.path.join("perfbench", "run.py")]


def run(args, cwd=ROOT):
    proc = subprocess.run(RUN + args, cwd=cwd, capture_output=True, text=True,
                          timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return proc, result


def check_metrics(result, wanted, label, errors):
    if result is None:
        errors.append("%s: no JSON result line" % label)
        return
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append("%s: result keys %s" % (label, sorted(result)))
    if result.get("correct") is not True or result.get("attempted", 0) < 1:
        errors.append("%s: not correct or nothing attempted" % label)
    metrics = result.get("metrics", {})
    for spec in wanted:
        got = metrics.get(spec["name"])
        if got is None:
            errors.append("%s: metric %s missing" % (label, spec["name"]))
        elif got.get("unit") != spec["unit"] or not isinstance(
                got.get("value"), (int, float)):
            errors.append("%s: metric %s printed as %s" % (label, spec["name"], got))
    extra = set(metrics) - {spec["name"] for spec in wanted}
    if extra:
        errors.append("%s: unexpected metrics %s" % (label, sorted(extra)))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    errors = []
    for workload in [w["name"] for w in bench["workloads"]]:
        for trace, wanted in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            label = "%s --trace %d" % (workload, trace)
            proc, result = run(["--workload", workload, "--seed", "7", "--seconds",
                                "2", "--trace", str(trace), "--smoke"])
            if proc.returncode != 0:
                errors.append("%s: exit code %d\n%s" % (label, proc.returncode,
                                                        proc.stderr[-2000:]))
            check_metrics(result, wanted, label, errors)
            print("ok " if not errors else "?? ", label, flush=True)
        proc, result = run(["--workload", workload, "--seed", "7", "--seconds", "1",
                            "--trace", "0", "--smoke", "--inject-mismatch"])
        if proc.returncode == 0 or result is None or result.get("correct") is not False:
            errors.append("%s: a wrong reply did not fail the run" % workload)
        print("ok " if not errors else "?? ", workload, "oracle mismatch fails the run",
              flush=True)

    # Only BENCHMARK.json and the benchmark's files: must fail without a result.
    bare = os.path.join(ROOT, ".bench_out", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in bench["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path))
    proc, result = run(["--workload", bench["workloads"][0]["name"], "--seed", "1",
                        "--seconds", "1", "--trace", "0"], cwd=bare)
    if proc.returncode == 0 or result is not None:
        errors.append("bare directory: expected a failure without a result")
    shutil.rmtree(bare, ignore_errors=True)
    print("ok " if not errors else "?? ", "no sources: fails without a result", flush=True)

    for e in errors:
        print("FAIL:", e)
    print("selftest: %s" % ("FAILED" if errors else "passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
