#!/usr/bin/env python3
"""Self-test of the benchmark on tiny inputs.

Run from the root of the checkout:

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json, runs the benchmark at --tiny scale
with --trace 0 and --trace 1 and checks the result line: exactly the
keys correct/attempted/failed/metrics, every answer correct and none
failed, and exactly the declared metrics (end_to_end untraced, per_layer
traced), each with its declared unit and a finite value; end-to-end
values must be positive.  Then checks that the benchmark refuses to run,
without printing a result, from a directory holding only BENCHMARK.json
and the benchmark's own files.  Exits non-zero on any failure.
"""

import json
import math
import os
import shutil
import subprocess
import sys

RUN_TIMEOUT = 600


def run(args, cwd="."):
    return subprocess.run(
        [sys.executable, "perfbench/run.py"] + args,
        cwd=cwd, capture_output=True, text=True, timeout=RUN_TIMEOUT)


def check_result(spec, workload, trace, errors):
    where = "%s --trace %d" % (workload, trace)
    out = run(["--workload", workload, "--seed", "1", "--seconds", "1",
               "--trace", str(trace), "--tiny"])
    if out.returncode != 0:
        errors.append("%s: exit %d: %s" % (where, out.returncode, out.stderr[-400:]))
        return
    try:
        res = json.loads(out.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError) as e:
        errors.append("%s: last line is not a JSON object (%s)" % (where, e))
        return
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        errors.append("%s: result keys %s" % (where, sorted(res)))
        return
    if res["correct"] is not True or res["failed"] != 0 or res["attempted"] < 1:
        errors.append("%s: correct=%s attempted=%s failed=%s" % (
            where, res["correct"], res["attempted"], res["failed"]))
    declared = {m["name"]: m for m in spec["per_layer" if trace else "end_to_end"]}
    got = res["metrics"]
    if set(got) != set(declared):
        errors.append("%s: metrics missing %s, undeclared %s" % (
            where, sorted(set(declared) - set(got)), sorted(set(got) - set(declared))))
    for name, m in got.items():
        if name not in declared:
            continue
        v = m.get("value")
        if m.get("unit") != declared[name]["unit"]:
            errors.append("%s: %s has unit %r, declared %r" % (
                where, name, m.get("unit"), declared[name]["unit"]))
        if not isinstance(v, (int, float)) or isinstance(v, bool) or not math.isfinite(v):
            errors.append("%s: %s = %r is not a finite number" % (where, name, v))
        elif not trace and v <= 0:
            errors.append("%s: end-to-end metric %s = %r is not positive" % (where, name, v))


def check_bare_directory(spec, errors):
    """Outside a source checkout the benchmark must fail without a result."""
    bare = os.path.join(".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy("BENCHMARK.json", bare)
        for p in spec["paths"]:
            shutil.copytree(p, os.path.join(bare, p))
        out = run(["--workload", spec["workloads"][0]["name"], "--seed", "1",
                   "--seconds", "1", "--trace", "0"], cwd=bare)
        if out.returncode == 0:
            errors.append("bare directory: exit 0")
        if out.stdout.strip():
            errors.append("bare directory: printed %r" % out.stdout[-200:])
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    errors = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            check_result(spec, w["name"], trace, errors)
    check_bare_directory(spec, errors)
    for e in errors:
        print("FAIL " + e)
    print("selftest: %s" % ("ok" if not errors else "%d failure(s)" % len(errors)))
    sys.exit(1 if errors else 0)


if __name__ == "__main__":
    main()
