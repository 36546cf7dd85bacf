#!/usr/bin/env python3
"""Build the benchmark from source and run it.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload industrial --seed 1 --seconds 10 --trace 0

Builds perfbench/perfbench.exe with dune (the first build of a fresh
checkout compiles the whole library stack), then runs it with the same
arguments.  The last line of standard output is the result object.
Outside a source checkout (no dune-project or lib/) it fails without
printing a result.
"""

import os
import shutil
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def dune_command():
    dune = shutil.which("dune")
    if dune:
        return [dune]
    # Not on PATH: run it inside the opam switch's environment.
    opam = shutil.which("opam")
    if opam:
        return [opam, "exec", "--", "dune"]
    fail("dune not found")


def git_sha():
    """HEAD of the checkout, when the checkout is itself a git work tree."""
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True)
    except OSError:
        return "unknown"
    lines = top.stdout.split()
    if top.returncode == 0 and len(lines) == 2 and os.path.samefile(lines[0], "."):
        return lines[1]
    return "unknown"


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("run from the root of a source checkout (dune-project and lib/ not found)")
    build = subprocess.run(
        dune_command() + ["build", "--root", ".", "--display", "quiet", "./perfbench/perfbench.exe"],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        fail("build failed")
    env = os.environ.copy()
    env.setdefault("PERFBENCH_GIT_SHA", git_sha())
    # The portfolio and the service write their worker reports to temp
    # files; keep them inside the checkout.
    tmp = os.path.join(".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    env["TMPDIR"] = os.path.abspath(tmp)
    sys.stdout.flush()
    run = subprocess.run([EXE] + sys.argv[1:], env=env)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
