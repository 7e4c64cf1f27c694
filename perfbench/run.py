#!/usr/bin/env python3
"""Build the benchmark and run it.

    python3 perfbench/run.py --workload keystroke --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. perfbench/ is a Go module of its own
that builds against the checkout's sources (its go.mod replaces the
tendax module with ..). Everything the build and the run write goes under
$CARGO_TARGET_DIR, or .bench_build when it is unset: the Go build cache,
the binary, the data directories (removed at the end of each run) and the
span files of traced runs. Exits non-zero without a result when the build
or the run fails.
"""

import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    work = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    tmp = os.path.join(work, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(work, "gocache"),
        GOPATH=os.path.join(work, "gopath"),
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        XDG_CONFIG_HOME=os.path.join(work, "config"),
        GOFLAGS="",
        GOWORK="off",
        GOTOOLCHAIN="local",
    )
    binary = os.path.join(work, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env)
    if build.returncode != 0:
        print("run.py: building the benchmark failed", file=sys.stderr)
        return 1
    # Write back what earlier runs (and the build) left dirty, so that the
    # disk's backlog does not land on this run's fsyncs.
    os.sync()
    return subprocess.run([binary, "--work", work] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
