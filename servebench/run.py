#!/usr/bin/env python3
"""Serving benchmark: build xfrag and the benchmark, then run one workload.

Run from the repository root:

    python3 servebench/run.py --workload corpus-topk --seed 1 --seconds 10 --trace 0

The last line of standard output is the result object; see
servebench/README.md for the workloads and metrics.
"""

import hashlib
import os
import signal
import subprocess
import sys

WORK = ".servebench"  # inputs, server logs and spans; ignored by git
XFRAG = "_build/default/bin/xfrag.exe"
BENCH = "_build/default/servebench/main.exe"
RUN_TIMEOUT_S = 170


def revision():
    """The git commit, or a digest of the sources when not in a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
        )
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha256()
    for top in ("bin", "lib", "servebench", "dune-project"):
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs
        )
        for path in paths:
            digest.update(path.encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "src-" + digest.hexdigest()[:16]


def main():
    # Neither the build nor the server may be configured from outside.
    env = {k: v for k, v in os.environ.items() if not k.startswith("XFRAG_")}
    env["DUNE_CACHE"] = "disabled"
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./bin/xfrag.exe", "./servebench/main.exe"],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        print("servebench: build failed", file=sys.stderr)
        return 1
    cmd = [BENCH, *sys.argv[1:], "--xfrag", XFRAG, "--work", WORK, "--revision", revision()]
    # The benchmark and the server it starts share one CPU: a request then
    # hands off between client and server on one core, instead of
    # sometimes on one and sometimes across two, which is a bimodal
    # latency the scheduler picks per run.
    cpu = max(os.sched_getaffinity(0))
    # Own process group, so a timeout also stops the server it started.
    proc = subprocess.Popen(
        cmd,
        env=env,
        start_new_session=True,
        preexec_fn=lambda: os.sched_setaffinity(0, {cpu}),
    )
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("servebench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
