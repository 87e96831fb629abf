#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the `fpsnr` CLI (the region-read server) and the benchmark binary in
release mode from this checkout's sources, then runs the benchmark with the
given arguments. Cargo output goes to standard error; the benchmark's last
line of standard output is its JSON result. Build outputs go to
$CARGO_TARGET_DIR (default `.bench_build`), working files to `.bench_work`,
both at the checkout root. See perfbench/README.md.
"""

import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# The benchmark itself stops well inside this; it guards against a hang.
RUN_TIMEOUT_S = 175


def build(env):
    for cmd in (
        ["cargo", "build", "--release", "--offline", "--quiet", "-p", "fpsnr-cli"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    ):
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            return False
    return True


def main():
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    target = target if os.path.isabs(target) else os.path.join(ROOT, target)
    if not build(env):
        print("perfbench: build failed", file=sys.stderr)
        return 2
    release = os.path.join(target, "release")
    cmd = [
        os.path.join(release, "fpsnr-perfbench"),
        *sys.argv[1:],
        "--fpsnr", os.path.join(release, "fpsnr"),
        "--work-dir", os.path.join(ROOT, ".bench_work"),
    ]
    # A process group of its own, so a timeout can stop the benchmark and the
    # server it spawned together.
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("perfbench: run timed out", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
