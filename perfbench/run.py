#!/usr/bin/env python3
"""Builds the owql benchmark from source and runs it.

    python3 perfbench/run.py --workload <lookup_mix|analytic> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the root of the repository. The benchmark is its own Cargo
package (perfbench/Cargo.toml) with path dependencies on the
repository's crates; it builds into $CARGO_TARGET_DIR, or
perfbench/target when that is unset. Build output goes to standard
error, so the last line of standard output is the benchmark's JSON
result. Span files go to perfbench/out/.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run ends well within this; a hung server must not hang the caller.
RUN_TIMEOUT_S = 175


def describe(cmd, cwd):
    """First line of `cmd`'s output, or None if it fails."""
    try:
        out = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    if out.returncode != 0 or not out.stdout.strip():
        return None
    return out.stdout.strip().splitlines()[0]


def revision():
    top = describe(["git", "rev-parse", "--show-toplevel"], ROOT)
    if top is None or os.path.realpath(top) != os.path.realpath(ROOT):
        return "unknown (not a git checkout)"
    rev = describe(["git", "rev-parse", "HEAD"], ROOT) or "unknown"
    dirty = describe(["git", "status", "--porcelain", "--untracked-files=no"], ROOT)
    return rev + ("+dirty" if dirty else "")


def main():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target"))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=dict(os.environ, CARGO_TARGET_DIR=target),
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    env = dict(os.environ)
    env["PERFBENCH_RUSTC"] = describe(["rustc", "-V"], ROOT) or "rustc unknown"
    env["PERFBENCH_REVISION"] = revision()
    binary = os.path.join(target, "release", "owql-perfbench")
    cmd = [binary] + sys.argv[1:] + ["--out", os.path.join(HERE, "out")]
    try:
        return subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
