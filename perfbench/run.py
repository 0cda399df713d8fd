#!/usr/bin/env python3
"""Build and run the service benchmark.

    python3 perfbench/run.py --workload warm_hit --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --all [--seed 1] [--seconds 30]
    python3 perfbench/run.py --selftest [--seed 1]

Run from the root of a ppe source tree. Builds the release `ppe` binary
(the deployed server) and the `ppe-perfbench` harness into
$CARGO_TARGET_DIR (default `.bench_build`), then hands every argument to
the harness. The harness's last stdout line is the JSON result; build
output goes to stderr. Exits non-zero without a result when the source
tree is missing or an answer fails verification.
"""

import os
import subprocess
import sys


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    if not (
        os.path.isfile(os.path.join(root, "Cargo.toml"))
        and os.path.isdir(os.path.join(root, "crates", "server"))
    ):
        print(
            "perfbench: no ppe source tree around perfbench/ "
            "(need Cargo.toml and crates/server)",
            file=sys.stderr,
        )
        return 2
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(root, ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["--manifest-path", os.path.join(root, "Cargo.toml"), "--bin", "ppe"],
        ["--manifest-path", os.path.join(here, "Cargo.toml")],
    ]
    for args in builds:
        build = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet", *args],
            env=env,
            stdout=sys.stderr,
        )
        if build.returncode != 0:
            print("perfbench: build failed", file=sys.stderr)
            return build.returncode
    release = os.path.join(target, "release")
    argv = sys.argv[1:]
    if argv[:1] in (["--selftest"], ["--all"]):
        argv = [argv[0][2:], *argv[1:]]
    harness = os.path.join(release, "ppe-perfbench")
    out = os.path.join(target, "perfbench")
    cmd = [harness, *argv, "--ppe", os.path.join(release, "ppe"), "--out", out]
    return subprocess.run(cmd, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
