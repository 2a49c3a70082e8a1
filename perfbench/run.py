#!/usr/bin/env python3
"""Build and run the tightcps benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload dimension|verify|admit \
        --seed N --seconds S --trace 0|1

The script compiles the Go benchmark (perfbench/, a module of its own that
imports the repository through a relative replace) into .bench_build/, with
the Go build cache, module cache and temporary files kept under
.bench_build/ as well, then replaces itself with the benchmark binary. The
binary's last line of standard output is the JSON result. A failed build
exits non-zero and prints no result.
"""

import hashlib
import os
import subprocess
import sys

ROOT = os.getcwd()
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")


def tree_id():
    """Identify the code under test: the git commit when the checkout is a
    repository, else a hash over the Go sources and module files."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=30)
            if out.returncode == 0:
                return out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        for name in sorted(filenames):
            if name.endswith(".go") or name in ("go.mod", "go.sum"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "tree:" + h.hexdigest()[:16]


def main():
    env = dict(os.environ)
    build_env = dict(env)
    build_env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOMODCACHE": os.path.join(BUILD, "gomodcache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "GOTMPDIR": os.path.join(BUILD, "tmp"),
        # The go command's local telemetry counters live under the user
        # config directory; keep them in the checkout too.
        "XDG_CONFIG_HOME": os.path.join(BUILD, "config"),
        "GOTELEMETRY": "off",
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOWORK": "off",
    })
    os.makedirs(build_env["GOTMPDIR"], exist_ok=True)
    build = subprocess.run(["go", "build", "-o", BINARY, "."], cwd=BENCH_DIR, env=build_env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        sys.exit(build.returncode or 1)
    env["PERFBENCH_COMMIT"] = tree_id()
    env["PERFBENCH_OUT"] = BUILD
    sys.stdout.flush()
    os.execve(BINARY, [BINARY] + sys.argv[1:], env)


if __name__ == "__main__":
    main()
