#!/usr/bin/env python3
"""Build the perfbench benchmark from source and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload stream|remote|serve --seed N --seconds S --trace 0|1

Everything the build and the run write goes under .bench_build/ at the
repository root: the Go build cache, the benchmark binary and the span
files of traced runs. The arguments are passed to the binary unchanged;
its exit code is this script's exit code. The last line of its standard
output is the JSON result.
"""

import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def go_env():
    env = dict(os.environ)
    for key, sub in (("GOCACHE", "gocache"), ("GOMODCACHE", "gomodcache"),
                     ("GOPATH", "gopath"), ("GOTMPDIR", "tmp"),
                     ("XDG_CONFIG_HOME", "config"), ("TMPDIR", "tmp")):
        path = os.path.join(BUILD, sub)
        os.makedirs(path, exist_ok=True)
        env[key] = path
    env.update(GOFLAGS="-mod=readonly", GOPROXY="off", GOTOOLCHAIN="local", GOWORK="off")
    return env


def main():
    env = go_env()
    go = shutil.which("go") or "/usr/local/go/bin/go"
    binary = os.path.join(BUILD, "perfbench")
    build = subprocess.run([go, "build", "-o", binary, "."], cwd=HERE, env=env,
                           stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if build.returncode != 0:
        sys.stderr.write("perfbench: build failed:\n" + build.stdout)
        return 3
    child = subprocess.Popen([binary] + sys.argv[1:], cwd=ROOT, env=env)

    def forward(signum, _frame):
        child.send_signal(signum)

    for sig in (signal.SIGINT, signal.SIGTERM):
        signal.signal(sig, forward)
    return child.wait()


if __name__ == "__main__":
    sys.exit(main())
