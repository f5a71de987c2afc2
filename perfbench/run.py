#!/usr/bin/env python3
"""Build fsmserve and the perfbench load generator from source, then run
one benchmark workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload ids-run --seed 1 --seconds 20 --trace 0

Arguments are passed through to the perfbench binary (see main.go).
Everything the build and the run write stays under .bench_build/ in
the checkout (or under $CARGO_TARGET_DIR when it is set): the Go build
cache and temporary files, both binaries, the generated patterns
files, per-run reports and trace spans. The exit code is perfbench's;
a failed build exits non-zero without printing a result line.
"""
import os
import shutil
import subprocess
import sys


def main():
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(root, ".bench_build"))
    go = shutil.which("go")
    if go is None:
        print("run.py: the go toolchain is not on PATH", file=sys.stderr)
        return 1
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOMODCACHE": os.path.join(build, "gopath", "mod"),
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "GOFLAGS": "-mod=mod",
        "GOPROXY": "off",
        "GOTOOLCHAIN": "local",
        "CGO_ENABLED": "0",
        "GOTMPDIR": tmp,
        "TMPDIR": tmp,
    })
    bin_dir = os.path.join(build, "bin")
    server = os.path.join(bin_dir, "fsmserve")
    bench = os.path.join(bin_dir, "perfbench")
    for cmd, cwd in (
        ([go, "build", "-o", server, "./cmd/fsmserve"], root),
        ([go, "build", "-o", bench, "."], here),
    ):
        if subprocess.run(cmd, cwd=cwd, env=env).returncode != 0:
            print("run.py: build failed: " + " ".join(cmd[1:]), file=sys.stderr)
            return 1
    args = [bench, "-server", server, "-workdir", os.path.join(build, "run"), "-root", root]
    return subprocess.run(args + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
