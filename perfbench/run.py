#!/usr/bin/env python3
"""Build and run the fftgrad host-time benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the fftgrad libraries from ../src together with the perfbench binary
(CMake, Release) into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench under the repository root), then runs one workload.
The binary's last stdout line is the run's JSON result; build output goes to
stderr. Traces and a results.jsonl row per run land in <build>/results.
"""
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build():
    """Configure (once) and build the binary; returns its path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"no fftgrad sources under {os.path.join(ROOT, 'src')}")
        return None
    out = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", out, "--target", "perfbench", "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("build failed: " + " ".join(step))
            return None
    return os.path.join(out, "perfbench")


def git_sha():
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel"],
                             capture_output=True, text=True, check=True).stdout.strip()
        if os.path.realpath(top) != os.path.realpath(ROOT):
            return "unknown"
        return subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def source_digest():
    """SHA-256 over the files the benchmark is built from."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def main(argv):
    binary = build()
    if binary is None:
        return 1
    results = os.path.join(build_dir(), "results")
    os.makedirs(results, exist_ok=True)
    args = [binary, *argv, "--out-dir", results,
            "--git-sha", git_sha(), "--src-digest", source_digest()]
    sys.stdout.flush()
    os.execv(binary, args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
