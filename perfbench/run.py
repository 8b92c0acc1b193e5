#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of the repository.  The benchmark is built from source
into .bench_build/perfbench on first use; later runs rebuild only what
changed.  The last line of stdout is the result object (correct,
attempted, failed, metrics); the line before it is the full report,
stamped with the host, compiler, flags and source revision.
"""

import argparse
import hashlib
import json
import os
import platform
import shlex
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
BUILD = Path(".bench_build") / "perfbench"
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def _cmake(args):
    return subprocess.run(["cmake", *args], stdout=sys.stderr, stderr=sys.stderr).returncode


def build():
    """Configures (once) and builds the benchmark; returns the build dir."""
    configure = ["-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"]
    if not (BUILD / "CMakeCache.txt").exists() or _cmake(configure) != 0:
        # A cache from another source location cannot be reused.
        shutil.rmtree(BUILD, ignore_errors=True)
        if _cmake(configure) != 0:
            raise RuntimeError("cmake configure failed")
    jobs = str(max(1, min(2, os.cpu_count() or 1)))
    if _cmake(["--build", str(BUILD), "-j", jobs]) != 0:
        raise RuntimeError("build failed")
    return BUILD


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit():
    try:
        # Look for a repository here only, never in a parent directory.
        env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(Path.cwd().resolve().parent)}
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                             timeout=10, env=env)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "unknown"


def _source_digest():
    """SHA-256 over the library and benchmark sources, for checkouts
    without git metadata."""
    h = hashlib.sha256()
    for root in (Path("src"), HERE):
        for p in sorted(root.rglob("*")):
            if p.is_file() and "__pycache__" not in p.parts:
                h.update(str(p.relative_to(root.parent)).encode())
                h.update(p.read_bytes())
    return h.hexdigest()


def _build_info(build_dir):
    info = {"build_type": "unknown", "compiler": "unknown", "flags": "unknown"}
    cache = build_dir / "CMakeCache.txt"
    if cache.exists():
        for line in cache.read_text().splitlines():
            if line.startswith("CMAKE_BUILD_TYPE:"):
                info["build_type"] = line.split("=", 1)[1]
    commands = build_dir / "compile_commands.json"
    if commands.exists():
        for entry in json.loads(commands.read_text()):
            if entry["file"].endswith("kvbench.cpp"):
                argv = shlex.split(entry["command"])
                version = subprocess.run([argv[0], "--version"], capture_output=True, text=True)
                info["compiler"] = version.stdout.splitlines()[0] if version.stdout else argv[0]
                info["flags"] = " ".join(a for a in argv[1:] if a.startswith("-") and
                                         not a.startswith(("-I", "-o", "-c")))
    return info


def stamp(build_dir, args):
    return {
        "host": platform.node(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        **_build_info(build_dir),
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def parse_result(line):
    """The result object, or None if `line` is not a well-formed one."""
    try:
        res = json.loads(line)
    except json.JSONDecodeError:
        return None
    if not isinstance(res, dict) or set(res) != RESULT_KEYS:
        return None
    if not isinstance(res["attempted"], int) or res["attempted"] < 1:
        return None
    if not isinstance(res["failed"], int) or not isinstance(res["metrics"], dict):
        return None
    return res


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    t0 = time.monotonic()
    try:
        build_dir = build()
    except (RuntimeError, OSError) as e:
        log(str(e))
        return 1
    log(f"build ready in {time.monotonic() - t0:.1f}s")

    cmd = [str(build_dir / "kvbench"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log(f"kvbench exceeded {RUN_TIMEOUT_S}s and was stopped")
        return 1
    lines = out.strip().splitlines()
    result = parse_result(lines[-1]) if lines else None
    if result is None or len(lines) < 2:
        log(f"kvbench exited {proc.returncode} without a result")
        return 1
    report = json.loads(lines[-2])
    report["report"]["stamp"] = stamp(build_dir, args)
    print(json.dumps(report, separators=(",", ":")))
    print(lines[-1], flush=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
