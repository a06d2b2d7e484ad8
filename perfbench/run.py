#!/usr/bin/env python3
"""Build and run the end-to-end benchmark of the GRINCH reproduction.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  It builds perfbench/ (CMake, Release,
its own package that compiles ../src) into .bench_build/perfbench, runs one
workload and relays the benchmark's output: the run context, a metric
table and, as the last line of stdout, the result JSON.  Results files,
checkpoints and the Chrome trace of a traced run go to
.bench_build/perfbench-out.  `--workload all` runs every workload in turn.

Exit status: 0 when every output check passed; non-zero when the build
fails (for instance without the library sources under src/), the
arguments are malformed or any check fails.  See perfbench/README.md.
"""

import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
OUT = ROOT / ".bench_build" / "perfbench-out"
WORKLOADS = [
    "campaign_gift64_clean",
    "campaign_present80_clean",
    "campaign_gift128_saturating_finish",
    "attack_gift64_single",
]


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configures once, then brings the binary up to date (a no-op when the
    sources did not change).  Build output goes to stderr."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no library sources under {ROOT / 'src'}; run from a full checkout")
    cmake = shutil.which("cmake")
    if cmake is None:
        fail("cmake not found")
    jobs = str(min(os.cpu_count() or 1, 4))
    # Keep the compiler's temporary files inside the checkout too.
    env = dict(os.environ, TMPDIR=str(BUILD / "tmp"))
    (BUILD / "tmp").mkdir(parents=True, exist_ok=True)
    if not (BUILD / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = [cmake, "-S", str(HERE), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=Release", *generator]
        if subprocess.run(configure, stdout=sys.stderr, env=env).returncode:
            fail("configure failed")
    compile_ = [cmake, "--build", str(BUILD), "--target", "perfbench",
                "-j", jobs]
    if subprocess.run(compile_, stdout=sys.stderr, env=env).returncode:
        fail("build failed")
    return BUILD / "perfbench"


def commit():
    git = shutil.which("git")
    if git is None or not (ROOT / ".git").exists():
        return "unknown"
    out = subprocess.run([git, "-C", str(ROOT), "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def source_digest():
    """SHA-256 over the measured sources (src/ and perfbench/), which
    identifies the code even in a checkout that is not a git repository."""
    h = hashlib.sha256()
    for base in ("src", "perfbench"):
        for path in sorted((ROOT / base).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()
    if not 0 <= args.seed < 2**64 or not 1 <= args.seconds <= 3600:
        fail("--seed must be in [0, 2^64) and --seconds in [1, 3600]")

    # A terminated run must not leave the benchmark process behind:
    # turning SIGTERM into SystemExit lets subprocess.run kill and reap it.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    binary = build()
    context = ["--commit", commit(), "--source-digest", source_digest()]
    status = 0
    for workload in WORKLOADS if args.workload == "all" else [args.workload]:
        sys.stdout.flush()
        cmd = [str(binary), "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--out-dir", str(OUT), *context]
        rc = subprocess.run(cmd).returncode
        if rc != 0:
            status = rc if rc > 0 else 1  # < 0: killed by a signal
    sys.exit(status)


if __name__ == "__main__":
    main()
