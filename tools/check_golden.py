#!/usr/bin/env python3
"""Golden-output manifest: byte identity of every fixed-seed output.

Runs every deterministic command of a build -- the attack CLIs, the
campaign service, the examples, leakcheck and every bench's
`--quick --json` -- and hashes each output: a command's stdout and each
file it writes.  tools/golden.txt holds one line per output,
`<sha256>  <label>`.  A JSON output is hashed after check_bench.py's
strip_timing drops its wall-time fields, re-serialised with sorted keys.

Usage: tools/check_golden.py [--build DIR] [--update]
  --build   build tree holding tools/, examples/ and bench/ (default: build)
  --update  rewrite the manifest instead of comparing (say in CHANGES.md
            which lines moved and why)

Exit status: 0 when every output matches the manifest (or --update
wrote it); 1 when an output differs, is missing from the manifest or a
manifest line has no command; 2 when a command fails.

Up to four commands run at once.  Benches run at --threads 4, since
their JSON records the thread count.
Left out because it differs between two runs of one build: the
micro_throughput bench (google-benchmark timings only).
"""

from __future__ import annotations

import argparse
import concurrent.futures
import hashlib
import json
import os
import pathlib
import subprocess
import sys
import tempfile

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
from check_bench import strip_timing  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "tools" / "golden.txt"
JOBS = min(4, os.cpu_count() or 1)

EXAMPLES = ["quickstart", "multi_cipher", "full_key_recovery",
            "countermeasure_eval", "mpsoc_attack", "rtos_scheduling"]
BENCHES = ["fig3_probing_round", "table1_cache_line", "table2_platforms",
           "full_key_recovery", "countermeasures", "ablation_probe_method",
           "ablation_cache_policy", "ablation_probe_precision",
           "ablation_prefetch", "leakage_profile", "extension_gift128",
           "extension_present", "extension_time_driven", "robustness_sweep",
           "leakage_quantify", "campaign_throughput"]
GIFT128_FINISH = ["--cipher", "gift128", "--fault-profile", "saturating",
                  "--vote", "16", "--budget", "8000", "--finish",
                  "--finish-budget", "256", "--wide", "8", "--trials", "64"]


def commands():
    """(label, argv, stdout kind, [(file, kind)]) per command.  argv[0]
    is relative to the build tree; a kind is "raw" or "json"."""
    out = []
    for seed in range(1, 6):
        s = str(seed)
        out.append((f"grinch attack --seed {s}",
                    ["tools/grinch", "attack", "--seed", s], "raw", []))
        for cmd in ("attack128", "attack-present"):
            out.append((f"grinch {cmd} --seed {s} --json",
                        ["tools/grinch", cmd, "--seed", s, "--json",
                         "report.json"], "raw", [("report.json", "json")]))
    specs = [("campaign_gift64", ["--spec",
                                  str(ROOT / "examples/campaign_gift64.json")]),
             ("campaign_finish_gift64",
              ["--spec", str(ROOT / "examples/campaign_finish_gift64.json")]),
             ("gift128_saturating_finish", GIFT128_FINISH)]
    for name, spec in specs:
        for threads in ("1", "4"):
            out.append((f"grinch campaign run {name} --threads {threads}",
                        ["tools/grinch", "campaign", "run", *spec,
                         "--threads", threads, "--out", "r.jsonl"],
                        None, [("r.jsonl", "raw"), ("r.jsonl.ckpt", "raw")]))
    for example in EXAMPLES:
        out.append((f"examples/{example}", [f"examples/{example}"], "raw",
                    []))
    for cmd in ("platforms", "countermeasures"):
        out.append((f"grinch {cmd}", ["tools/grinch", cmd], "raw", []))
    out.append(("leakcheck --json", ["tools/leakcheck", "--json"], "json",
                []))
    out.append(("leakcheck quantify --json",
                ["tools/leakcheck", "quantify", "--json"], "json", []))
    for bench in BENCHES:
        out.append((f"bench/{bench} --quick --json",
                    [f"bench/{bench}", "--quick", "--threads", "4", "--json",
                     "bench.json"], None, [("bench.json", "json")]))
    return out


def digest(data: bytes, kind: str) -> str:
    if kind == "json":
        doc = strip_timing(json.loads(data))
        data = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(data).hexdigest()


def run(build: pathlib.Path, entry):
    """Runs one command in a scratch directory; returns its output
    lines [(label, sha256)] or raises RuntimeError."""
    label, argv, stdout_kind, files = entry
    with tempfile.TemporaryDirectory(prefix="golden-") as cwd:
        proc = subprocess.run([str(build / argv[0]), *argv[1:]], cwd=cwd,
                              stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"{label}: exit {proc.returncode}\n"
                               f"{proc.stderr.decode(errors='replace')}")
        lines = []
        if stdout_kind is not None:
            lines.append((f"{label} :stdout",
                          digest(proc.stdout, stdout_kind)))
        for name, kind in files:
            path = pathlib.Path(cwd) / name
            if not path.exists():
                raise RuntimeError(f"{label}: wrote no {name}")
            lines.append((f"{label} :{name}", digest(path.read_bytes(),
                                                     kind)))
        return lines


def load_manifest(path: pathlib.Path):
    manifest = {}
    if path.exists():
        for line in path.read_text().splitlines():
            if line.strip():
                sha, label = line.split("  ", 1)
                manifest[label] = sha
    return manifest


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--build", default="build")
    ap.add_argument("--update", action="store_true")
    args = ap.parse_args()

    build = pathlib.Path(args.build).resolve()
    entries = commands()
    results = {}
    failed = False
    with concurrent.futures.ThreadPoolExecutor(JOBS) as pool:
        futures = {pool.submit(run, build, e): e[0] for e in entries}
        for future in concurrent.futures.as_completed(futures):
            try:
                results[futures[future]] = future.result()
            except RuntimeError as err:
                print(f"FAILED    {err}", file=sys.stderr)
                failed = True
    if failed:
        return 2
    lines = [line for e in entries for line in results[e[0]]]

    if args.update:
        MANIFEST.write_text("".join(f"{sha}  {label}\n"
                                    for label, sha in lines))
        print(f"check_golden: wrote {len(lines)} lines to {MANIFEST}")
        return 0

    manifest = load_manifest(MANIFEST)
    status = 0
    for label, sha in lines:
        want = manifest.get(label)
        if want is None:
            print(f"NEW       {label}")
            status = 1
        elif want != sha:
            print(f"DIFFERS   {label}")
            status = 1
    produced = {label for label, _ in lines}
    for label in manifest:
        if label not in produced:
            print(f"STALE     {label}: no command produces it")
            status = 1
    print(f"check_golden: {len(lines)} outputs, "
          f"{'all match' if status == 0 else 'MISMATCH'}")
    return status


if __name__ == "__main__":
    sys.exit(main())
