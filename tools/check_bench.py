#!/usr/bin/env python3
"""Compare fresh bench output against the committed BENCH_*.json baselines.

For every BENCH_<name>.json at the repo root this looks up the fresh
counterpart produced by tools/run_bench.sh (build/bench-results/ by
default) and reports what changed:

  * google-benchmark documents (micro_throughput): per-benchmark cpu_time
    ratio against the baseline.  A benchmark slower than --threshold
    (default 1.5x) is flagged; new/removed benchmarks are listed.
  * repo-format documents ("tables"/"metrics"): deterministic content
    (tables, config, non-timing metrics) must match byte for byte —
    these are fixed-seed results, so any drift is a correctness signal,
    not noise.  Timing metrics (keys ending in `_seconds`) are ignored.

Exit status is 0 unless --strict is given: CI runs this as a non-fatal
warning step (quick-mode timings on shared runners are noisy), while a
local `--strict` run turns any flag into a failure.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

TIMING_SUFFIXES = ("_seconds", "_sec")


def load(path: pathlib.Path):
    with path.open() as f:
        return json.load(f)


def is_google_benchmark(doc) -> bool:
    return isinstance(doc, dict) and "benchmarks" in doc and "context" in doc


def strip_timing(value):
    """Recursively drops timing metrics from a repo-format document."""
    if isinstance(value, dict):
        return {
            k: strip_timing(v)
            for k, v in value.items()
            if not k.endswith(TIMING_SUFFIXES)
        }
    if isinstance(value, list):
        return [strip_timing(v) for v in value]
    return value


def compare_google_benchmark(name, baseline, fresh, threshold):
    warnings = []
    base_times = {
        b["name"]: float(b["cpu_time"])
        for b in baseline.get("benchmarks", [])
        if b.get("run_type", "iteration") == "iteration"
    }
    fresh_times = {
        b["name"]: float(b["cpu_time"])
        for b in fresh.get("benchmarks", [])
        if b.get("run_type", "iteration") == "iteration"
    }
    for bench, base_ns in sorted(base_times.items()):
        if bench not in fresh_times:
            warnings.append(f"{name}: benchmark '{bench}' missing from fresh run")
            continue
        ratio = fresh_times[bench] / base_ns if base_ns > 0 else float("inf")
        marker = "REGRESSION" if ratio > threshold else "ok"
        line = (
            f"{name}: {bench}: {base_ns:.1f} -> {fresh_times[bench]:.1f} ns "
            f"({ratio:.2f}x) {marker}"
        )
        print(f"  {line}")
        if ratio > threshold:
            warnings.append(line)
    for bench in sorted(set(fresh_times) - set(base_times)):
        print(f"  {name}: new benchmark '{bench}' (no baseline)")
    return warnings


def compare_repo_format(name, baseline, fresh):
    # The "run" section is execution metadata (thread count, wall time),
    # not results: documents are byte-identical for any --threads value,
    # so the comparison must not depend on where the baseline was made.
    baseline = {k: v for k, v in baseline.items() if k != "run"}
    fresh = {k: v for k, v in fresh.items() if k != "run"}
    if strip_timing(baseline) == strip_timing(fresh):
        print(f"  {name}: deterministic results identical")
        return []
    return [f"{name}: deterministic results differ from committed baseline"]


def summarize_robustness(name, fresh):
    """Extra checks for BENCH_robustness.json (the fault-channel sweep).

    On top of the byte-for-byte determinism comparison, validate the
    document's robustness invariants so a drifting baseline is diagnosed,
    not just flagged: every cipher must recover through the moderate mixed
    profile, every saturating partial result must keep the true candidates
    in its surviving masks, and the residual finisher must escalate every
    saturating partial into a verified full-key recovery within its wall
    budget (the ML ordering puts the truth at the front, so a slow or
    failing finisher is an evidence/enumeration bug, not noise).
    """
    FINISHER_WALL_BUDGET = 10.0  # seconds, mean per finisher-run trial

    warnings = []
    for cipher, cells in fresh.get("metrics", {}).items():
        if not isinstance(cells, dict) or cipher.endswith("_residual_vs_wall"):
            continue
        moderate = cells.get("moderate", {})
        if moderate and moderate.get("verified") != moderate.get("trials"):
            warnings.append(
                f"{name}: {cipher}: moderate profile verified "
                f"{moderate.get('verified')}/{moderate.get('trials')}"
            )
        saturating = cells.get("saturating", {})
        if saturating and saturating.get(
            "partial_truth_contained"
        ) != saturating.get("partial"):
            warnings.append(
                f"{name}: {cipher}: saturating partial results lost true "
                f"candidates ({saturating.get('partial_truth_contained')}/"
                f"{saturating.get('partial')} contained)"
            )
        if saturating and saturating.get("finished") != saturating.get(
            "trials"
        ):
            warnings.append(
                f"{name}: {cipher}: saturating profile finisher recovered "
                f"{saturating.get('finished')}/{saturating.get('trials')}"
            )
        wall = saturating.get("mean_finisher_wall_seconds")
        if wall is not None and wall > FINISHER_WALL_BUDGET:
            warnings.append(
                f"{name}: {cipher}: saturating finisher mean wall time "
                f"{wall:.2f}s exceeds the {FINISHER_WALL_BUDGET:.0f}s budget"
            )
        line = (
            f"{cipher}: moderate {moderate.get('verified', '?')}/"
            f"{moderate.get('trials', '?')} verified, saturating "
            f"{saturating.get('partial_truth_contained', '?')}/"
            f"{saturating.get('partial', '?')} truth-containing partials, "
            f"finisher {saturating.get('finished', '?')}/"
            f"{saturating.get('trials', '?')} recovered"
        )
        print(f"  {line}")
    return warnings


def summarize_leakage(name, fresh):
    """Extra checks for BENCH_leakage.json (the quantified-leakage table).

    The document's invariants are theorems about the analysis, so a
    violation is a bug in the engine (or a silently weakened
    countermeasure), never noise:

      * the taint pass's bound is sound: measured <= bound per channel;
      * every target matches its declared leakage budget;
      * the packed-S-Box countermeasure strictly beats the table baseline
        on the S-Box channel (the paper's Table I claim, quantified).
    """
    warnings = []
    metrics = fresh.get("metrics", {})
    targets = {k: v for k, v in metrics.items() if isinstance(v, dict)}
    for target, m in sorted(targets.items()):
        eps = 1e-9
        if m.get("sbox_bits", 0.0) > m.get("taint_sbox_bound", 0.0) + eps:
            warnings.append(
                f"{name}: {target}: measured S-Box bits "
                f"{m.get('sbox_bits')} exceed taint bound "
                f"{m.get('taint_sbox_bound')}"
            )
        if m.get("perm_bits", 0.0) > m.get("taint_perm_bound", 0.0) + eps:
            warnings.append(
                f"{name}: {target}: measured PermBits bits "
                f"{m.get('perm_bits')} exceed taint bound "
                f"{m.get('taint_perm_bound')}"
            )
        if not m.get("budget_ok", False):
            warnings.append(
                f"{name}: {target}: measured bits drifted from declared "
                f"budget ({m.get('sbox_bits')}/{m.get('budget_sbox_bits')} "
                f"sbox, {m.get('perm_bits')}/{m.get('budget_perm_bits')} perm)"
            )
        print(
            f"  {target}: sbox {m.get('sbox_bits', '?')} <= "
            f"{m.get('taint_sbox_bound', '?')}, perm "
            f"{m.get('perm_bits', '?')} <= {m.get('taint_perm_bound', '?')}, "
            f"budget {'ok' if m.get('budget_ok') else 'DRIFT'}"
        )
    baseline_bits = targets.get("gift64-table", {}).get("sbox_bits")
    for packed in ("gift64-packed-sbox", "gift64-packed-sbox-lut-perm"):
        packed_bits = targets.get(packed, {}).get("sbox_bits")
        if baseline_bits is None or packed_bits is None:
            warnings.append(f"{name}: missing {packed} or gift64-table metrics")
        elif not packed_bits < baseline_bits:
            warnings.append(
                f"{name}: {packed} S-Box leak ({packed_bits}) not strictly "
                f"below the table baseline ({baseline_bits})"
            )
    if not metrics.get("all_within_budget", False):
        warnings.append(f"{name}: document reports budget drift")
    return warnings


def summarize_wide_path(name, fresh):
    """Extra checks for BENCH_micro_throughput.json (the wide path).

    Asserts that the wide observation path pays for itself on the machine
    that produced the document (so a committed baseline compared against
    itself must pass too):

      * BM_ObserveBatch/64 runs one WideObserveCore::run of 64 jobs; its
        per-observation cpu_time must not exceed the scalar
        observe_batch path's (BM_ObserveBatch/16);
      * BM_ObserveBatch/64 must stay at or below the budget of 450 ns
        per observation;
      * BM_WideRecovery at width 64 must keep >= 0.75x linear scaling:
        per-trial time within 1/0.75 of the width-1 lane loop.
    """
    warnings = []
    times = {
        b["name"]: float(b["cpu_time"])
        for b in fresh.get("benchmarks", [])
        if b.get("run_type", "iteration") == "iteration"
    }

    wide = times.get("BM_ObserveBatch/64")
    scalar = times.get("BM_ObserveBatch/16")
    if wide is None or scalar is None:
        warnings.append(
            f"{name}: missing BM_ObserveBatch/16 or /64 (wide-path gate)"
        )
    else:
        per_wide, per_scalar = wide / 64, scalar / 16
        marker = "ok" if per_wide <= per_scalar else "REGRESSION"
        print(
            f"  wide observe: {per_wide:.1f} ns/obs (wide core) vs "
            f"{per_scalar:.1f} ns/obs (scalar) {marker}"
        )
        if per_wide > per_scalar:
            warnings.append(
                f"{name}: wide per-observation time ({per_wide:.1f} "
                f"ns) exceeds the scalar path ({per_scalar:.1f} ns)"
            )
        budget = 450.0
        marker = "ok" if per_wide <= budget else "REGRESSION"
        print(
            f"  wide budget: {per_wide:.1f} ns/obs "
            f"(budget {budget:.0f}) {marker}"
        )
        if per_wide > budget:
            warnings.append(
                f"{name}: wide observe ({per_wide:.1f} ns/obs) exceeds "
                f"the {budget:.0f} ns budget"
            )

    w1 = times.get("BM_WideRecovery/1")
    w64 = times.get("BM_WideRecovery/64")
    if w1 is None or w64 is None:
        warnings.append(
            f"{name}: missing BM_WideRecovery/1 or /64 (wide-path gate)"
        )
    else:
        limit = w1 / 0.75
        marker = "ok" if w64 <= limit else "REGRESSION"
        print(
            f"  wide recovery: width 64 {w64:.2f} vs width 1 {w1:.2f} "
            f"per 64 trials (>= 0.75x linear limit {limit:.2f}) {marker}"
        )
        if w64 > limit:
            warnings.append(
                f"{name}: BM_WideRecovery/64 ({w64:.2f}) scales worse than "
                f"0.75x linear against width 1 ({w1:.2f})"
            )
    return warnings


def summarize_campaign(name, fresh):
    """Extra checks for BENCH_campaign.json (the campaign orchestrator).

    Asserts the orchestrator is effectively free on the machine that
    produced the document (so a committed baseline compared against
    itself must pass too):

      * campaign wall-clock within 5% of the direct ShardPlan dispatch
        over the identical trial grid;
      * both paths verified every trial and agree with each other (same
        pre-derived seeds, so any split is a determinism bug);
      * the results CRC is present — it pins every result byte of the
        campaign's JSONL stream across thread counts and resumes.
    """
    warnings = []
    metrics = fresh.get("metrics", {})
    timing = fresh.get("timing", {})

    direct = timing.get("direct_seconds")
    campaign = timing.get("campaign_seconds")
    if direct is None or campaign is None:
        warnings.append(f"{name}: missing direct/campaign timing (gate)")
    elif float(direct) > 0.0:
        ratio = float(campaign) / float(direct)
        marker = "ok" if ratio <= 1.05 else "REGRESSION"
        print(
            f"  orchestration: campaign {float(campaign):.3f}s vs direct "
            f"{float(direct):.3f}s ({ratio:.3f}x, budget 1.05x) {marker}"
        )
        if ratio > 1.05:
            warnings.append(
                f"{name}: campaign path {ratio:.3f}x slower than direct "
                f"dispatch (budget 1.05x)"
            )

    trials = metrics.get("trials")
    for key in ("verified_direct", "verified_campaign"):
        if metrics.get(key) != trials:
            warnings.append(
                f"{name}: {key} ({metrics.get(key)}) != trials ({trials})"
            )
    if not metrics.get("paths_agree", False):
        warnings.append(f"{name}: direct and campaign paths disagree")
    if not metrics.get("results_crc"):
        warnings.append(f"{name}: missing results_crc metric")
    else:
        print(
            f"  results: {trials} trials, crc32 {metrics['results_crc']} "
            f"({metrics.get('shards', '?')} shards)"
        )
    return warnings


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--results",
        default="build/bench-results",
        help="directory holding fresh BENCH_<name>.json documents",
    )
    parser.add_argument(
        "--baseline-dir",
        default=str(pathlib.Path(__file__).resolve().parent.parent),
        help="directory holding committed BENCH_<name>.json baselines",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=1.5,
        help="flag google-benchmark entries slower than this ratio",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="exit nonzero when anything is flagged",
    )
    args = parser.parse_args()

    baseline_dir = pathlib.Path(args.baseline_dir)
    results_dir = pathlib.Path(args.results)
    baselines = sorted(baseline_dir.glob("BENCH_*.json"))
    if not baselines:
        print(f"check_bench: no BENCH_*.json baselines in {baseline_dir}")
        return 0

    warnings = []
    for base_path in baselines:
        fresh_path = results_dir / base_path.name
        if not fresh_path.exists():
            warnings.append(f"{base_path.name}: no fresh result in {results_dir}")
            continue
        try:
            baseline = load(base_path)
            fresh = load(fresh_path)
        except (OSError, json.JSONDecodeError) as e:
            warnings.append(f"{base_path.name}: unreadable ({e})")
            continue
        print(f"[check_bench] {base_path.name}")
        if is_google_benchmark(baseline):
            warnings += compare_google_benchmark(
                base_path.name, baseline, fresh, args.threshold
            )
            if base_path.name == "BENCH_micro_throughput.json":
                warnings += summarize_wide_path(base_path.name, fresh)
        else:
            warnings += compare_repo_format(base_path.name, baseline, fresh)
            if base_path.name == "BENCH_robustness.json":
                warnings += summarize_robustness(base_path.name, fresh)
            if base_path.name == "BENCH_leakage.json":
                warnings += summarize_leakage(base_path.name, fresh)
            if base_path.name == "BENCH_campaign.json":
                warnings += summarize_campaign(base_path.name, fresh)

    if warnings:
        print(f"\ncheck_bench: {len(warnings)} warning(s):")
        for w in warnings:
            print(f"  WARNING: {w}")
        return 1 if args.strict else 0
    print("\ncheck_bench: all baselines within bounds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
