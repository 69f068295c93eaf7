"""The wzw benchmark: one workload, seeded, for a fixed measuring time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check

Run from the root of a checkout.  Each pass of the workload runs in a fresh
interpreter (worker.py), so lru_cache, module and block caches never carry
over and every pass pays for cold caches the way a command-line call does.
Passes repeat until --seconds have gone by, and at least MIN_PASSES of them.

--trace 0 reports the end-to-end metrics of BENCHMARK.json, from medians
over passes and pooled operation latencies.  --trace 1 alternates untraced
and traced passes and reports the per-layer metrics: work counts (identical
on every pass, or the run fails), median busy time per layer, and the
tracing overhead.  The last line of stdout is one JSON object with keys
correct, attempted, failed and metrics.  Exit status: 0 when every answer
matched its second route, 1 when one did not, 2 when the run could not be
made.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
RUN_LIMIT_S = 165  # a run must end within 180 s; no pass starts that could overrun this
MIN_PASSES = 3  # untraced passes in a --trace 0 run
MIN_TRACED_PASSES = 2  # of each kind, untraced and traced, in a --trace 1 run
TAIL_BEYOND = 10  # the tail percentile keeps at least this many operations above it


class BenchError(Exception):
    """The run could not be made; no result is printed."""


def load_spec() -> dict:
    with open(CHECKOUT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def worker_env() -> dict:
    """Pinned state: only the checkout's src/ on the path, fixed hash seed, default precision."""
    env = dict(os.environ)
    env.pop("WZW_PRECISION", None)
    env["PYTHONPATH"] = str(CHECKOUT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_pass(workload: str, seed: int, trace: int, deadline: float, tiny=False, plant=False) -> dict:
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed), "--trace", str(trace)]
    argv += ["--tiny"] * tiny + ["--plant"] * plant
    try:
        proc = subprocess.run(
            argv, cwd=CHECKOUT, env=worker_env(), capture_output=True, text=True,
            timeout=max(1.0, deadline - monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"a {workload} pass did not finish within the {RUN_LIMIT_S} s run limit") from None
    if proc.returncode != 0:
        raise BenchError(f"a {workload} pass exited {proc.returncode}:\n{proc.stderr.strip()}")
    result = json.loads(proc.stdout.splitlines()[-1])
    result["trace"] = trace
    return result


def run_passes(workload, seed, seconds, trace, tiny=False, plant=False) -> list:
    """Passes until `seconds` have gone by; with trace, alternate untraced and traced."""
    started = monotonic()
    deadline = started + RUN_LIMIT_S
    kinds, need = ((0, 1), MIN_TRACED_PASSES) if trace else ((0,), MIN_PASSES)
    passes, longest = [], 0.0
    while True:
        counts = [sum(p["trace"] == k for p in passes) for k in kinds]
        if min(counts) >= need and monotonic() - started >= seconds:
            break
        if passes and monotonic() + longest > deadline:
            break
        kind = kinds[len(passes) % len(kinds)]
        begun = monotonic()
        passes.append(run_pass(workload, seed, kind, deadline, tiny, plant))
        longest = max(longest, monotonic() - begun)
    return passes


def nearest_rank(sorted_values, q: float) -> float:
    return sorted_values[max(0, math.ceil(q / 100 * len(sorted_values)) - 1)]


def tail_percentile(ops_per_pass: int) -> float:
    """Highest percentile with TAIL_BEYOND operations above it in MIN_PASSES passes.

    Fixed by the workload's pass size, not by how many passes the run made,
    so runs of one workload always report the same percentile.
    """
    guaranteed = ops_per_pass * MIN_PASSES
    return max(0.0, 100 * (guaranteed - TAIL_BEYOND - 1) / guaranteed)


def end_to_end(passes) -> tuple[dict, str]:
    untraced = [p for p in passes if p["trace"] == 0]
    latencies = sorted(ms for p in untraced for ms in p["latencies_ms"])
    q = tail_percentile(min(p["attempted"] for p in untraced))
    values = {
        "setup_s": statistics.median(p["setup_s"] for p in untraced),
        "run_s": statistics.median(p["run_s"] for p in untraced),
        "op_p50_ms": statistics.median(latencies),
        "op_tail_ms": nearest_rank(latencies, q),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in untraced),
    }
    note = f"op_tail_ms is the p{q:.1f} latency of {len(latencies)} operations in {len(untraced)} passes"
    return values, note


def per_layer(passes, names) -> dict:
    traced = [p for p in passes if p["trace"] == 1]
    untraced = [p for p in passes if p["trace"] == 0]
    values = {}
    for name in names:
        layer, _, field = name.partition(".")
        if name == "trace.overhead_s":
            values[name] = statistics.median(p["run_s"] for p in traced) - statistics.median(
                p["run_s"] for p in untraced
            )
            continue
        per_pass = [p["layers"].get(layer, {}).get(field, 0) for p in traced]
        if field == "busy_s":
            values[name] = statistics.median(per_pass)
        elif len(set(per_pass)) != 1:
            raise BenchError(f"{name} differs between passes of one seed: {per_pass}")
        else:
            values[name] = per_pass[0]
    return values


def measure(workload, seed, seconds, trace, tiny=False, plant=False) -> tuple[dict, list]:
    """(result line, report lines) for one run."""
    spec = load_spec()
    passes = run_passes(workload, seed, seconds, trace, tiny, plant)
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    defects = sum(len(p["known_defects"]) for p in passes)
    wrong = sorted({w for p in passes for w in p["wrong"]})
    report = [
        f"workload {workload}, seed {seed}, {len(passes)} passes in fresh interpreters "
        f"({sum(p['trace'] for p in passes)} traced), {passes[0]['checks']} checks per pass",
        f"fail_ratio {(failed + defects) / attempted:.4f}: {failed} failed and {defects} known-defect "
        f"outcomes of {attempted} operations",
    ]
    report += [f"known defect: {line}" for line in sorted({d for p in passes for d in p["known_defects"]})]
    report += [f"failed: {line}" for line in sorted({e for p in passes for e in p["errors"]})]
    report += [f"WRONG ANSWER: {line}" for line in wrong]
    if trace:
        entries = spec["per_layer"]
        values = per_layer(passes, [m["name"] for m in entries])
    else:
        entries = spec["end_to_end"]
        values, note = end_to_end(passes)
        report.append(note)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in entries}
    report += [f"{name} = {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    line = {"correct": not wrong, "attempted": attempted, "failed": failed, "metrics": metrics}
    return line, report


def self_check() -> int:
    """Tiny runs of every workload showing that the benchmark's own checks work.

    1. A planted wrong expected value makes the run report correct: false and exit 1.
    2. Every metric named in BENCHMARK.json is reported, traced and untraced.
    3. Per-layer work counts repeat exactly across two traced runs of one seed.
    """
    spec = load_spec()
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        before = len(problems)
        planted, _ = measure(workload, 7, 0, 0, tiny=True, plant=True)
        if planted["correct"]:
            problems.append(f"{workload}: planted wrong value not caught")
        plain, report = measure(workload, 7, 0, 0, tiny=True)
        if not plain["correct"]:
            problems.append(f"{workload}: tiny run has wrong answers: {report}")
        if set(plain["metrics"]) != {m["name"] for m in spec["end_to_end"]}:
            problems.append(f"{workload}: end-to-end metrics {sorted(plain['metrics'])}")
        traced = [measure(workload, 7, 0, 1, tiny=True)[0] for _ in range(2)]
        for line in traced:
            if set(line["metrics"]) != {m["name"] for m in spec["per_layer"]}:
                problems.append(f"{workload}: per-layer metrics {sorted(line['metrics'])}")
        counts = [
            {k: v["value"] for k, v in line["metrics"].items() if v["unit"] == "count"} for line in traced
        ]
        if counts[0] != counts[1]:
            problems.append(f"{workload}: per-layer counts differ between runs: {counts}")
        print(f"self-check {workload}: {'ok' if len(problems) == before else 'FAILED'}")
    for p in problems:
        print(p, file=sys.stderr)
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description="wzw benchmark: see the module docstring")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true", help="check the benchmark itself on tiny inputs")
    args = parser.parse_args()

    if not (CHECKOUT / "src" / "wzw" / "__init__.py").is_file():
        print(f"error: no wzw sources under {CHECKOUT / 'src'}; run from a checkout of the repository", file=sys.stderr)
        return 2
    try:
        if args.self_check:
            return self_check()
        names = [w["name"] for w in load_spec()["workloads"]]
        if args.workload not in names:
            parser.error(f"--workload must be one of {', '.join(names)}")
        line, report = measure(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for text in report:
        print(text)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
