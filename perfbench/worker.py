"""One benchmark pass in a fresh interpreter; prints one JSON line.

    python3 perfbench/worker.py --workload NAME --seed N --trace 0|1 [--tiny] [--plant]

run.py starts this once per pass with PYTHONPATH pointing at the checkout's
src/, so every pass pays for cold caches as a command-line user does.  Set-up
is `import wzw` plus the G2, F4 and E8 root data; run time covers the whole
workload after that, checks included.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
from time import perf_counter


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true", help="self-check size")
    parser.add_argument("--plant", action="store_true", help="replace the first expected value by a wrong one")
    args = parser.parse_args()

    start = perf_counter()
    import wzw

    for name in ("G2", "F4", "E8"):
        wzw.build_root_datum(wzw.LieAlgebraId.from_string(name))
    setup_s = perf_counter() - start

    from record import Recorder
    from workloads import WORKLOADS

    rec = Recorder(trace=bool(args.trace), plant=args.plant)
    rng = random.Random(args.seed)
    start = perf_counter()
    WORKLOADS[args.workload](rec, rng, args.tiny)
    run_s = perf_counter() - start

    who = resource.RUSAGE_CHILDREN if rec.spawned else resource.RUSAGE_SELF
    result = {
        "setup_s": setup_s,
        "run_s": run_s,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,  # ru_maxrss is in KiB on Linux
        "latencies_ms": [s * 1000 for s in rec.latencies],
        "attempted": rec.attempted,
        "failed": rec.failed,
        "errors": rec.errors,
        "wrong": rec.wrong,
        "checks": rec.checks,
        "known_defects": rec.known_defects,
        "layers": {layer: dict(stats) for layer, stats in rec.layers.items()},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
