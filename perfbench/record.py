"""Operation timing, per-layer spans and answer checks for one benchmark pass.

Every call the benchmark makes into wzw goes through ``Recorder.call`` (or
``Recorder.cli`` for a command-line process): that call is one operation, its
wall time is one latency sample, and with tracing on it is also one span of
the layer (module) it calls into, with that layer's work counters.
"""

from __future__ import annotations

import json
import subprocess
import sys
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter

CHECKOUT = Path(__file__).resolve().parent.parent
CLI_TIMEOUT_S = 60

# How the known defect kept in the robustness slice shows: (marker in the
# last stderr line, exit code).
KNOWN_DEFECT_SIGNATURE = ("RecursionError", 1)


class OpFailed(Exception):
    """A library call raised; dependent checks are skipped."""


class _Planted:
    """Stands in for an expected value in the self-check; equals nothing."""

    def __repr__(self) -> str:
        return "<planted wrong expected value>"


class Recorder:
    def __init__(self, trace: bool, plant: bool = False):
        self.trace = trace
        self.plant = plant
        self.latencies = []  # seconds, one per operation
        self.attempted = 0
        self.failed = 0
        self.errors = []  # one line per failed operation
        self.wrong = []  # one line per answer that disagrees with its second route
        self.checks = 0
        self.known_defects = []  # argv of probes that reproduced a known defect
        self.spawned = False
        self.layers = {}  # layer -> Counter of calls, busy_s, failed and work counts

    def _record(self, layer: str, seconds: float, failed: bool, work=None):
        self.attempted += 1
        self.latencies.append(seconds)
        if failed:
            self.failed += 1
        if self.trace:
            stats = self.layers.setdefault(layer, Counter())
            stats["calls"] += 1
            stats["busy_s"] += seconds
            stats["failed"] += int(failed)
            if work:
                stats.update(work)

    def call(self, layer: str, fn, *args, work=None, **kwargs):
        """Run one library call as an operation of ``layer``.

        ``work(result)`` returns the layer's work counts for the result; it is
        evaluated only while tracing.
        """
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # a crash is a failed operation, not the end of the pass
            self._record(layer, perf_counter() - start, failed=True)
            self.errors.append(f"{layer}.{fn.__name__}: {traceback.format_exception_only(exc)[-1].strip()}")
            raise OpFailed from exc
        seconds = perf_counter() - start
        self._record(layer, seconds, failed=False, work=work(result) if work and self.trace else None)
        return result

    def expect(self, label: str, got, want):
        """Exact check of an answer against its second route."""
        self.checks += 1
        if self.plant and self.checks == 1:
            want = _Planted()
        if got != want:
            self.wrong.append(f"{label}: got {_short(got)}, expected {_short(want)}")

    def within(self, label: str, error, tolerance: float):
        """Numeric check: ``error`` must be below ``tolerance``."""
        self.checks += 1
        if not error < tolerance:
            self.wrong.append(f"{label}: error {_short(error)} not below {tolerance}")

    def cli(self, argv, check=None, refusal_ok=False, known_defect=False):
        """One fresh ``python -m wzw.cli ... --json`` process as an operation.

        The process inherits this worker's pinned environment.  Exit 0 must
        print JSON, which ``check(doc)`` turns into (label, got, want)
        triples.  Exit 2 is accepted where ``refusal_ok``.  Any other outcome
        is a failed operation, except the known defect this probe was kept
        for, which is listed separately.
        """
        self.spawned = True
        start = perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "wzw.cli", *argv, "--json"],
                cwd=CHECKOUT,
                capture_output=True,
                text=True,
                timeout=CLI_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            self._cli_failed(argv, perf_counter() - start, f"timed out after {CLI_TIMEOUT_S} s")
            return
        seconds = perf_counter() - start
        if proc.returncode == 0 and check is not None:
            try:
                doc = json.loads(proc.stdout)
            except json.JSONDecodeError:
                self._cli_failed(argv, seconds, "exit 0 without a JSON document")
                return
            self._record("cli", seconds, failed=False)
            for label, got, want in check(doc):
                self.expect(f"wzw {' '.join(argv)}: {label}", got, want)
            return
        if proc.returncode == 2 and refusal_ok:
            self._record("cli", seconds, failed=False)
            return
        last = proc.stderr.strip().splitlines()[-1:] or ["(no stderr)"]
        marker, code = KNOWN_DEFECT_SIGNATURE
        if known_defect and proc.returncode == code and marker in last[0]:
            self._record("cli", seconds, failed=False, work={"exit_unexpected": 1})
            self.known_defects.append(f"wzw {' '.join(argv)}: exit {code}, {last[0]}")
            return
        self._cli_failed(argv, seconds, f"exit {proc.returncode}: {last[0]}")

    def _cli_failed(self, argv, seconds, why):
        self._record("cli", seconds, failed=True, work={"exit_unexpected": 1})
        self.errors.append(f"wzw {' '.join(argv)}: {why}")


def _short(value, limit: int = 120) -> str:
    text = repr(value)
    return text if len(text) <= limit else text[: limit - 3] + "..."
