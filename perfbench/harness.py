"""Closed-loop timing paired with a reference kernel, and the item runner.

The machine this benchmark was written on drifts between speed states, some
lasting seconds and some far shorter, so raw items/s does not repeat.  The
loop therefore interleaves the items with a fixed reference kernel that
calls nothing in oscgeo, and converts the items' wall time into reference
iterations at the rate the kernel ran alongside them.  A `*_rel` figure is
in those units; the raw figures are kept next to it for reading.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction

SHOWN_FAILURES = 3
REF_SHARE = 0.25
SLICE_S = 0.25
PERCENTILE_LADDER = (50.0, 90.0, 99.0, 99.9)


def reference_iteration() -> None:
    """One unit of reference work: a fixed pure-Python Fraction recurrence.

    Of the kernels tried (Fraction, numpy, a mix, larger working sets), this
    one tracked the machine's speed best for both the exact and the float
    workloads.
    """
    a, b = Fraction(1, 3), Fraction(2, 7)
    for k in range(40):
        a = (a * b + Fraction(k, 5)) / (b + 1)
    if a <= 0:
        raise AssertionError("reference kernel diverged")


def reference_rate(duration: float) -> float:
    """Reference iterations per second over about `duration` seconds."""
    count = 0
    start = time.perf_counter()
    while True:
        reference_iteration()
        count += 1
        elapsed = time.perf_counter() - start
        if elapsed >= duration:
            return count / elapsed


@dataclass
class LoopResult:
    """Per-item latencies with the reference rate of the slice each ran in."""

    latencies: list = field(default_factory=list)   # seconds per item
    rates: list = field(default_factory=list)       # reference it/s per item
    work_s: float = 0.0                             # wall time inside items
    work_ref_units: float = 0.0                     # work_s in reference iterations
    slice_rates: list = field(default_factory=list)

    @property
    def items(self) -> int:
        return len(self.latencies)


def closed_loop(run_item, seconds: float, round_size: int, between) -> LoopResult:
    """Issue items one after another, each followed by its share of reference work.

    `run_item(i)` runs item i.  The loop runs until `seconds` have passed and
    then finishes the current round of `round_size` items, so every run
    holds whole rounds and the workload's mix is the same in each.

    After an item that took d seconds the loop runs reference iterations
    for about REF_SHARE * d seconds, so the reference samples the machine's
    speed at the same moments as the workload.  Items are grouped into
    slices of about SLICE_S seconds of work; each slice is converted to
    reference iterations at the rate the reference ran inside it.
    `between()` runs untimed after each slice.
    """
    deadline = time.perf_counter() + seconds
    result = LoopResult()
    slice_lat: list = []
    ref_count, ref_time, debt = 0, 0.0, 0.0
    i = 0
    while True:
        t0 = time.perf_counter()
        run_item(i)
        t1 = time.perf_counter()
        slice_lat.append(t1 - t0)
        i += 1
        debt += REF_SHARE * (t1 - t0)
        while debt > 0.0:
            r0 = time.perf_counter()
            reference_iteration()
            r1 = time.perf_counter()
            debt -= r1 - r0
            ref_count += 1
            ref_time += r1 - r0
        done = t1 >= deadline and i % round_size == 0
        slice_work = sum(slice_lat)
        if done or slice_work >= SLICE_S:
            if ref_count == 0:  # the last item's share was paid in advance
                r0 = time.perf_counter()
                reference_iteration()
                ref_count, ref_time = 1, time.perf_counter() - r0
            rate = ref_count / ref_time
            result.slice_rates.append(rate)
            result.latencies.extend(slice_lat)
            result.rates.extend([rate] * len(slice_lat))
            result.work_s += slice_work
            result.work_ref_units += slice_work * rate
            slice_lat, ref_count, ref_time = [], 0, 0.0
            between()
        if done:
            return result


def tail_percentile(n: int, cap: float) -> float:
    """Highest ladder percentile up to `cap` with at least ten samples beyond it.

    Each workload fixes `cap` at the level its runs always reach, so the
    tail is the same percentile in every run and comparable across commits.
    """
    best = PERCENTILE_LADDER[0]
    for p in PERCENTILE_LADDER:
        if p <= cap and n * (100.0 - p) / 100.0 >= 10:
            best = p
    return best


def percentile(values, p: float) -> float:
    """Nearest-rank percentile of `values`."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def summarize(loop: LoopResult, tail_cap: float) -> dict:
    """Reference-relative and raw timing figures of one loop."""
    n = loop.items
    scaled = [lat * rate for lat, rate in zip(loop.latencies, loop.rates)]
    tail_p = tail_percentile(n, tail_cap)
    return {
        "items": n,
        "tail_percentile": tail_p,
        "throughput_rel": n / loop.work_ref_units,
        "latency_p50_rel": percentile(scaled, 50.0),
        "latency_tail_rel": percentile(scaled, tail_p),
        "throughput_raw": n / loop.work_s,
        "latency_p50_raw_ms": 1e3 * percentile(loop.latencies, 50.0),
        "latency_tail_raw_ms": 1e3 * percentile(loop.latencies, tail_p),
        "reference_rate_median": percentile(loop.slice_rates, 50.0),
        "reference_rate_min": min(loop.slice_rates),
        "reference_rate_max": max(loop.slice_rates),
        "reference_slices": len(loop.slice_rates),
    }


class Runner:
    """Runs items of one workload, counting failed answer checks.

    An exception from an item is a failure of that item, never of the run.
    Verdicts of the first `trace_items` items feed the run's digest, so a
    changed answer shows between two commits even when nothing fails.
    """

    def __init__(self, workload):
        self.workload = workload
        self.failed = 0
        self.attempted = 0
        self.verdicts: dict = {}
        self.failures: list = []

    def __call__(self, i: int) -> None:
        try:
            ok, verdict = self.workload.run(i)
        except Exception as exc:  # an item's failure must not end the run
            ok, verdict = False, f"raised {type(exc).__name__}"
            if len(self.failures) < SHOWN_FAILURES:
                self.failures.append(traceback.format_exc(limit=4))
        else:
            if not ok and len(self.failures) < SHOWN_FAILURES:
                self.failures.append(f"item {i}: wrong answer {str(verdict)[:300]}")
        self.attempted += 1
        self.failed += not ok
        if i < self.workload.trace_items:
            self.verdicts[i] = verdict

    def digest(self) -> tuple:
        h = hashlib.sha256()
        for i in sorted(self.verdicts):
            h.update(json.dumps(self.verdicts[i], sort_keys=True, default=str).encode())
            h.update(b"\n")
        return h.hexdigest()[:16], len(self.verdicts)
