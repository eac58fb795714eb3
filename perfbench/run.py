#!/usr/bin/env python3
"""End-to-end benchmark of oscgeo.

    python3 perfbench/run.py --workload normalizer-sweep --seed 1 --seconds 10 --trace 0

Runs one workload in a closed loop (one process, one thread, each item issued
when the previous one returns), checks every answer, and prints a readable
table followed by one JSON line: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones; with --trace 1 a fixed
item list runs once untraced and once under span wrappers, and the metrics
are the per-layer counts and self times plus the tracing overhead.  Spans are
written to perfbench-out/ under the checkout root.  Run from the repository
root; oscgeo is imported from src/.
"""

import os

# one BLAS thread: the benchmark is single-threaded by design
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench-out"
SETUP_PROBES = 9
WARMUP_S = 0.5


def provenance(seed: int) -> dict:
    import mpmath
    import numpy

    sources = hashlib.sha256()
    for path in sorted((ROOT / "src" / "oscgeo").glob("*.py")):
        sources.update(path.read_bytes())
    return {
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "src_sha256": sources.hexdigest()[:16],
    }


def git_sha() -> str:
    """HEAD's commit read from .git, or 'none' outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "none"


class SetupProbes:
    """Times fresh processes that import oscgeo and build the inputs.

    The probes are spread over the timed run (called between slices), so
    their median sees the same mix of machine speed states as the workload.
    """

    def __init__(self, workload: str, seed: int, seconds: float):
        self.cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                    "--seed", str(seed), "--probe-setup"]
        self.interval = seconds / SETUP_PROBES
        self.next_at = time.perf_counter()
        self.times: list = []

    def probe(self) -> None:
        # the child reports the time from this launch stamp to inputs built
        launched = repr(time.time())
        done = subprocess.run(self.cmd + [launched], check=True, timeout=120,
                              capture_output=True, text=True)
        self.times.append(float(done.stdout))

    def __call__(self) -> None:
        if len(self.times) < SETUP_PROBES and time.perf_counter() >= self.next_at:
            self.probe()
            self.next_at += self.interval

    def finish(self) -> list:
        while len(self.times) < SETUP_PROBES:
            self.probe()
        return self.times


def warm_up(workload) -> None:
    """Run items untimed so lazy imports and caches settle before timing."""
    from perfbench import harness

    probe = harness.Runner(workload)
    end = time.perf_counter() + WARMUP_S
    i = 0
    while time.perf_counter() < end:
        probe(i)
        i += 1
    harness.reference_rate(0.1)
    # the input pool lives for the whole run; keep the collector from
    # rescanning it, a cost no single oscgeo call would pay
    gc.collect()
    gc.freeze()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_run(args, workload_cls, prov) -> tuple:
    from perfbench import harness

    workload = workload_cls(args.seed)
    runner = harness.Runner(workload)
    warm_up(workload)
    probes = SetupProbes(args.workload, args.seed, args.seconds)
    loop = harness.closed_loop(runner, float(args.seconds), workload.round_size, probes)
    setups = probes.finish()
    stats = harness.summarize(loop, workload.tail_percentile)
    digest, digest_items = runner.digest()
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "throughput_rel": (stats["throughput_rel"], "item/refiter"),
        "latency_p50_rel": (stats["latency_p50_rel"], "refiter"),
        "latency_tail_rel": (stats["latency_tail_rel"], "refiter"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    p = stats["tail_percentile"]
    lines = [
        f"{'setup_s':18s} {metrics['setup_s'][0]:12.4f} s              "
        f"median of {len(setups)} fresh processes: "
        + ", ".join(f"{t:.3f}" for t in setups),
        f"{'throughput_rel':18s} {stats['throughput_rel']:12.6f} item/refiter   "
        f"raw {stats['throughput_raw']:.2f} items/s",
        f"{'latency_p50_rel':18s} {stats['latency_p50_rel']:12.4f} refiter        "
        f"raw {stats['latency_p50_raw_ms']:.3f} ms",
        f"{'latency_tail_rel':18s} {stats['latency_tail_rel']:12.4f} refiter        "
        f"raw {stats['latency_tail_raw_ms']:.3f} ms  at p{p:g}, n={stats['items']}",
        f"{'failed_ratio':18s} {runner.failed / runner.attempted:12.6f} failed/attempted "
        f"{runner.failed}/{runner.attempted}",
        f"{'peak_rss_mb':18s} {metrics['peak_rss_mb'][0]:12.1f} MB",
    ]
    info = {
        **prov,
        "items": stats["items"],
        "tail_percentile": p,
        "rounds": stats["items"] // workload.round_size,
        "reference_rate_median": round(stats["reference_rate_median"], 2),
        "reference_rate_range": [round(stats["reference_rate_min"], 2),
                                 round(stats["reference_rate_max"], 2)],
        "reference_slices": stats["reference_slices"],
        "verdict_digest": digest,
        "digest_items": digest_items,
    }
    return runner, metrics, lines, info


def traced_run(args, workload_cls, prov) -> tuple:
    """Each of the first `trace_items` items runs once plain and once traced.

    The two runs of an item follow each other (in alternating order), so
    both see the same machine speed and their time ratio is the tracing
    overhead without reference scaling.
    """
    from perfbench import harness, tracing

    workload = workload_cls(args.seed)
    warm_up(workload)
    recorder = tracing.Recorder()
    plain, runner = harness.Runner(workload), harness.Runner(workload)
    plain_s = traced_s = 0.0
    for i in range(workload.trace_items):
        for traced in ((False, True) if i % 2 else (True, False)):
            with tracing.installed(recorder) if traced else contextlib.nullcontext():
                with recorder.item_open(i) if traced else contextlib.nullcontext():
                    t0 = time.perf_counter()
                    (runner if traced else plain)(i)
                    elapsed = time.perf_counter() - t0
            if traced:
                traced_s += elapsed
            else:
                plain_s += elapsed
    OUT_DIR.mkdir(exist_ok=True)
    span_file = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
    recorder.write(span_file)
    metrics, self_seconds = tracing.layer_metrics(recorder, traced_s)
    metrics["trace.overhead"] = (traced_s / plain_s, "x")
    lines = [f"{name:48s} {value:14.6g} {unit}" for name, (value, unit) in metrics.items()]
    lines += [f"{name + ' self time':48s} {secs:14.6f} s"
              for name, secs in sorted(self_seconds.items())]
    digest, digest_items = runner.digest()
    info = {
        **prov,
        "items": workload.trace_items,
        "plain_s": round(plain_s, 4),
        "traced_s": round(traced_s, 4),
        "spans_file": str(span_file.relative_to(ROOT)),
        "verdict_digest": digest,
        "digest_items": digest_items,
    }
    return runner, metrics, lines, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", type=float, metavar="LAUNCH_TIME",
                        help="only import oscgeo, build the inputs and print the "
                             "seconds since LAUNCH_TIME (a time.time() stamp)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "oscgeo" / "__init__.py").is_file():
        print(f"error: no oscgeo sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload_cls = WORKLOADS[args.workload]
    if args.probe_setup is not None:
        workload_cls(args.seed)
        print(time.time() - args.probe_setup)
        return 0

    prov = provenance(args.seed)
    run = traced_run if args.trace else timed_run
    runner, metrics, lines, info = run(args, workload_cls, prov)

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    for line in lines:
        print("  " + line)
    for failure in runner.failures:
        print("  failure: " + failure.strip().replace("\n", "\n    "))
    print("  run " + json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
