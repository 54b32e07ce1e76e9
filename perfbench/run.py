"""The repository benchmark: Table-1 synthesis end to end, traced per layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload table1_serial --seed 1 \
        --seconds 15 --trace 0

``--workload all`` runs every workload, each in a fresh process.
``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` alternates untraced and traced cycles (the service:
one untraced and one traced window) and reports the per-layer metrics,
the tracing overhead and whether each count repeated exactly.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.

The program is read only through its public API (``repro.synthesis``,
``repro.parallel``), the ``repro serve`` CLI and HTTP.  Scratch files
go to ``.perfbench_work/`` and are removed when the run ends.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORKLOADS = (
    "table1_serial", "table1_rerun_pooled", "robust_corners",
    "service_openloop",
)
#: Metrics of the last JSON line with ``--trace 0`` (every workload).
#: ``request_s.tail`` is reported but not among them: a p75 over 40
#: requests spread by a quarter between runs on a shared 2-CPU host.
END_TO_END = (
    ("setup_s", "s"),
    ("request_s.p50", "s"),
    ("evals_per_s", "evals/s"),
    ("specs_met", "count"),
    ("best_cost.geomean", "cost"),
    ("peak_rss_mb", "MB"),
)
#: Metrics of the last JSON line with ``--trace 1`` (0 where a workload
#: does not exercise the layer).  ``*_ms`` is mean self time per call
#: unless noted in the report.
PER_LAYER = (
    ("opamp.design_ms", "ms"), ("opamp.share", "ratio"),
    ("analysis.admit_ms.feasible", "ms"),
    ("analysis.admit_ms.infeasible", "ms"),
    ("lint.ms_per_eval", "ms"), ("lint.rejections", "count"),
    ("synthesis.evals", "count"), ("synthesis.eval_ms", "ms"),
    ("synthesis.failed_share", "ratio"),
    ("synthesis.bench_builds_per_eval", "ratio"),
    ("synthesis.bench_ms", "ms"), ("synthesis.cost_ms", "ms"),
    ("synthesis.anneal_self_ms", "ms"),
    ("synthesis.robust.variants_per_candidate", "ratio"),
    ("spice.dc_solves_per_eval", "ratio"),
    ("spice.newton_iters_per_solve", "ratio"), ("spice.dc_ms", "ms"),
    ("spice.balance_calls_per_eval", "ratio"),
    ("spice.balance_solves_per_call", "ratio"),
    ("spice.balance_ms", "ms"), ("spice.awe_ms", "ms"),
    ("spice.ugf_ms", "ms"),
    ("parallel.chain_ms", "ms"), ("parallel.worker_busy_share", "ratio"),
    ("parallel.parent_wait_ms", "ms"), ("parallel.memo_hit_rate", "ratio"),
    ("parallel.caller_memo_hits", "count"),
    ("store.get_ms", "ms"), ("store.hit_rate", "ratio"),
    ("store.put_rows", "count"), ("store.put_ms", "ms"),
    ("runtime.journal_appends", "count"),
    ("runtime.journal_append_ms", "ms"),
    ("service.queue_wait_s", "s"), ("service.run_s", "s"),
    ("service.busy_share", "ratio"), ("service.busy_retries", "count"),
    ("service.dedupe_share", "ratio"), ("service.refused", "count"),
    ("trace.overhead_share", "ratio"), ("trace.spans", "count"),
    ("trace.inexact_counters", "count"),
)
#: Layer metrics that are counts or ratios of counts: only these may
#: back a claim, and only when they repeat exactly.
COUNT_METRICS = frozenset(
    name for name, unit in PER_LAYER if unit == "count"
) | {
    "synthesis.failed_share", "synthesis.bench_builds_per_eval",
    "synthesis.robust.variants_per_candidate", "spice.dc_solves_per_eval",
    "spice.newton_iters_per_solve", "spice.balance_calls_per_eval",
    "spice.balance_solves_per_call", "parallel.memo_hit_rate",
    "store.hit_rate",
}
#: Percentile ladder for ``.tail``: the highest with >= 10 samples
#: beyond it, judged on a workload's guaranteed sample count.
LADDER = (99, 95, 90, 75, 50)
SETUP_REPEATS = 3
#: Replays of the open-loop schedule per untraced service run.
SERVICE_REPLAYS = 3
#: Cycles per untraced run: at least MIN, more while time is left.
MIN_CYCLES = 2
MAX_CYCLES = 12
SETUP_CODE = (
    "import sys, time\n"
    "t = time.perf_counter()\n"
    "import repro.synthesis, repro.parallel, paper_tables\n"
    "from repro.technology import generic_05um\n"
    "generic_05um()\n"
    "print(time.perf_counter() - t)\n"
)


# ------------------------------------------------------------ statistics


def tail_percentile(guaranteed: int) -> int:
    for pct in LADDER:
        if guaranteed * (100 - pct) / 100 >= 10:
            return pct
    return 50


def percentile(values: list[float], pct: float) -> float:
    ordered = sorted(values)
    if not ordered:
        return math.nan
    rank = (len(ordered) - 1) * pct / 100
    lo = math.floor(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def timing(values: list[float], guaranteed: int) -> tuple[float, float, int]:
    pct = tail_percentile(guaranteed)
    return percentile(values, 50), percentile(values, pct), pct


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


# --------------------------------------------------------------- context


def calibration_seconds() -> float:
    """A fixed pure-Python loop: host speed drift shows up here."""
    start = time.perf_counter()
    total = 0
    for i in range(1_000_000):
        total += i * i % 7
    return time.perf_counter() - start


def cpu_pressure() -> str:
    """Share of recent time some task here waited for a CPU (PSI)."""
    try:
        with open("/proc/pressure/cpu", encoding="ascii") as handle:
            return handle.readline().split()[1].removeprefix("avg10=") + "%"
    except (OSError, IndexError):
        return "n/a"


def host_context() -> dict:
    import numpy
    import scipy

    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        usable = os.cpu_count() or 1
    return {
        "cpu_pressure": cpu_pressure(),
        "nproc": os.cpu_count(),
        "usable_cpus": usable,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "calibration_s": calibration_seconds(),
    }


def measure_setup(repeats: int) -> list[float]:
    """Imports and technology load, each in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        str(p) for p in (ROOT / "src", ROOT / "benchmarks")
    )
    samples = []
    for _ in range(repeats):
        out = subprocess.run(
            [sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
            capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return samples


# ---------------------------------------------------------------- report


class Report:
    """Report lines for one workload plus its metrics and failures."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.metrics: dict[str, tuple[float, str]] = {}
        self.attempted = 0
        self.failures: list[str] = []

    def line(self, text: str) -> None:
        print(f"[{self.workload}] {text}", flush=True)

    def metric(self, name: str, value: float, unit: str, note: str = "",
               *, result: bool = True) -> None:
        if result:
            self.metrics[name] = (value, unit)
        suffix = f"  ({note})" if note else ""
        self.line(f"metric {name} = {value:.6g} {unit}{suffix}")

    def not_applicable(self, name: str, unit: str, why: str) -> None:
        self.line(f"metric {name} = n/a {unit}  ({why})")

    def result(self, names: tuple[tuple[str, str], ...]) -> dict:
        for failure in self.failures[:20]:
            self.line(f"FAILED {failure}")
        missing = [name for name, _ in names if name not in self.metrics]
        if missing:
            raise RuntimeError(f"metrics not measured: {missing}")
        return {
            "correct": not self.failures,
            "attempted": self.attempted,
            "failed": len(self.failures),
            "metrics": {
                name: {"value": self.metrics[name][0], "unit": unit}
                for name, unit in names
            },
        }


def describe(report: Report, workload: str) -> None:
    """State the workload: why, loop kind and rate, layers it loads."""
    from workloads import CLOSED

    if workload in CLOSED:
        w = CLOSED[workload]
        report.line(f"workload: {w.why}")
        report.line(f"loop: {w.loop}")
        report.line(f"loads: {w.loads}")
        report.line(f"bypasses: {w.bypasses}")
        return
    import service_load as sl

    posts = sum(sl.COUNTS.values())
    report.line(
        f"workload: tenants POST to `repro serve` (1 service worker, "
        f"synth_workers=1): {sl.COUNTS} per 10 s of window, "
        f"{sl.MAX_EVALUATIONS} evaluations per fresh job"
    )
    report.line(
        f"loop: open loop, {posts / 10:g} POST/s "
        f"(Poisson, count fixed), {sl.SENDERS} sender threads"
    )
    report.line("loads: service (HTTP, SQLite queue), analysis (admission), "
                "store, runtime journal, synthesis, spice, opamp")
    report.line("bypasses: process pool, caller memo, variation")


# --------------------------------------------------------- closed loops


def closed_requests(workload) -> int:
    """Distinct timed requests per cycle (one best time each)."""
    from workloads import requests_for

    return len(requests_for(workload, 0)) * max(1, workload.memo_passes)


def run_closed_untraced(report: Report, name: str, seed: int,
                        seconds: float, work_root: str) -> None:
    from workloads import CLOSED, geomean, requests_for, run_closed, digest

    workload = CLOSED[name]
    setups = measure_setup(SETUP_REPEATS)
    from repro.technology import generic_05um

    tech = generic_05um()
    requests = requests_for(workload, seed)
    run = run_closed(
        tech, workload, requests, seconds=seconds, min_cycles=MIN_CYCLES,
        max_cycles=MAX_CYCLES, work_root=work_root,
    )
    outcomes = run.outcomes
    report.attempted = len(outcomes)
    report.failures.extend(run.failures)
    first = run.cycles[0]
    best = run.best_seconds()
    times = list(best.values())
    p50, tail, pct = timing(times, closed_requests(workload))
    workers = sorted({o.workers for o in outcomes if not o.error})
    report.line(
        f"cycles: {len(run.cycles)} x {len(first)} requests in "
        f"{run.wall_seconds:.3f} s ("
        + ", ".join(f"{c:.3f}" for c in run.cycle_seconds)
        + f"); workers_effective={workers}"
    )
    report.line("request times: each request's fastest of "
                f"{len(run.cycles)} identical repetitions")
    report.metric("setup_s", statistics.median(setups), "s",
                  f"median of {len(setups)} fresh interpreters: "
                  + ", ".join(f"{s:.4f}" for s in setups))
    report.metric("request_s.p50", p50, "s", f"n={len(times)}")
    report.metric("request_s.tail", tail, "s", f"p{pct}, n={len(times)}")
    report.metric(
        "evals_per_s", sum(o.evaluations for o in first) / sum(times),
        "evals/s", "one cycle's evaluations over its requests' fastest "
        "times, memo hits included",
    )
    report.metric("specs_met", sum(o.meets_spec for o in first), "count",
                  f"of {len(first)} requests")
    report.metric("best_cost.geomean",
                  geomean([o.best_cost for o in first]), "cost")
    for metric, unit in (("admit_ms.p50", "ms"), ("admit_ms.tail", "ms"),
                         ("done_s.p50", "s"), ("done_s.tail", "s"),
                         ("jobs_per_s", "jobs/s")):
        report.not_applicable(metric, unit, "closed loop, no service")
    report.metric("failed_share", len(run.failures) / len(outcomes),
                  "ratio", result=False)
    report.metric("peak_rss_mb", peak_rss_mb(), "MB", "self + children")
    if workload.memo_passes:
        for index in (1, 2):
            pass_times = [o.seconds for o in outcomes
                          if o.key.startswith(f"p{index}/")]
            report.line(f"pass {index}: request_s.p50="
                        f"{statistics.median(pass_times):.4f} s, "
                        f"total {sum(pass_times):.3f} s")
    report.line(f"digest {digest(run.first_signatures())}")


def run_closed_traced(report: Report, name: str, seed: int,
                      work_root: str) -> None:
    from tracer import SpanTable, Tracer, install, layer_metrics, raw_counts
    from workloads import CLOSED, requests_for, run_closed, digest

    workload = CLOSED[name]
    from repro.technology import generic_05um

    tech = generic_05um()
    requests = requests_for(workload, seed)
    span_dir = tempfile.mkdtemp(prefix="spans-", dir=work_root)
    tracer = Tracer(out_dir=span_dir)
    # Cycles: untraced (cold; its results are the reference), traced,
    # untraced, traced.  Overhead compares the warm cycles only: pool
    # workers fork from a parent whose caches the first cycle filled.
    cycles, tables, request_ns = [], [], []
    reference = None
    for label in ("cold", "traced", "untraced", "traced"):
        traced = label == "traced"
        if traced:
            install(tracer)
        try:
            run = run_closed(tech, workload, requests, seconds=0.0,
                             min_cycles=1, max_cycles=1,
                             work_root=work_root,
                             tracer=tracer if traced else None,
                             reference=reference)
        finally:
            tracer.uninstall()
        report.failures.extend(run.failures)
        if reference is None:
            reference = run.first_signatures()
        cycles.append((label, run))
        if traced:
            tables.append(SpanTable(tracer.collect(), os.getpid()))
            request_ns.append(sum(o.seconds for o in run.outcomes) * 1e9)
    report.attempted = len(requests) * max(1, workload.memo_passes) * 4
    metrics, second = (
        layer_metrics(table, request_ns=ns, pool_workers=workload.workers)
        for table, ns in zip(tables, request_ns)
    )
    counts = [raw_counts(table) for table in tables]
    inexact = sorted(
        key for key in set(counts[0]) | set(counts[1])
        if counts[0].get(key) != counts[1].get(key)
    )
    untraced = cycles[2][1].best_seconds()
    traced_times = [run.best_seconds() for label, run in cycles
                    if label == "traced"]
    overhead = statistics.median(
        min(t[key] for t in traced_times) / seconds - 1.0
        for key, seconds in untraced.items()
    )
    report.line(
        "cycles (s): " + ", ".join(
            f"{label} {run.wall_seconds:.3f}" for label, run in cycles
        ) + "; trace.overhead_share is the median over requests of "
        "traced (fastest of two) / warm untraced time - 1"
    )
    metrics.update({
        "service.queue_wait_s": 0.0, "service.run_s": 0.0,
        "service.busy_share": 0.0, "service.busy_retries": 0,
        "service.dedupe_share": 0.0, "service.refused": 0,
        "trace.overhead_share": overhead,
        "trace.spans": len(tables[0].spans),
        "trace.inexact_counters": len(inexact),
    })
    emit_layers(report, metrics, tables[0], counts, inexact, second)
    report.line(f"digest {digest(reference)}")


def emit_layers(report: Report, metrics: dict, table, counts,
                inexact: list[str], second: dict | None = None) -> None:
    report.line("self time by span (first traced cycle or window):")
    total_self = sum(row[2] for row in table.rows()) or 1.0
    for name, calls, self_s, total_s in table.rows():
        report.line(f"  {name:32s} calls={calls:8d} self={self_s:9.4f} s "
                    f"({100 * self_s / total_self:5.1f}%) total={total_s:9.4f} s")
    for name, unit in PER_LAYER:
        note = ""
        if name in COUNT_METRICS:
            if second is None:
                note = "count, not shown exact"
            elif second.get(name, metrics[name]) == metrics[name]:
                note = "count, exact"
            else:
                note = f"count, INEXACT: {metrics[name]} vs {second[name]}"
        report.metric(name, metrics[name], unit, note)
    if counts is None:
        report.line("count exactness: not shown (one traced open-loop window)")
    else:
        exact = sorted(set(counts[0]) - set(inexact))
        report.line(f"count exactness: {len(exact)} counts repeated exactly "
                    f"across the two traced cycles, {len(inexact)} did not")
        for key in inexact:
            report.line(f"  inexact {key}: {counts[0].get(key)} vs "
                        f"{counts[1].get(key)}")


# ---------------------------------------------------------- open loop


def service_end_to_end(window) -> dict:
    """The service workload's timings and quality, from one window."""
    from workloads import geomean

    posts = window.posts
    admit = {p.key: (p.answered - p.due) * 1e3 for p in posts if not p.error}
    late = [p.sent - p.due for p in posts if not p.error]
    done_jobs = []
    for post in posts:
        if post.kind not in ("fresh", "deepen") or post.status != 202:
            continue
        job = window.jobs.get(post.body["job"]["id"], {})
        if job.get("state") == "done":
            done_jobs.append((post, job))
    start = window.start_wall
    done = {
        post.key: job["finished_at"] - (start + post.due)
        for post, job in done_jobs
    }
    end = max((job["finished_at"] for _, job in done_jobs), default=start)
    span = max(end - start, 1e-9)
    results = [job["result"] for _, job in done_jobs]
    run_s = [job["finished_at"] - job["started_at"] for _, job in done_jobs]
    wait_s = [job["started_at"] - job["submitted_at"] for _, job in done_jobs]
    return {
        "admit": admit, "late": late, "done": done, "span": span,
        "jobs": len(done_jobs),
        "evaluations": sum(r.get("evaluations", 0) for r in results),
        "specs_met": sum(bool(r.get("meets_spec")) for r in results),
        "geomean": geomean([float(r["best_cost"]) for r in results]),
        "run_s": run_s, "wait_s": wait_s,
    }


def fastest(replays: list[dict], field: str) -> list[float]:
    """Per request, the fastest of its replays (requests in every one)."""
    keys = set.intersection(*(set(e[field]) for e in replays))
    return [min(e[field][key] for e in replays) for key in sorted(keys)]


def run_service_untraced(report: Report, seed: int, seconds: float,
                         work: Path) -> None:
    import service_load as sl
    from workloads import digest

    windows, signatures = [], []
    setups: list[float] = []
    for replay in range(SERVICE_REPLAYS):
        replay_dir = work / f"replay-{replay}"
        replay_dir.mkdir()
        window, spawn_times = sl.run_window(
            ROOT, replay_dir, seed, seconds,
            setup_spawns=SETUP_REPEATS if replay == 0 else 1,
        )
        setups.extend(spawn_times)
        failures, replay_signatures = sl.check(window)
        report.attempted += len(window.posts)
        report.failures.extend(failures)
        if signatures and replay_signatures != signatures[0]:
            report.failures.append(f"replay {replay}: results differ")
        windows.append(window)
        signatures.append(replay_signatures)
    replays = [service_end_to_end(window) for window in windows]
    first = replays[0]
    counts = sl.counts_for(seconds)
    posts = sum(counts.values())
    admit = fastest(replays, "admit")
    done = fastest(replays, "done")
    admit_p50, admit_tail, admit_pct = timing(admit, posts)
    done_p50, done_tail, done_pct = timing(
        done, counts["fresh"] + counts["deepen"])
    report.line(
        f"{SERVICE_REPLAYS} replays of one schedule, each on a fresh "
        "service; a request's time is its fastest replay"
    )
    late = [x for e in replays for x in e["late"]]
    report.line(
        f"generator lateness: p50 {1e3 * percentile(late, 50):.2f} ms,"
        f" max {1e3 * max(late, default=0.0):.2f} ms"
    )
    report.metric("setup_s", statistics.median(setups), "s",
                  f"median of {len(setups)} spawns until /healthz 200: "
                  + ", ".join(f"{s:.4f}" for s in setups))
    report.metric("admit_ms.p50", admit_p50, "ms",
                  f"due -> POST response, n={len(admit)}", result=False)
    report.metric("admit_ms.tail", admit_tail, "ms",
                  f"p{admit_pct}, n={len(admit)}", result=False)
    report.metric("done_s.p50", done_p50, "s",
                  f"due -> finished_at, n={len(done)}", result=False)
    report.metric("done_s.tail", done_tail, "s",
                  f"p{done_pct}, n={len(done)}", result=False)
    span = min(e["span"] for e in replays)
    report.metric("jobs_per_s", first["jobs"] / span, "jobs/s",
                  "first due -> last finished_at, fastest replay",
                  result=False)
    report.metric("request_s.p50", done_p50, "s", "= done_s.p50")
    report.metric("request_s.tail", done_tail, "s", "= done_s.tail")
    report.metric("evals_per_s", first["evaluations"] / span, "evals/s",
                  "done jobs' evaluations, fastest replay")
    report.metric("specs_met", first["specs_met"], "count",
                  f"of {first['jobs']} done jobs")
    report.metric("best_cost.geomean", first["geomean"], "cost")
    report.metric("failed_share", len(report.failures) / report.attempted,
                  "ratio", result=False)
    report.metric("peak_rss_mb", peak_rss_mb(), "MB", "self + children")
    for index, e in enumerate(replays):
        report.line(f"replay {index}: service.busy_share "
                    f"{sum(e['run_s']) / e['span']:.3f}")
    report.line(f"digest {digest(signatures[0])}")


def run_service_traced(report: Report, seed: int, seconds: float,
                       work: Path) -> None:
    import service_load as sl
    from tracer import T0, SpanTable, layer_metrics, load_spans
    from workloads import digest

    base_dir = work / "untraced"
    base_dir.mkdir()
    base, _ = sl.run_window(ROOT, base_dir, seed, seconds)
    base_failures, base_sigs = sl.check(base)
    traced_dir = work / "traced"
    traced_dir.mkdir()
    spans_path = traced_dir / "service-spans.jsonl"
    window, _ = sl.run_window(ROOT, traced_dir, seed, seconds,
                              trace_out=spans_path)
    failures, signatures = sl.check(window)
    report.attempted = len(base.posts) + len(window.posts)
    report.failures.extend(base_failures + failures)
    for key in sorted(set(base_sigs) | set(signatures)):
        if base_sigs.get(key) != signatures.get(key):
            report.failures.append(f"{key}: traced result differs")
    since = window_start_ns(window)
    spans = [s for s in load_spans(spans_path) if s[T0] >= since]
    table = SpanTable(spans, root_pid=window.service_pid)
    e2e = service_end_to_end(window)
    base_e2e = service_end_to_end(base)
    metrics = layer_metrics(table, request_ns=int(sum(e2e["run_s"]) * 1e9),
                            pool_workers=1)
    posts = window.posts
    metrics.update({
        "service.queue_wait_s": percentile(e2e["wait_s"], 50),
        "service.run_s": percentile(e2e["run_s"], 50),
        "service.busy_share": sum(e2e["run_s"]) / e2e["span"],
        "service.busy_retries": window.stats.get("queue", {}).get(
            "busy_retries", 0),
        "service.dedupe_share": sum(
            1 for p in posts if p.body.get("deduplicated")) / len(posts),
        "service.refused": sum(1 for p in posts if p.status == 429),
        "trace.overhead_share": (
            sum(e2e["run_s"]) / max(sum(base_e2e["run_s"]), 1e-9) - 1.0),
        "trace.spans": len(spans),
        "trace.inexact_counters": sum(
            1 for name, unit in PER_LAYER if unit == "count"),
    })
    report.line("trace.overhead_share compares summed job run time "
                "(finished_at - started_at) traced vs untraced")
    report.line("trace.inexact_counters: open-loop counts depend on timing; "
                "none is claimed exact")
    emit_layers(report, metrics, table, None, [])
    report.line(f"digest {digest(signatures)}")


def window_start_ns(window) -> int:
    """``perf_counter_ns`` at the window start (shared across processes)."""
    offset = time.time() - window.start_wall
    return time.perf_counter_ns() - int(offset * 1e9)


# ---------------------------------------------------------------- main


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks"), str(HERE)]
    report = Report(workload)
    report.line(f"seed {seed}, {seconds:g} s, trace {int(trace)}")
    describe(report, workload)
    context = host_context()
    report.line("host: " + " ".join(f"{k}={v}" for k, v in context.items()))
    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=work_root))
    try:
        if workload == "service_openloop":
            if trace:
                run_service_traced(report, seed, seconds, work)
            else:
                run_service_untraced(report, seed, seconds, work)
        elif trace:
            run_closed_traced(report, workload, seed, str(work))
        else:
            run_closed_untraced(report, workload, seed, seconds, str(work))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass  # another run still uses it
    result = report.result(PER_LAYER if trace else END_TO_END)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


def run_all(seed: int, seconds: float, trace: bool) -> int:
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(int(trace))],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode not in (0, 1) or not lines:
            sys.stderr.write(proc.stderr)
            return 2
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, value in result["metrics"].items():
            combined["metrics"][f"{workload}/{name}"] = value
    print(json.dumps(combined), flush=True)
    return 0 if combined["correct"] else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [
        path for path in ("src/repro/__init__.py", "benchmarks/paper_tables.py")
        if not (ROOT / path).is_file()
    ]
    if missing:
        print(f"error: the program is missing under {ROOT}: {missing}",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
