"""Outside-in span tracer for the benchmark.

The tracer wraps the public entry points of each ``repro`` layer at the
name its caller resolves, so the program itself is untouched.  Every
call records one span ``(name, id, parent, request, start_ns, end_ns,
info)`` in memory; ``info`` is a small tag read off the call's
arguments or result (a DC solve's Newton iteration count, a memo hit,
an admission verdict).  A span's self time is its duration minus the
union of the intervals its child spans cover.

Pool workers inherit the wrappers through ``fork``.  They keep their
spans in memory and append them to ``<out_dir>/spans-<pid>.jsonl`` once
per finished chain.  The service launcher (``serve_traced.py``) writes
the service process's spans on exit.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import math
import os
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path

#: Fields of one recorded span.
NAME, SID, PARENT, RID, T0, T1, INFO = range(7)


class Tracer:
    """In-memory span recorder shared by every wrapper of one process."""

    def __init__(self, out_dir: str | os.PathLike[str] | None = None) -> None:
        self.out_dir = Path(out_dir) if out_dir is not None else None
        self.spans: list[tuple] = []
        self.request_id = ""
        #: ``id()`` of the memo the benchmark passes in; forked workers
        #: keep the same address for their copy of it.
        self.caller_memo_id: int | None = None
        self._root_pid = os.getpid()
        self._reset_ids()
        self._local = threading.local()
        self._fork_parent = 0
        self._fork_request = ""
        #: Request id -> its root span, so spans a request starts on
        #: another thread (the service's synthesis thread) nest under it.
        self._roots: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []
        os.register_at_fork(after_in_child=self._after_fork)

    def _reset_ids(self) -> None:
        self._base = os.getpid() * 1_000_000_000
        self._ids = itertools.count(1)

    def _after_fork(self) -> None:
        stack = getattr(self._local, "stack", None)
        self._fork_parent = stack[-1] if stack else self._fork_parent
        self._fork_request = self.current_request()
        self._local = threading.local()
        self.spans = []
        self._reset_ids()

    @property
    def in_worker(self) -> bool:
        return os.getpid() != self._root_pid

    def current_request(self) -> str:
        rid = getattr(self._local, "rid", None)
        if rid:
            return rid
        if self.request_id:
            return self.request_id
        if self._fork_request:
            return self._fork_request
        name = threading.current_thread().name
        # The service runs each job's synthesis on "synthesis-<job id>".
        return name.removeprefix("synthesis-")

    def set_thread_request(self, rid: str | None) -> None:
        self._local.rid = rid

    # ------------------------------------------------------------ wrapping

    def wrap(self, name, fn, info=None, flush=False, root=False):
        """``fn`` wrapped so each call records a span named ``name``.

        ``flush`` writes a pool worker's spans out after the call;
        ``root`` makes the span the parent of its request's spans that
        start on other threads.
        """
        tracer = self
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            local = tracer._local
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            rid = tracer.current_request()
            parent = stack[-1] if stack else tracer._roots.get(
                rid, tracer._fork_parent)
            sid = tracer._base + next(tracer._ids)
            if root:
                tracer._roots[rid] = sid
            stack.append(sid)
            result = None
            failed = True
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                t1 = clock()
                stack.pop()
                if root:
                    tracer._roots.pop(rid, None)
                tag = "error" if failed else (
                    info(args, result) if info is not None else None
                )
                tracer.spans.append((name, sid, parent, rid, t0, t1, tag))
                if flush and tracer.in_worker:
                    tracer.flush_worker()

        return traced

    def patch(self, owner, attr, name, info=None, flush=False) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, info, flush))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ---------------------------------------------------------- write-out

    def flush_worker(self) -> None:
        """Append this worker's spans to its file (once per chain)."""
        if self.out_dir is None or not self.spans:
            return
        path = self.out_dir / f"spans-{os.getpid()}.jsonl"
        text = "".join(json.dumps(span) + "\n" for span in self.spans)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(text)
        self.spans = []

    def dump(self, path: str | os.PathLike[str]) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("".join(json.dumps(s) + "\n" for s in self.spans))

    def collect(self) -> list[tuple]:
        """Take this process's spans plus every worker file written."""
        spans = self.spans
        self.spans = []
        if self.out_dir is not None:
            for path in sorted(self.out_dir.glob("spans-*.jsonl")):
                spans.extend(load_spans(path))
                path.unlink()
        return spans


def load_spans(path: str | os.PathLike[str]) -> list[tuple]:
    with open(path, encoding="utf-8") as handle:
        return [tuple(json.loads(line)) for line in handle if line.strip()]


# ------------------------------------------------------------------ sites


def _iterations(args, result):
    return getattr(result, "iterations", None)


def _ok(args, result):
    return bool(getattr(result, "ok", True))


def _none_failed(args, result):
    return "failed" if result is None else None


def _feasible(args, result):
    return bool(getattr(result, "feasible", True))


def _rows(args, result):
    return int(result) if isinstance(result, int) else 0


def _hit(args, result):
    return "hit" if result is not None else "miss"


def install(tracer: Tracer) -> None:
    """Wrap every traced entry point at the name its caller resolves."""
    mod = importlib.import_module
    engine = mod("repro.synthesis.engine")
    problems = mod("repro.synthesis.problems")
    robust = mod("repro.synthesis.robust")
    analysis = mod("repro.spice.analysis")
    executor = mod("repro.parallel.executor")
    parallel = mod("repro.parallel")
    opamp = mod("repro.opamp")
    lint = mod("repro.lint")
    feasibility = mod("repro.analysis")
    awe = mod("repro.spice.awe")
    cost = mod("repro.synthesis.cost")
    annealing = mod("repro.synthesis.annealing")
    memo = mod("repro.parallel.memo")
    store = mod("repro.store.store")
    journal = mod("repro.runtime.journal")
    queue = mod("repro.service.queue")
    worker = mod("repro.service.worker")

    def caller_hit(args, result):
        owner = "caller" if id(args[0]) == tracer.caller_memo_id else "own"
        return f"{_hit(args, result)}:{owner}"

    patch = tracer.patch
    # opamp (APE): the serial engine binds the names at import time,
    # the executor imports them from the package at call time.
    for owner in (engine, opamp):
        patch(owner, "coarse_design_opamp", "opamp.design")
        patch(owner, "design_opamp", "opamp.design")
    patch(lint, "lint_circuit", "lint.check", _ok)
    patch(problems, "parameterized_opamp", "synthesis.parameterize")
    patch(problems, "open_loop_bench", "synthesis.bench")
    patch(robust, "open_loop_bench", "synthesis.bench")
    # Both DC call sites: direct solves and the balancing bisection's.
    patch(problems, "dc_operating_point", "spice.dc", _iterations)
    patch(analysis, "dc_operating_point", "spice.dc", _iterations)
    patch(problems, "balance_differential", "spice.balance")
    patch(problems, "awe_poles", "spice.awe")
    patch(awe.AweApproximant, "unity_gain_frequency", "spice.ugf")
    patch(cost.CostFunction, "__call__", "synthesis.cost")
    patch(problems.OpAmpSizingProblem, "evaluate", "synthesis.evaluate",
          _none_failed)
    patch(annealing.Annealer, "run", "synthesis.anneal")
    patch(robust.RobustEvaluator, "evaluate", "synthesis.robust.evaluate")
    patch(robust.RobustEvaluator, "evaluate_variant",
          "synthesis.robust.variant")
    patch(executor, "run_chain", "parallel.chain", flush=True)
    patch(executor, "robust_variant_eval", "parallel.variant", flush=True)
    patch(parallel, "run_supervised_chains", "parallel.supervise")
    patch(memo.EvalMemo, "lookup", "parallel.memo.lookup", caller_hit)
    patch(memo.EvalMemo, "store", "parallel.memo.store")
    patch(store.EvalStore, "get", "store.get", _hit)
    patch(store.EvalStore, "put_many", "store.put", _rows)
    patch(journal.RunJournal, "append", "runtime.journal.append")
    patch(feasibility, "analyze_problem", "analysis.admit", _feasible)
    for method in (
        "submit", "claim", "heartbeat", "update_progress", "complete",
        "fail", "get", "get_by_fingerprint", "depth", "tenant_load",
        "stats", "aggregate_results", "requeue_expired",
    ):
        patch(queue.JobQueue, method, f"service.queue.{method}")

    # The job id names the worker thread's request before the span opens,
    # so the execute span becomes the root its synthesis thread joins.
    original_execute = worker.JobWorker.execute
    traced_execute = tracer.wrap("service.execute", original_execute,
                                 root=True)

    def execute(self, record):
        tracer.set_thread_request(record.id)
        try:
            return traced_execute(self, record)
        finally:
            tracer.set_thread_request(None)

    tracer._patches.append((worker.JobWorker, "execute", original_execute))
    worker.JobWorker.execute = execute


# --------------------------------------------------------------- analysis


def self_times(spans: list[tuple]) -> dict[int, int]:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for span in spans:
        children[span[PARENT]].append((span[T0], span[T1]))
    result = {}
    for span in spans:
        t0, t1 = span[T0], span[T1]
        covered = 0
        end = t0
        for c0, c1 in sorted(children.get(span[SID], ())):
            c0, c1 = max(c0, end), min(c1, t1)
            if c1 > c0:
                covered += c1 - c0
                end = c1
        result[span[SID]] = (t1 - t0) - covered
    return result


class SpanTable:
    """Per-name call counts, total and self time, and info tallies."""

    def __init__(self, spans: list[tuple], root_pid: int) -> None:
        self.spans = spans
        self.selfs = selfs = self_times(spans)
        self.calls: Counter[str] = Counter()
        self.total_ns: Counter[str] = Counter()
        self.self_ns: Counter[str] = Counter()
        self.tags: dict[str, Counter] = defaultdict(Counter)
        self.values: dict[str, list[int]] = defaultdict(list)
        self.worker_ns = 0
        by_id = {span[SID]: span for span in spans}
        for span in spans:
            name = span[NAME]
            self.calls[name] += 1
            self.total_ns[name] += span[T1] - span[T0]
            self.self_ns[name] += selfs[span[SID]]
            tag = span[INFO]
            if isinstance(tag, (int, float)) and not isinstance(tag, bool):
                self.values[name].append(tag)
            elif tag is not None:
                self.tags[name][tag] += 1
            if name == "spice.dc":
                parent = by_id.get(span[PARENT])
                site = "balance" if parent is not None and (
                    parent[NAME] == "spice.balance"
                ) else "direct"
                self.tags["spice.dc.site"][site] += 1
            if name == "parallel.chain" and span[SID] // 1_000_000_000 != root_pid:
                self.worker_ns += span[T1] - span[T0]

    def mean_ms(self, name: str, *, inclusive: bool = False) -> float:
        calls = self.calls[name]
        if not calls:
            return 0.0
        total = self.total_ns[name] if inclusive else self.self_ns[name]
        return total / calls / 1e6

    def per_call_ms(self, name: str, tag) -> float:
        durations = [
            (s[T1] - s[T0]) / 1e6 for s in self.spans
            if s[NAME] == name and s[INFO] == tag
        ]
        return sum(durations) / len(durations) if durations else 0.0

    def rows(self) -> list[tuple[str, int, float, float]]:
        """(name, calls, self seconds, total seconds) by self time."""
        return sorted(
            (
                (name, self.calls[name], self.self_ns[name] / 1e9,
                 self.total_ns[name] / 1e9)
                for name in self.calls
            ),
            key=lambda row: -row[2],
        )


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(table: SpanTable, *, request_ns: int, pool_workers: int,
                  ) -> dict[str, float]:
    """The layer metrics derivable from spans (see ``PER_LAYER``)."""
    calls, tags = table.calls, table.tags
    evals = calls["synthesis.evaluate"]
    dc = calls["spice.dc"]
    iterations = sum(table.values.get("spice.dc", ()))
    balance = calls["spice.balance"]
    lookups = tags["parallel.memo.lookup"]
    hits = lookups["hit:caller"] + lookups["hit:own"]
    gets = tags["store.get"]
    supervise = [
        s for s in table.spans if s[NAME] == "parallel.supervise"
    ]
    pooled_ns = sum(s[T1] - s[T0] for s in supervise)
    supervise_self = sum(table.selfs[s[SID]] for s in supervise)
    return {
        "opamp.design_ms": table.mean_ms("opamp.design", inclusive=True),
        "opamp.share": _ratio(table.self_ns["opamp.design"], request_ns),
        "analysis.admit_ms.feasible": table.per_call_ms("analysis.admit", True),
        "analysis.admit_ms.infeasible": table.per_call_ms(
            "analysis.admit", False),
        "lint.ms_per_eval": _ratio(table.self_ns["lint.check"] / 1e6, evals),
        "lint.rejections": tags["lint.check"][False],
        "synthesis.evals": evals,
        "synthesis.eval_ms": table.mean_ms("synthesis.evaluate",
                                           inclusive=True),
        "synthesis.failed_share": _ratio(
            tags["synthesis.evaluate"]["failed"], evals),
        "synthesis.bench_builds_per_eval": _ratio(
            calls["synthesis.bench"], evals),
        "synthesis.bench_ms": table.mean_ms("synthesis.bench"),
        "synthesis.cost_ms": table.mean_ms("synthesis.cost"),
        "synthesis.anneal_self_ms": table.mean_ms("synthesis.anneal"),
        "synthesis.robust.variants_per_candidate": _ratio(
            calls["synthesis.robust.variant"],
            calls["synthesis.robust.evaluate"]),
        "spice.dc_solves_per_eval": _ratio(dc, evals),
        "spice.newton_iters_per_solve": _ratio(iterations, dc),
        "spice.dc_ms": table.mean_ms("spice.dc"),
        "spice.balance_calls_per_eval": _ratio(balance, evals),
        "spice.balance_solves_per_call": _ratio(
            tags["spice.dc.site"]["balance"], balance),
        "spice.balance_ms": table.mean_ms("spice.balance"),
        "spice.awe_ms": table.mean_ms("spice.awe"),
        "spice.ugf_ms": table.mean_ms("spice.ugf"),
        "parallel.chain_ms": table.mean_ms("parallel.chain", inclusive=True),
        "parallel.worker_busy_share": _ratio(
            table.worker_ns, pool_workers * pooled_ns),
        "parallel.parent_wait_ms": _ratio(supervise_self / 1e6,
                                          len(supervise)),
        "parallel.memo_hit_rate": _ratio(hits, sum(lookups.values())),
        "parallel.caller_memo_hits": lookups["hit:caller"],
        "store.get_ms": table.mean_ms("store.get"),
        "store.hit_rate": _ratio(gets["hit"], sum(gets.values())),
        "store.put_rows": sum(table.values.get("store.put", ())),
        "store.put_ms": table.mean_ms("store.put"),
        "runtime.journal_appends": calls["runtime.journal.append"],
        "runtime.journal_append_ms": table.mean_ms("runtime.journal.append"),
    }


def raw_counts(table: SpanTable) -> dict[str, int]:
    """Every count the trace yields, for the exactness comparison."""
    counts = {f"calls:{name}": n for name, n in table.calls.items()}
    for name, tally in table.tags.items():
        for tag, n in tally.items():
            counts[f"tag:{name}:{tag}"] = n
    for name, values in table.values.items():
        if values:
            counts[f"sum:{name}"] = int(math.fsum(values))
    return counts
