"""Seeded closed-loop workloads over the paper's Table-1 op-amps.

Each closed-loop workload is one client that calls
``repro.synthesis.synthesize_opamp`` and waits for every result before
sending the next request.  The requests are the ten Table-1 rows of
``benchmarks/paper_tables.py``; each request anneals with a fixed
seed (11, the paper-table benches' seed, and for ``table1_serial`` also
12), so the work and every count repeat exactly from run to run.  The
workload seed permutes the request order.

A *cycle* is the unit ``run_closed`` repeats until the measuring time is
used up: one pass over the requests, or for ``table1_rerun_pooled`` two
passes sharing one caller-supplied ``EvalMemo``.  Every cycle must give
bit-identical results to the first one.  Because the cycles repeat the
same work, a request's time is the fastest of its repetitions, which
keeps other load on the host out of the figures.
"""

from __future__ import annotations

import hashlib
import math
import random
import shutil
import tempfile
import time
from dataclasses import dataclass, field

#: Annealer seed of every request (the paper-table benches use 11).
ANNEAL_SEED = 11
#: Rows of the robust workload: two Wilson/mirror buffered amplifiers,
#: one unbuffered mirror (balancing bisection) and one light buffered.
ROBUST_ROWS = ("oa1", "oa3", "oa7", "oa9")


@dataclass(frozen=True)
class ClosedWorkload:
    name: str
    why: str
    loads: str
    bypasses: str
    modes: tuple[str, ...]
    max_evaluations: int
    #: Annealer seeds; each row and mode runs once per seed.
    anneal_seeds: tuple[int, ...] = (ANNEAL_SEED,)
    restarts: int = 1
    workers: int = 1
    rows: tuple[str, ...] | None = None
    robust: bool = False
    journaled: bool = False
    #: Passes per cycle sharing one caller memo (0: no caller memo).
    memo_passes: int = 0

    @property
    def loop(self) -> str:
        return "closed loop, 1 client"


CLOSED = {
    "table1_serial": ClosedWorkload(
        name="table1_serial",
        why=(
            "the paper's Table-1 experiment: 10 specs x {ape, standalone} "
            "x annealer seeds {11, 12}, restarts=1, 20 evaluations each, "
            "no memo/store/journal"
        ),
        loads="opamp, lint, synthesis, spice",
        bypasses="parallel pool, memo, store, runtime journal, service, "
                 "analysis",
        modes=("ape", "standalone"),
        max_evaluations=20,
        anneal_seeds=(ANNEAL_SEED, ANNEAL_SEED + 1),
    ),
    "table1_rerun_pooled": ClosedWorkload(
        name="table1_rerun_pooled",
        why=(
            "the shared-memo table re-run: 10 ape specs, restarts=4 over "
            "workers=2, fresh run_dir each, one caller EvalMemo shared by "
            "two passes"
        ),
        loads="opamp, lint, synthesis, spice, parallel (pool, supervisor, "
              "memo), runtime journal",
        bypasses="store, service, analysis, variation",
        modes=("ape",),
        max_evaluations=30,
        restarts=4,
        workers=2,
        journaled=True,
        memo_passes=2,
    ),
    "robust_corners": ClosedWorkload(
        name="robust_corners",
        why=(
            "variation-aware synthesis: 4 ape specs over corners tt/ss/ff "
            "+ 2 Monte Carlo samples, worst-case cost, restarts=2, workers=2"
        ),
        loads="opamp, lint, synthesis.robust, variation, spice, parallel",
        bypasses="caller memo, store, runtime journal, service, analysis",
        modes=("ape",),
        max_evaluations=20,
        restarts=2,
        workers=2,
        rows=ROBUST_ROWS,
        robust=True,
    ),
}


@dataclass(frozen=True)
class Request:
    key: str
    row: object
    mode: str
    anneal_seed: int


def requests_for(workload: ClosedWorkload, seed: int) -> list[Request]:
    """The workload's requests in the order the seed picks."""
    from paper_tables import TABLE1

    rows = [
        row for row in TABLE1
        if workload.rows is None or row.name in workload.rows
    ]
    requests = [
        Request(f"{mode}/{row.name}/s{anneal_seed}", row, mode, anneal_seed)
        for mode in workload.modes
        for row in rows
        for anneal_seed in workload.anneal_seeds
    ]
    random.Random(seed).shuffle(requests)
    return requests


def result_signature(result) -> str:
    """Bit-exact identity of one result: cost, params, spec verdict."""
    params = ",".join(
        f"{name}={value!r}" for name, value in sorted(result.params.items())
    )
    return f"{result.best_cost!r}|{params}|{result.meets_spec}"


def digest(signatures: dict[str, str]) -> str:
    text = "\n".join(f"{key}|{sig}" for key, sig in sorted(signatures.items()))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass
class Outcome:
    key: str
    seconds: float
    evaluations: int = 0
    signature: str = ""
    best_cost: float = math.nan
    meets_spec: bool = False
    workers: int = 0
    error: str = ""


@dataclass
class ClosedRun:
    """Every outcome of the measured cycles plus their wall time."""

    cycles: list[list[Outcome]] = field(default_factory=list)
    cycle_seconds: list[float] = field(default_factory=list)
    wall_seconds: float = 0.0
    failures: list[str] = field(default_factory=list)

    @property
    def outcomes(self) -> list[Outcome]:
        return [o for cycle in self.cycles for o in cycle]

    def first_signatures(self) -> dict[str, str]:
        return {o.key: o.signature for o in self.cycles[0]}

    def best_seconds(self) -> dict[str, float]:
        """Each request's fastest repetition across the cycles."""
        best: dict[str, float] = {}
        for o in self.outcomes:
            best[o.key] = min(best.get(o.key, math.inf), o.seconds)
        return best


def _synthesize(tech, workload: ClosedWorkload, request: Request, *, memo,
                run_dir):
    from repro.synthesis import synthesize_opamp

    kwargs = {}
    if workload.robust:
        from repro.synthesis.robust import RobustSpec

        kwargs["robust"] = RobustSpec(
            corners=("tt", "ss", "ff"), mc_samples=2, mode="worst"
        )
    if workload.restarts > 1:
        kwargs.update(restarts=workload.restarts, workers=workload.workers)
    return synthesize_opamp(
        tech,
        request.row.spec(),
        request.row.topology(),
        mode=request.mode,
        max_evaluations=workload.max_evaluations,
        seed=request.anneal_seed,
        name=request.row.name,
        memo=memo,
        run_dir=run_dir,
        **kwargs,
    )


def run_cycle(tech, workload: ClosedWorkload, requests: list[Request],
              work_dir: str, tracer=None) -> list[Outcome]:
    """One cycle: a pass over ``requests`` (twice for the memo re-run)."""
    from repro.parallel import EvalMemo

    memo = EvalMemo() if workload.memo_passes else None
    if tracer is not None:
        tracer.caller_memo_id = id(memo) if memo is not None else None
    outcomes = []
    for pass_index in range(max(1, workload.memo_passes)):
        for request in requests:
            key = (
                f"p{pass_index + 1}/{request.key}"
                if workload.memo_passes else request.key
            )
            run_dir = (
                tempfile.mkdtemp(prefix="run-", dir=work_dir)
                if workload.journaled else None
            )
            if tracer is not None:
                tracer.request_id = key
            start = time.perf_counter()
            try:
                result = _synthesize(
                    tech, workload, request, memo=memo, run_dir=run_dir
                )
            except Exception as exc:  # every failure is counted, not fatal
                outcomes.append(Outcome(
                    key, time.perf_counter() - start,
                    error=f"{type(exc).__name__}: {exc}",
                ))
                continue
            finally:
                elapsed = time.perf_counter() - start
                if tracer is not None:
                    tracer.request_id = ""
                if run_dir is not None:
                    shutil.rmtree(run_dir, ignore_errors=True)
            outcomes.append(Outcome(
                key,
                elapsed,
                evaluations=result.evaluations,
                signature=result_signature(result),
                best_cost=result.best_cost,
                meets_spec=result.meets_spec,
                workers=result.workers,
            ))
    return outcomes


def check_cycle(workload: ClosedWorkload, outcomes: list[Outcome],
                reference: dict[str, str] | None) -> list[str]:
    """Failed-operation messages for one cycle (empty when all pass)."""
    failures = []
    by_key = {o.key: o for o in outcomes}
    for o in outcomes:
        if o.error:
            failures.append(f"{o.key}: {o.error}")
        elif not math.isfinite(o.best_cost):
            failures.append(f"{o.key}: non-finite best_cost {o.best_cost}")
        elif workload.workers > 1 and o.workers != workload.workers:
            failures.append(
                f"{o.key}: workers_effective {o.workers} != "
                f"{workload.workers}; the pooled path did not run"
            )
        elif reference is not None and reference.get(o.key) != o.signature:
            failures.append(f"{o.key}: result differs from the first cycle")
        elif o.key.startswith("p2/"):
            first = by_key.get("p1/" + o.key[3:])
            if first is not None and first.signature != o.signature:
                failures.append(f"{o.key}: pass 2 differs from pass 1")
    return failures


def run_closed(tech, workload: ClosedWorkload, requests: list[Request], *,
               seconds: float, min_cycles: int, max_cycles: int,
               work_root: str, tracer=None,
               reference: dict[str, str] | None = None) -> ClosedRun:
    """Repeat cycles until ``seconds`` are used (within the cycle bounds)."""
    run = ClosedRun()
    work_dir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=work_root)
    try:
        start = time.perf_counter()
        while len(run.cycles) < max_cycles and (
            len(run.cycles) < min_cycles
            or time.perf_counter() - start < seconds
        ):
            cycle_start = time.perf_counter()
            outcomes = run_cycle(tech, workload, requests, work_dir, tracer)
            run.cycle_seconds.append(time.perf_counter() - cycle_start)
            if reference is None:
                reference = {o.key: o.signature for o in outcomes}
            run.failures.extend(check_cycle(workload, outcomes, reference))
            run.cycles.append(outcomes)
        run.wall_seconds = time.perf_counter() - start
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return run


def geomean(values: list[float]) -> float:
    positive = [v for v in values if v > 0 and math.isfinite(v)]
    if not positive:
        return math.nan
    return math.exp(math.fsum(math.log(v) for v in positive) / len(positive))
