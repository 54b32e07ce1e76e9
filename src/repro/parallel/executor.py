"""Supervised process-pool execution of independent annealing chains.

The unit of work is a :class:`ChainTask` — a frozen, pickle-clean
description of one annealing restart (technology, spec, topology,
schedule, derived seed, budget share, fault configuration).  A task is
executed by :func:`run_chain`, either in-process or inside a worker of
a ``fork``-based :class:`~concurrent.futures.ProcessPoolExecutor`.

Determinism contract (locked in by ``tests/test_parallel.py`` and
``tests/test_supervisor.py``):

* Chain ``i`` anneals with seed ``derive_chain_seed(master_seed, i)``
  and, when fault injection is configured, a fault injector seeded
  ``derive_chain_seed(fault_seed, i)`` armed for the duration of the
  chain.  Both depend only on ``(seed, i)``.  The chain's per-site
  check/fire counts travel home on its :class:`ChainOutcome`.
* Candidate evaluation is *canonical* (history-independent), so a
  chain's result is a pure function of its task — never of which
  worker ran it, in what order, or what the shared memo cache already
  contained.  Results therefore depend only on ``(seed, restarts)``,
  not on the worker count, scheduling, or how many times a chain was
  re-run after its worker was lost.
* While a fault injector is armed the chain bypasses the memo
  entirely: fault decisions are drawn per evaluation *call*, and a
  cache hit would skip that call, entangling the injector's stream
  with cache warmth (which does depend on scheduling).

Memo tiers: an in-process chain evaluates through the caller's memo
directly.  A pool worker evaluates through a worker-local memo whose
read tier is the caller's memo as published just before the pool
forks (:data:`_CALLER_MEMO`, copy-on-write), so a table re-run served
from the caller's memo costs lookups, not solves, on any worker
count.  Each chain records the entries it evaluated; that delta is
what crosses the pool boundary, merges into the caller's memo and is
journaled with the chain's ``chain-finished`` record.

Supervision (:func:`run_supervised_chains`, built on
:mod:`repro.runtime.supervisor`): chains are submitted one-per-worker
and watched by the parent.  A killed worker (``BrokenProcessPool``)
or a hung one (stale heartbeat / chain deadline, the worker is then
killed) collapses the pool; the parent rebuilds it and resubmits only
the lost chains, with bounded retries and a quarantine list for poison
tasks.  SIGINT/SIGTERM drain in-flight chains and return the completed
outcomes.  Every completed chain can be journaled write-ahead
(:class:`~repro.runtime.journal.RunJournal`) so an interrupted run
resumes without repeating finished chains.

Workers rebuild the sizing problem from the task description and keep
it cached per task signature — ``System.rebind`` then reuses the
compiled MNA engine across every candidate of every chain that worker
runs, instead of re-pickling solver state across the pool boundary.
Worker caches die with their processes; the parent's pool teardown is
guaranteed on every exit path by
:class:`~repro.runtime.supervisor.PoolManager`.
"""

from __future__ import annotations

import os
import pickle
import time
from collections import deque
from dataclasses import dataclass, field, replace as dc_replace

from ..runtime import faults
from ..runtime.budget import EvalBudget
from ..runtime.diagnostics import Diagnostic, DiagnosticLog
from ..runtime.journal import memo_entries_to_jsonable
from ..runtime.retry import RetryPolicy
from ..runtime.supervisor import (
    PoolManager,
    SupervisionReport,
    SupervisorConfig,
    interrupt_guard,
)
from ..synthesis.annealing import Annealer, AnnealingSchedule, AnnealResult
from ..synthesis.cost import CostFunction, FAILURE_COST
from .memo import DEFAULT_QUANTUM, EvalMemo

__all__ = [
    "ChainTask",
    "ChainOutcome",
    "derive_chain_seed",
    "effective_workers",
    "usable_cpu_count",
    "run_chain",
    "run_annealing_chains",
    "run_supervised_chains",
    "clear_worker_caches",
    "parallel_map",
    "robust_variant_eval",
]

#: Weyl increment (golden-ratio based) for per-chain seed derivation:
#: consecutive chain indices land far apart in seed space, and chain 0
#: keeps the master seed itself.
_SEED_STRIDE = 0x9E3779B97F4A7C15


def derive_chain_seed(master_seed: int, chain_index: int) -> int:
    """Deterministic per-chain seed; chain 0 is the master seed."""
    if chain_index == 0:
        return master_seed
    return (master_seed + _SEED_STRIDE * chain_index) % 2**63


def usable_cpu_count() -> int:
    """CPUs this process may actually run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return os.cpu_count() or 1


def effective_workers(
    requested: int | None, n_tasks: int, *, oversubscribe: bool = False
) -> int:
    """Clamp a worker request to the work and (by default) the CPUs.

    ``None`` asks for one worker per usable CPU.  Oversubscribing a
    CPU-bound annealing run only adds scheduling overhead, so requests
    beyond the affinity mask are clamped unless ``oversubscribe=True``
    (useful in tests, or when evaluations block on something other
    than the CPU).
    """
    limit = requested if requested is not None else usable_cpu_count()
    workers = max(1, min(limit, n_tasks))
    if not oversubscribe:
        workers = min(workers, usable_cpu_count())
    return workers


@dataclass(frozen=True)
class ChainTask:
    """Everything one annealing restart needs, pickle-clean."""

    tech: object
    spec: object
    topology: object | None
    mode: str
    synthesis_spec: object
    name: str
    range_factor: float
    max_evaluations: int
    schedule: AnnealingSchedule | None
    #: Master seed; the chain anneals with the derived per-chain seed.
    seed: int
    chain_index: int
    tolerant: bool = True
    lint: bool = True
    retry: RetryPolicy | None = None
    #: Shared deadline as an absolute ``time.monotonic()`` instant
    #: (every chain stops at the same moment, wherever it runs: the
    #: pool's fork-started workers share the parent's per-boot
    #: CLOCK_MONOTONIC timebase, and unlike wall clock it cannot be
    #: stepped by NTP mid-run).
    deadline_epoch: float | None = None
    max_failures: int | None = None
    per_eval_seconds: float | None = None
    #: Fault configuration re-armed inside the chain (None = leave the
    #: worker's fault state alone).
    fault_specs: tuple[faults.FaultSpec, ...] | None = None
    fault_seed: int = 0
    #: Evaluation memo quantum; ``None`` disables memoization.
    memo_quantum: float | None = DEFAULT_QUANTUM
    #: Optional :class:`~repro.synthesis.robust.RobustSpec` — when set,
    #: every candidate is evaluated across its corners/Monte Carlo
    #: samples and the chain anneals on the aggregated robust cost.
    robust: object | None = None
    #: Contracted search box from the feasibility gate, as a sorted
    #: ``((name, (lo, hi)), ...)`` tuple (``None`` = the mode's default
    #: ranges).  Part of the problem identity: chains with different
    #: boxes anneal different problems.
    box_override: tuple | None = None
    #: Persistent evaluation store (``None`` = in-memory memo only).
    #: Workers open the store read-only; new results travel home via
    #: the memo snapshot and the supervisor flushes them.
    store_dir: str | None = None
    #: The problem's content fingerprint: the memo scope every entry
    #: of this chain is keyed under, and the store namespace.
    fingerprint: str | None = None
    #: Store watermark (max row id) at run start: the surrogate trains
    #: only on rows at or below it, so the training corpus — and hence
    #: the trajectory — is identical across workers and on resume.
    store_generation: int = 0
    #: Surrogate screening mode: ``"off"`` (classic loop, bit-identical
    #: to a store-less run) or ``"rank"`` (batch proposals, evaluate
    #: only the predicted best).
    surrogate: str = "off"

    def problem_key(self) -> bytes:
        """Signature of the sizing problem this task needs.

        Chains of one synthesis run (and repeated runs of the same
        table row) share the signature, so a worker builds the
        template, variables and compiled MNA system once and reuses
        them via ``System.rebind`` for every such chain.  ``tolerant``
        is part of it: a strict run must run the strict APE design,
        never reuse a tolerant run's relaxed template.
        """
        return pickle.dumps(
            (
                self.tech,
                self.spec,
                self.topology,
                self.mode,
                self.synthesis_spec,
                self.name,
                self.range_factor,
                self.tolerant,
                self.lint,
                self.memo_quantum,
                self.robust,
                self.box_override,
                self.store_dir,
                self.fingerprint,
            )
        )


@dataclass
class ChainOutcome:
    """One chain's result plus the counters the parent merges back."""

    chain_index: int
    seed: int
    anneal: AnnealResult
    degraded_design: bool = False
    ape_seconds: float = 0.0
    lint_rejections: int = 0
    retries: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    #: Robust-synthesis counters: logical per-corner/per-sample
    #: evaluations beyond the nominal ones, and candidates the nominal
    #: screen kept away from the corner fan-out.
    corner_evals: int = 0
    screened_candidates: int = 0
    #: Persistent-store lookups served from disk during this chain.
    store_hits: int = 0
    #: Surrogate-screen counters (0 with ``surrogate="off"``).
    surrogate_skips: int = 0
    surrogate_refits: int = 0
    diagnostics: list[Diagnostic] = field(default_factory=list)
    #: Per-site check and fire counts of the chain's own fault
    #: injector (empty without fault injection); the caller folds them
    #: into its armed injector.
    fault_checks: dict[str, int] = field(default_factory=dict)
    fault_fires: dict[str, int] = field(default_factory=dict)
    #: The evaluating memo's snapshot restricted to the entries this
    #: chain evaluated (``None`` without a memo): merged into the
    #: caller's memo (a no-op for the caller's own memo) and journaled.
    memo_snapshot: dict | None = None


# Worker-local state, keyed by ChainTask.problem_key(): the sizing
# problem (with its compiled MNA system) and the worker's memo cache
# survive across the chains one worker executes.  In pool workers the
# caches die with the process (PoolManager guarantees teardown).  Every
# synthesis run evaluates in-process chains, so the in-process caches
# keep at most _BUNDLE_CAPACITY problems (oldest dropped first; a
# dropped problem is rebuilt identically) and can be dropped with
# clear_worker_caches().
_BUNDLE_CAPACITY = 128
_WORKER_BUNDLES: dict[bytes, tuple] = {}
_WORKER_MEMOS: dict[bytes, EvalMemo] = {}
_WORKER_ROBUST: dict[bytes, object] = {}
#: Worker-local persistent-store handles, keyed by store directory.
#: Connections are opened lazily per process (EvalStore re-opens after
#: a fork), and pool workers hold them read-only.
_WORKER_STORES: dict[str, object] = {}

#: Fork-shared heartbeat slots (one double per chain index), set by the
#: parent just before it builds a pool and inherited by the workers.
_HEARTBEATS = None

#: The caller's memo, published like ``_HEARTBEATS``: workers inherit
#: it through ``fork`` and read it as their memos' read tier.
_CALLER_MEMO: EvalMemo | None = None

#: True only inside a pool worker process (set by the pool
#: initializer).  Worker-level faults fire nowhere else: an injected
#: ``os._exit`` in the parent would take the whole run down instead of
#: simulating a lost worker.
_IN_WORKER = False


def _mark_worker() -> None:
    global _IN_WORKER
    _IN_WORKER = True


def clear_worker_caches() -> None:
    """Drop the in-process problem-bundle, memo and store caches."""
    _WORKER_BUNDLES.clear()
    _WORKER_MEMOS.clear()
    _WORKER_ROBUST.clear()
    for store in _WORKER_STORES.values():
        store.close()
    _WORKER_STORES.clear()


def _heartbeat(chain_index: int) -> None:
    """Stamp this chain's liveness slot (no-op outside supervision)."""
    beats = _HEARTBEATS
    if beats is not None and 0 <= chain_index < len(beats):
        beats[chain_index] = time.monotonic()  # deterministic-ok: supervisor heartbeat


def _check_worker_faults(chain_index: int) -> None:
    """Fire an armed ``worker.kill`` / ``worker.hang`` fault, if any.

    Checked once per candidate evaluation, only inside pool workers.
    ``worker.kill`` hard-exits the process (the parent sees a broken
    pool, exactly like an OOM kill); ``worker.hang`` stops
    heartbeating and sleeps until the supervisor kills the worker.
    """
    injector = faults.active()
    if injector is None or not _IN_WORKER:
        return
    for site in (faults.WORKER_KILL, faults.WORKER_HANG):
        spec = injector.specs.get(site)
        if spec is None:
            continue
        if spec.chain is not None and spec.chain != chain_index:
            continue
        if not injector.fires_at(site):
            continue
        if site == faults.WORKER_KILL:
            os._exit(86)
        while True:  # pragma: no cover - killed from outside
            time.sleep(0.05)


def _strip_worker_faults(task: ChainTask) -> ChainTask:
    """Retry profile: worker loss was transient, drop ``worker.*`` specs.

    The stripped tuple stays a tuple (possibly empty) rather than
    ``None``: the retried chain must still arm its *own* injector so a
    fault configuration inherited from the forked parent cannot leak
    back in and re-kill the retry.
    """
    if task.fault_specs is None:
        return task
    kept = tuple(
        spec for spec in task.fault_specs
        if spec.site not in faults.WORKER_SITES
    )
    if kept == task.fault_specs:
        return task
    return dc_replace(task, fault_specs=kept)


def _worker_store(task: ChainTask):
    """The worker-local read-only store handle for a store-backed task."""
    if not task.store_dir or task.fingerprint is None:
        return None
    store = _WORKER_STORES.get(task.store_dir)
    if store is None:
        from ..store import EvalStore

        store = EvalStore(task.store_dir, read_only=True)
        _WORKER_STORES[task.store_dir] = store
    return store


def _memo_for(task: ChainTask, shared_memo: EvalMemo | None) -> EvalMemo | None:
    """The memo this chain evaluates through (shared, worker-local, none)."""
    if shared_memo is not None:
        if shared_memo.bound_fingerprint != task.fingerprint:
            raise ValueError(
                "shared memo is bound to a different problem than the "
                "task; bind it to task.fingerprint first"
            )
        return shared_memo
    if task.memo_quantum is None:
        return None
    key = task.problem_key()
    memo = _WORKER_MEMOS.get(key)
    if memo is None:
        memo = EvalMemo(task.memo_quantum)
        # Read-only store tier: store hits serve lookups; the chain's
        # new entries ride the memo snapshot back to the supervisor,
        # which owns the write side.
        memo.bind(task.fingerprint, _worker_store(task))
        _WORKER_MEMOS[key] = memo
    caller = _CALLER_MEMO
    memo.reads = (
        caller
        if caller is not None and caller.quantum == memo.quantum
        else None
    )
    return memo


def _bundle_for(task: ChainTask):
    """(x0, cost_fn, problem, design_notes, ape_seconds) for a task.

    Cached per problem signature — except while a fault injector is
    armed: then every chain builds its own bundle, so the APE design's
    fault checks happen once per chain (exactly as the memo is bypassed
    for the evaluations), whoever ran the problem before.
    """
    armed = faults.active() is not None
    key = task.problem_key()
    bundle = None if armed else _WORKER_BUNDLES.get(key)
    if bundle is None:
        from ..opamp import coarse_design_opamp, design_opamp
        from ..synthesis.problems import (
            OpAmpSizingProblem,
            ape_ranges,
            standalone_ranges,
        )
        from ..synthesis.specs import opamp_synthesis_spec

        t0 = time.perf_counter()
        design_notes: list = []
        if task.tolerant:
            template, design_notes = coarse_design_opamp(
                task.tech, task.spec, task.topology, name=task.name
            )
        else:
            template = design_opamp(
                task.tech, task.spec, task.topology, name=task.name
            )
        ape_seconds = time.perf_counter() - t0
        if task.mode == "ape":
            variables = ape_ranges(template, factor=task.range_factor)
        else:
            variables = standalone_ranges(template)
        if task.box_override is not None:
            from ..synthesis.problems import Variable

            override = dict(task.box_override)
            variables = [
                Variable(v.name, *override.get(v.name, (v.lo, v.hi)))
                for v in variables
            ]
        if task.mode == "ape":
            x0 = {
                v.name: min(
                    max(template.initial_point().get(v.name, v.lo), v.lo),
                    v.hi,
                )
                for v in variables
            }
        else:
            x0 = None
        synthesis_spec = task.synthesis_spec
        if synthesis_spec is None:
            synthesis_spec = opamp_synthesis_spec(task.spec)
        cost_fn = CostFunction(synthesis_spec)
        problem = OpAmpSizingProblem(template, variables, lint=task.lint)
        bundle = (x0, cost_fn, problem, design_notes, ape_seconds)
        if not armed:
            if len(_WORKER_BUNDLES) >= _BUNDLE_CAPACITY:
                oldest = next(iter(_WORKER_BUNDLES))
                del _WORKER_BUNDLES[oldest]
                _WORKER_ROBUST.pop(oldest, None)
                _WORKER_MEMOS.pop(oldest, None)
            _WORKER_BUNDLES[key] = bundle
    return bundle


def _robust_evaluator_for(task: ChainTask, bundle=None):
    """The :class:`RobustEvaluator` for a robust task (``None`` if plain).

    Shares the nominal problem (and its compiled MNA system) of
    ``bundle`` — by default the task's :func:`_bundle_for`; the
    corner/Monte Carlo problems live alongside it for every chain of
    the same signature this worker runs.  A fresh (fault-injected)
    bundle gets a fresh evaluator.
    """
    if task.robust is None:
        return None
    if bundle is None:
        bundle = _bundle_for(task)
    key = task.problem_key()
    evaluator = _WORKER_ROBUST.get(key)
    _x0, cost_fn, problem, _notes, _ape = bundle
    if evaluator is None or evaluator.nominal is not problem:
        from ..synthesis.robust import RobustEvaluator

        evaluator = RobustEvaluator(
            problem.template,
            problem.variables,
            task.robust,
            cost_fn.spec,
            lint=task.lint,
            nominal_problem=problem,
        )
        if _WORKER_BUNDLES.get(key) is bundle:
            _WORKER_ROBUST[key] = evaluator
    return evaluator


def robust_variant_eval(item):
    """Evaluate one ``(task, label, params)`` robust variant.

    Module-level so :func:`parallel_map` can fan the final corner
    verification of a winning design across the pool — corners become
    a second axis of parallelism next to chains.  Fault injection is
    suspended for the duration: verification is a reporting stage, and
    an inherited injector's stream position would differ between
    in-process and pooled execution.
    """
    task, label, params = item
    previous = faults.active()
    faults.disarm()
    try:
        evaluator = _robust_evaluator_for(task)
        return label, evaluator.evaluate_variant(label, params)
    finally:
        if previous is not None:
            faults.arm(previous)


def run_chain(
    task: ChainTask,
    shared_memo: EvalMemo | None = None,
    budget: EvalBudget | None = None,
) -> ChainOutcome:
    """Execute one annealing chain described by ``task``.

    Runs in a pool worker or in-process; behaviour is identical either
    way because everything the chain consumes is derived from the task
    (and because evaluation is canonical, shared-memo contents cannot
    change results — only how fast they arrive).  A ``shared_memo``
    must be bound to ``task.fingerprint``.  In-process callers may pass
    the run's ``budget``: the chain then keeps the deadline on that
    budget's own clock (:meth:`EvalBudget.for_chain`) instead of the
    task's monotonic ``deadline_epoch``.
    """
    previous_injector = faults.active()
    if task.fault_specs is not None:
        faults.arm(
            faults.FaultInjector(
                {spec.site: spec for spec in task.fault_specs},
                seed=derive_chain_seed(task.fault_seed, task.chain_index),
            )
        )
    try:
        _heartbeat(task.chain_index)
        bundle = _bundle_for(task)
        x0, cost_fn, problem, design_notes, ape_seconds = bundle
        memo = _memo_for(task, shared_memo)
        if faults.active() is not None:
            # Injected faults are decided per *call* from a seeded RNG
            # stream; a memo hit would skip those calls, making the
            # stream depend on cache warmth — which differs between
            # in-process and pooled scheduling.  Evaluate everything so
            # each chain's fault sequence is a pure function of its task.
            memo = None
        chain_log = DiagnosticLog(mirror=False)
        for note in design_notes:
            chain_log.record(note)
        problem.diagnostics = chain_log if task.tolerant else None
        retry = (
            dc_replace(task.retry, total_retries=0)
            if task.retry is not None
            else None
        )
        problem.retry = retry
        evaluator = _robust_evaluator_for(task, bundle)
        if evaluator is not None:
            # The evaluator (and its variant problems) is worker-cached
            # across chains; rebind this chain's log/retry/memo.  Memo
            # tagging happens inside the evaluator, so the outer
            # memo.wrap below stays nominal-only.
            evaluator.bind(
                diagnostics=chain_log if task.tolerant else None,
                retry=retry,
                memo=memo,
            )
        corner_before = (
            evaluator.corner_evaluations if evaluator is not None else 0
        )
        screened_before = (
            evaluator.screened_candidates if evaluator is not None else 0
        )
        lint_before = problem.lint_rejections
        hits_before = memo.hits if memo is not None else 0
        misses_before = memo.misses if memo is not None else 0
        store_hits_before = memo.store_hits if memo is not None else 0
        if memo is not None:
            memo.start_recording()

        screen = None
        if task.surrogate == "rank":
            from ..store import SurrogateScreen

            screen = SurrogateScreen(
                problem.bounds().keys(),
                task.memo_quantum or DEFAULT_QUANTUM,
            )
            if (
                task.robust is None
                and task.store_generation > 0
                and memo is not None
                and memo.store_bound
            ):
                # Prime the model from the persistent corpus — but only
                # up to the journaled generation, so every worker (and
                # a bit-exact resume) trains on the identical rows.
                # Robust chains skip seeding: store rows hold nominal
                # costs, not the aggregated robust cost being annealed.
                screen.seed_corpus(
                    memo.bound_store.corpus(
                        memo.bound_fingerprint, task.store_generation
                    )
                )

        def evaluate(params):
            if evaluator is not None:
                return evaluator.evaluate(params)
            metrics = problem.evaluate(params)
            return cost_fn(metrics), metrics

        def evaluate_tolerant(params):
            from ..errors import ApeError

            try:
                return evaluate(params)
            except ApeError as exc:
                chain_log.record_exception(
                    "synthesis.evaluate",
                    exc,
                    severity="warning",
                    suggested_fix=(
                        "candidate penalized; see the exception chain"
                    ),
                )
                return FAILURE_COST, None

        chain_eval = evaluate_tolerant if task.tolerant else evaluate
        if memo is not None and evaluator is None:
            chain_eval = memo.wrap(chain_eval)

        def supervised_eval(params, _inner=chain_eval, _idx=task.chain_index):
            # Outermost wrapper: the fault decision and the heartbeat
            # are per *candidate*, cache hit or not, so the worker's
            # fault stream never depends on memo warmth.
            _check_worker_faults(_idx)
            _heartbeat(_idx)
            return _inner(params)

        if budget is not None:
            budget = budget.for_chain()
        elif (
            task.deadline_epoch is not None
            or task.max_failures is not None
            or task.per_eval_seconds is not None
        ):
            deadline = None
            if task.deadline_epoch is not None:
                deadline = max(task.deadline_epoch - time.monotonic(), 1e-3)  # deterministic-ok: budget deadline (monotonic timebase, shared with the forking parent)
            budget = EvalBudget(
                deadline_seconds=deadline,
                max_failures=task.max_failures,
                per_eval_seconds=task.per_eval_seconds,
            )

        annealer = Annealer(
            supervised_eval,
            problem.bounds(),
            schedule=task.schedule,
            seed=derive_chain_seed(task.seed, task.chain_index),
            screen=screen,
        )
        result = annealer.run(
            x0=x0, max_evaluations=task.max_evaluations, budget=budget
        )
        injector = faults.active() if task.fault_specs is not None else None
        return ChainOutcome(
            chain_index=task.chain_index,
            seed=derive_chain_seed(task.seed, task.chain_index),
            anneal=result,
            degraded_design=bool(design_notes),
            ape_seconds=ape_seconds,
            lint_rejections=problem.lint_rejections - lint_before,
            retries=retry.total_retries if retry is not None else 0,
            cache_hits=(memo.hits - hits_before) if memo is not None else 0,
            cache_misses=(
                (memo.misses - misses_before) if memo is not None else 0
            ),
            corner_evals=(
                evaluator.corner_evaluations - corner_before
                if evaluator is not None else 0
            ),
            screened_candidates=(
                evaluator.screened_candidates - screened_before
                if evaluator is not None else 0
            ),
            store_hits=(
                (memo.store_hits - store_hits_before)
                if memo is not None else 0
            ),
            surrogate_skips=result.surrogate_skips,
            surrogate_refits=result.surrogate_refits,
            diagnostics=list(chain_log.records),
            fault_checks=(
                dict(injector.checks_by_site) if injector is not None else {}
            ),
            fault_fires=(
                dict(injector.fires_by_site) if injector is not None else {}
            ),
            memo_snapshot=(
                memo.export(memo.take_recorded())
                if memo is not None else None
            ),
        )
    finally:
        if task.fault_specs is not None:
            if previous_injector is None:
                faults.disarm()
            else:
                faults.arm(previous_injector)


def run_annealing_chains(
    tasks: list[ChainTask],
    *,
    workers: int | None = None,
    memo: EvalMemo | None = None,
    oversubscribe: bool = False,
    config: SupervisorConfig | None = None,
    journal=None,
) -> list[ChainOutcome]:
    """Run every task and return outcomes ordered by chain index.

    Thin wrapper over :func:`run_supervised_chains` for callers that
    only want the outcomes; note that with supervision an interrupted
    or quarantined run returns the chains that *did* complete.
    """
    outcomes, _report = run_supervised_chains(
        tasks,
        workers=workers,
        memo=memo,
        oversubscribe=oversubscribe,
        config=config,
        journal=journal,
    )
    return [outcomes[index] for index in sorted(outcomes)]


def run_supervised_chains(
    tasks: list[ChainTask],
    *,
    workers: int | None = None,
    memo: EvalMemo | None = None,
    oversubscribe: bool = False,
    config: SupervisorConfig | None = None,
    journal=None,
    budget: EvalBudget | None = None,
) -> tuple[dict[int, ChainOutcome], SupervisionReport]:
    """Run chains under supervision; return outcomes + what happened.

    With one effective worker the chains run in-process, sharing
    ``memo`` directly (plus the problem/MNA state across chains) — no
    pool, no pickling; supervision is reduced to graceful interrupt
    handling between chains.  With more, a ``fork``-context process
    pool executes the tasks one-per-worker while the parent watches
    for dead workers (``BrokenProcessPool``), hung ones (stale
    heartbeats, chain deadlines) and interrupts, rebuilding the pool
    and resubmitting only the lost chains within
    ``config.max_chain_retries``; chains that keep losing their worker
    are quarantined.  Completed chains are journaled write-ahead when
    ``journal`` is given, and each chain's memo delta is merged into
    ``memo`` as it finishes.  ``memo`` must be bound to the tasks'
    fingerprint; pool workers read it as their memos' read tier.
    In-process chains keep ``budget``'s deadline on its own clock
    (see :func:`run_chain`); pool workers use the tasks'
    ``deadline_epoch``.

    The returned mapping holds one outcome per *completed* chain —
    interrupts and quarantines leave gaps instead of raising, so the
    caller can always assemble a best-so-far partial result.
    """
    config = config or SupervisorConfig()
    report = SupervisionReport()
    outcomes: dict[int, ChainOutcome] = {}
    if not tasks:
        return outcomes, report
    tasks = sorted(tasks, key=lambda task: task.chain_index)
    n_workers = effective_workers(
        workers, len(tasks), oversubscribe=oversubscribe
    )

    def finish(outcome: ChainOutcome) -> None:
        outcomes[outcome.chain_index] = outcome
        if memo is not None and outcome.memo_snapshot is not None:
            memo.merge(outcome.memo_snapshot)
        if memo is not None:
            # Write-behind flush of this chain's new evaluations into
            # the persistent store (no-op when no store is bound).
            # Centralizing writes here keeps chain workers pure and
            # the on-disk result worker-count independent.
            memo.flush_store()
        if journal is not None:
            # The record carries the chain's own new entries, so
            # journaling costs O(chain) however large the memo is.
            journal.record_outcome(outcome)
        outcome.memo_snapshot = None

    def synthetic_stop() -> bool:
        return (
            config.interrupt_after is not None
            and len(outcomes) >= config.interrupt_after
        )

    def note_interrupt(pending_indices: list[int], detail: str) -> None:
        if report.interrupted:
            return
        report.interrupted = True
        report.record(
            "interrupted",
            detail=f"{detail}; unfinished chains: {pending_indices}",
        )
        if memo is not None:
            # Drain the write-behind store buffer at the moment of
            # interrupt: rows already paid for stay warm even if the
            # interrupted caller never reaches its own final flush
            # (second SIGINT, SIGTERM drain window elapsing).  The
            # in-process path can hold unflushed mid-chain entries
            # here; the pooled path is usually empty — either way the
            # flush is idempotent.
            memo.flush_store()
        if journal is not None:
            # An in-process chain cut short mid-run leaves its entries
            # recorded on the memo; keep them warm for the resume.
            journal.append(
                "interrupted",
                pending=pending_indices,
                memo=memo_entries_to_jsonable(
                    memo.take_recorded() if memo is not None else {}
                ),
            )

    if n_workers <= 1:
        try:
            _run_in_process(
                tasks, memo, budget, config, report,
                finish=finish,
                synthetic_stop=synthetic_stop,
                note_interrupt=note_interrupt,
                outcomes=outcomes,
            )
        finally:
            if memo is not None:
                # A chain cut short by an exception must not leave the
                # caller's memo recording for every later run.
                memo.take_recorded()
        return outcomes, report

    _run_pooled(
        tasks, n_workers, memo, config, report,
        finish=finish,
        synthetic_stop=synthetic_stop,
        note_interrupt=note_interrupt,
        outcomes=outcomes,
        journal=journal,
    )
    return outcomes, report


def _run_in_process(
    tasks, memo, budget, config, report, *, finish, synthetic_stop,
    note_interrupt, outcomes,
) -> None:
    def unfinished():
        return [
            task.chain_index for task in tasks
            if task.chain_index not in outcomes
        ]

    with interrupt_guard(config.install_signal_handlers) as stop:
        for task in tasks:
            if stop() or synthetic_stop():
                note_interrupt(unfinished(), "stop requested between chains")
                break
            try:
                outcome = run_chain(task, shared_memo=memo, budget=budget)
            except KeyboardInterrupt:
                note_interrupt(unfinished(), "interrupted mid-chain")
                break
            finish(outcome)


def _run_pooled(
    tasks, n_workers, memo, config, report, *, finish, synthetic_stop,
    note_interrupt, outcomes, journal,
) -> None:
    import concurrent.futures
    import multiprocessing
    from concurrent.futures.process import BrokenProcessPool

    global _HEARTBEATS, _CALLER_MEMO

    try:
        context = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX fallback
        context = multiprocessing.get_context()

    heartbeats = context.Array(
        "d", max(task.chain_index for task in tasks) + 1, lock=False
    )
    clock = time.monotonic  # deterministic-ok: supervisor hang detection

    def factory():
        return concurrent.futures.ProcessPoolExecutor(
            max_workers=n_workers,
            mp_context=context,
            initializer=_mark_worker,
        )

    pending: deque[ChainTask] = deque(tasks)
    in_flight: dict[object, ChainTask] = {}
    submitted_at: dict[int, float] = {}
    retries: dict[int, int] = {}
    kill_pending = False

    def journal_event(event: str, **payload) -> None:
        if journal is not None:
            journal.append(event, **payload)

    def unfinished() -> list[int]:
        return sorted(
            {task.chain_index for task in pending}
            | {task.chain_index for task in in_flight.values()}
        )

    def handle_collapse(lost: list[ChainTask], pm: PoolManager) -> None:
        """Rebuild the pool; resubmit, retry-bound or quarantine ``lost``."""
        nonlocal kill_pending
        kill_pending = False
        lost_indices = sorted(task.chain_index for task in lost)
        if report.interrupted:
            # Interrupt + collapse (e.g. terminal Ctrl-C reached the
            # workers too): the run is over, resume will redo the rest.
            journal_event("worker-lost", chains=lost_indices, interrupted=True)
            pending.clear()
            return
        for task in sorted(lost, key=lambda t: t.chain_index):
            index = task.chain_index
            retries[index] = retries.get(index, 0) + 1
            if retries[index] > config.max_chain_retries:
                report.quarantined.append(index)
                report.record(
                    "chain-quarantined", index,
                    f"lost its worker {retries[index]} times "
                    f"(max_chain_retries={config.max_chain_retries})",
                )
                journal_event("chain-quarantined", chain_index=index)
                continue
            report.chain_retries += 1
            report.record(
                "chain-retried", index,
                f"attempt {retries[index] + 1}",
            )
            journal_event("chain-retried", chain_index=index,
                          attempt=retries[index] + 1)
            retry_task = (
                _strip_worker_faults(task)
                if config.strip_worker_faults_on_retry else task
            )
            pending.append(retry_task)
        if pending:
            pm.rebuild()
            report.worker_restarts += 1
            report.record(
                "worker-restart", None,
                f"pool rebuilt after losing chains {lost_indices}",
            )
            journal_event("worker-restart", chains=lost_indices)

    def find_stuck() -> tuple[ChainTask, str] | None:
        now = clock()
        for task in in_flight.values():
            index = task.chain_index
            started = submitted_at.get(index, now)
            if (
                config.chain_timeout_seconds is not None
                and now - started > config.chain_timeout_seconds
            ):
                return task, "chain-timeout"
            if config.heartbeat_timeout_seconds is not None:
                beat = heartbeats[index]
                last_signal = beat if beat > started else started
                if now - last_signal > config.heartbeat_timeout_seconds:
                    return task, "chain-hung"
        return None

    _HEARTBEATS = heartbeats
    _CALLER_MEMO = memo
    try:
        with PoolManager(factory) as pm, \
                interrupt_guard(config.install_signal_handlers) as stop:
            while pending or in_flight:
                stopping = stop() or synthetic_stop()
                if stopping:
                    note_interrupt(unfinished(), "stop requested")
                    if stop.hard:
                        # Second signal: abandon in-flight work too.
                        pm.kill_workers()
                        break
                    if not in_flight:
                        break
                # Top up: one in-flight chain per worker, so every
                # submitted future is actually running (which makes
                # hang detection and loss accounting exact).
                broken_on_submit = False
                while (
                    pending and len(in_flight) < n_workers and not stopping
                ):
                    task = pending.popleft()
                    heartbeats[task.chain_index] = 0.0
                    submitted_at[task.chain_index] = clock()
                    try:
                        future = pm.pool.submit(run_chain, task)
                    except BrokenProcessPool:
                        pending.appendleft(task)
                        broken_on_submit = True
                        break
                    in_flight[future] = task
                if broken_on_submit:
                    lost = list(in_flight.values())
                    in_flight.clear()
                    handle_collapse(lost, pm)
                    continue
                if not in_flight:
                    continue
                done, _ = concurrent.futures.wait(
                    list(in_flight),
                    timeout=config.poll_interval_seconds,
                    return_when=concurrent.futures.FIRST_COMPLETED,
                )
                lost: list[ChainTask] = []
                for future in done:
                    task = in_flight.pop(future)
                    try:
                        finish(future.result())
                    except (BrokenProcessPool,
                            concurrent.futures.CancelledError):
                        lost.append(task)
                if lost or getattr(pm.pool, "_broken", False):
                    # A broken pool takes every in-flight chain with it.
                    lost.extend(in_flight.values())
                    in_flight.clear()
                    handle_collapse(lost, pm)
                    continue
                if kill_pending:
                    continue  # workers already killed; wait for collapse
                stuck = find_stuck()
                if stuck is not None:
                    task, kind = stuck
                    report.record(
                        kind, task.chain_index,
                        "no heartbeat within "
                        f"{config.heartbeat_timeout_seconds}s"
                        if kind == "chain-hung" else
                        f"exceeded {config.chain_timeout_seconds}s deadline",
                    )
                    journal_event(kind, chain_index=task.chain_index)
                    kill_pending = True
                    pm.kill_workers()
    finally:
        _HEARTBEATS = None
        _CALLER_MEMO = None


def parallel_map(
    fn,
    items,
    *,
    workers: int | None = None,
    oversubscribe: bool = False,
) -> list:
    """Order-preserving map over a process pool (in-process when 1).

    ``fn`` must be a module-level picklable callable and ``items``
    picklable values — the batched table runners fan benchmark rows
    through this with one row per task.  Pool teardown is guaranteed
    on every exit path (PoolManager kills workers instead of waiting
    on them when an exception unwinds past a running task).
    """
    items = list(items)
    if not items:
        return []
    n_workers = effective_workers(
        workers, len(items), oversubscribe=oversubscribe
    )
    if n_workers <= 1:
        return [fn(item) for item in items]

    import concurrent.futures
    import multiprocessing

    try:
        context = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX fallback
        context = multiprocessing.get_context()

    def factory():
        return concurrent.futures.ProcessPoolExecutor(
            max_workers=n_workers, mp_context=context
        )

    with PoolManager(factory) as pm:
        return list(pm.pool.map(fn, items))
