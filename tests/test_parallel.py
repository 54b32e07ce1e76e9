"""Parallel executor and evaluation-memo tests.

Locks in the determinism contract of :mod:`repro.parallel`:

* ``restarts=1`` is bit-for-bit chain 0 of a pooled multi-restart run
  and matches the former serial path's pinned results (and stays so
  with an explicit memo — hits return the stored exact result);
* multi-restart results depend only on ``(seed, restarts)``, never on
  the worker count or scheduling;
* everything that crosses the process-pool boundary pickle round-trips
  cleanly.
"""

import math
import pickle

import pytest

from repro.opamp import OpAmpSpec, OpAmpTopology, coarse_design_opamp
from repro.parallel import (
    ChainTask,
    DEFAULT_CAPACITY,
    DEFAULT_QUANTUM,
    EvalMemo,
    derive_chain_seed,
    effective_workers,
    memo_key,
    parallel_map,
    run_annealing_chains,
    usable_cpu_count,
)
from repro.runtime import EvalBudget, RetryPolicy, faults
from repro.runtime.diagnostics import DiagnosticLog
from repro.runtime.faults import FaultSpec, injected_faults
from repro.synthesis import (
    AnnealingSchedule,
    OpAmpSizingProblem,
    ape_ranges,
    opamp_synthesis_spec,
    synthesize_opamp,
)
from repro.technology import PRESET_NAMES, generic_05um, technology_by_name

TECH = generic_05um()
SPEC = OpAmpSpec(gain=100.0, ugf=2e6, ibias=2e-6, cl=10e-12)
TOPO = OpAmpTopology(current_source="wilson", output_buffer=True, z_load=1e3)

#: The two paths a multi-restart run can take, forced explicitly: left
#: implicit, ``workers`` follows the host's CPU count and a test would
#: exercise different code on a 1-CPU container than on CI.
PATHS = {
    "in-process": dict(workers=1),
    "pooled": dict(workers=2, oversubscribe=True),
}
each_path = pytest.mark.parametrize(
    "path", list(PATHS.values()), ids=list(PATHS)
)


def _chain_summary(result):
    """The scheduling-independent portion of a SynthesisResult."""
    return [
        (c.best_cost, c.best_params, c.best_metrics, c.evaluations,
         c.accepted, c.failed_evaluations, c.stop_reason)
        for c in result.chains
    ]


# ---------------------------------------------------------------- seeds/pool


class TestSeedsAndWorkers:
    def test_chain_zero_keeps_master_seed(self):
        assert derive_chain_seed(42, 0) == 42

    def test_chain_seeds_distinct_and_deterministic(self):
        seeds = [derive_chain_seed(7, i) for i in range(16)]
        assert len(set(seeds)) == 16
        assert seeds == [derive_chain_seed(7, i) for i in range(16)]

    def test_effective_workers_clamps_to_tasks(self):
        assert effective_workers(8, 3, oversubscribe=True) == 3

    def test_effective_workers_clamps_to_cpus(self):
        cpus = usable_cpu_count()
        assert effective_workers(cpus + 64, 128) == cpus

    def test_effective_workers_oversubscribe_bypasses_cpu_clamp(self):
        assert effective_workers(2, 4, oversubscribe=True) == 2

    def test_effective_workers_default_is_cpu_count(self):
        assert effective_workers(None, 128) == usable_cpu_count()

    def test_parallel_map_preserves_order(self):
        items = list(range(11))
        assert parallel_map(_square, items) == [i * i for i in items]

    def test_parallel_map_pool_matches_in_process(self):
        items = list(range(7))
        pooled = parallel_map(_square, items, workers=2, oversubscribe=True)
        assert pooled == [i * i for i in items]


def _square(x):
    return x * x


# -------------------------------------------------------------------- memo


class TestEvalMemo:
    def test_hit_miss_counting(self):
        memo = EvalMemo()
        params = {"a": 1.0, "b": 2e-6}
        assert memo.lookup(params) is None
        memo.store(params, 0.5, {"gain": 10.0})
        assert memo.lookup(params) == (0.5, {"gain": 10.0})
        assert (memo.hits, memo.misses, memo.stores) == (1, 1, 1)
        assert memo.lookups == 2
        assert memo.hit_rate == pytest.approx(0.5)
        assert len(memo) == 1

    def test_quantization_collapses_float_dust(self):
        base = {"w": 10e-6}
        assert memo_key(base) == memo_key({"w": 10e-6 * (1 + 1e-12)})
        assert memo_key(base) != memo_key({"w": 10.1e-6})

    def test_key_is_order_independent(self):
        assert memo_key({"a": 1.0, "b": 2.0}) == memo_key({"b": 2.0, "a": 1.0})

    def test_nonpositive_values_never_collide(self):
        assert memo_key({"x": 0.0}) != memo_key({"x": -1.0})

    def test_lookup_returns_a_copy(self):
        memo = EvalMemo()
        memo.store({"a": 1.0}, 0.1, {"gain": 5.0})
        _, metrics = memo.lookup({"a": 1.0})
        metrics["gain"] = -1.0
        assert memo.lookup({"a": 1.0})[1] == {"gain": 5.0}

    def test_wrap_skips_reevaluation(self):
        calls = []

        def evaluate(params):
            calls.append(dict(params))
            return 1.5, {"gain": 2.0}

        memo = EvalMemo()
        cached = memo.wrap(evaluate)
        assert cached({"a": 3.0}) == (1.5, {"gain": 2.0})
        assert cached({"a": 3.0}) == (1.5, {"gain": 2.0})
        assert len(calls) == 1

    def test_wrap_caches_failures_without_faults(self):
        calls = []

        def evaluate(params):
            calls.append(1)
            return 1e9, None

        cached = EvalMemo().wrap(evaluate)
        cached({"a": 1.0})
        cached({"a": 1.0})
        assert len(calls) == 1

    def test_wrap_does_not_cache_failures_under_faults(self):
        calls = []

        def evaluate(params):
            calls.append(1)
            return 1e9, None

        cached = EvalMemo().wrap(evaluate)
        with injected_faults({"spice.dc": 0.0}, seed=1):
            cached({"a": 1.0})
            cached({"a": 1.0})
        assert len(calls) == 2

    def test_export_merge_roundtrip(self):
        memo = EvalMemo()
        memo.store({"a": 1.0}, 0.1, {"gain": 1.0})
        memo.lookup({"a": 1.0})
        other = EvalMemo()
        other.store({"b": 2.0}, 0.2, None)
        other.merge(pickle.loads(pickle.dumps(memo.export())))
        assert len(other) == 2
        assert other.hits == memo.hits
        assert other.lookup({"a": 1.0}) == (0.1, {"gain": 1.0})

    def test_merge_existing_entries_win(self):
        memo = EvalMemo()
        memo.store({"a": 1.0}, 0.1, {"gain": 1.0})
        incoming = EvalMemo()
        incoming.store({"a": 1.0}, 0.9, {"gain": 9.0})
        memo.merge(incoming)
        assert memo.lookup({"a": 1.0}) == (0.1, {"gain": 1.0})

    def test_merge_rejects_quantum_mismatch(self):
        with pytest.raises(ValueError):
            EvalMemo(1e-9).merge(EvalMemo(1e-6))

    def test_bad_quantum_rejected(self):
        with pytest.raises(ValueError):
            EvalMemo(0.0)

    def test_lru_evicts_oldest_past_capacity(self):
        memo = EvalMemo(capacity=2)
        memo.store({"a": 1.0}, 0.1, None)
        memo.store({"b": 1.0}, 0.2, None)
        memo.store({"c": 1.0}, 0.3, None)
        assert len(memo) == 2
        assert memo.evictions == 1
        assert memo.lookup({"a": 1.0}) is None  # the oldest went
        assert memo.lookup({"c": 1.0}) == (0.3, None)

    def test_lookup_refreshes_lru_recency(self):
        memo = EvalMemo(capacity=2)
        memo.store({"a": 1.0}, 0.1, None)
        memo.store({"b": 1.0}, 0.2, None)
        memo.lookup({"a": 1.0})  # "a" is now most recent
        memo.store({"c": 1.0}, 0.3, None)
        assert memo.lookup({"a": 1.0}) == (0.1, None)
        assert memo.lookup({"b": 1.0}) is None  # "b" was evicted instead

    def test_merge_respects_capacity(self):
        memo = EvalMemo(capacity=2)
        incoming = EvalMemo()
        for i, name in enumerate("abcd"):
            incoming.store({name: 1.0}, float(i), None)
        memo.merge(incoming)
        assert len(memo) == 2
        assert memo.evictions == 2

    def test_unbounded_when_capacity_none(self):
        memo = EvalMemo(capacity=None)
        for i in range(DEFAULT_CAPACITY // 256):  # cheap, still > any cap
            memo.store({"x": float(i + 1)}, 0.0, None)
        assert memo.evictions == 0

    def test_default_capacity_applied(self):
        assert EvalMemo().capacity == DEFAULT_CAPACITY

    def test_bad_capacity_rejected(self):
        with pytest.raises(ValueError):
            EvalMemo(capacity=0)

    def test_export_carries_capacity_and_evictions(self):
        memo = EvalMemo(capacity=1)
        memo.store({"a": 1.0}, 0.1, None)
        memo.store({"b": 1.0}, 0.2, None)
        snapshot = memo.export()
        assert snapshot["capacity"] == 1
        assert snapshot["evictions"] == 1


# ------------------------------------------------------- canonical evaluation


class TestCanonicalEvaluation:
    def test_fast_profile_reuse_bench_is_exact(self):
        """In-place bench updates reproduce factory builds bit-for-bit."""
        template, _ = coarse_design_opamp(TECH, SPEC, TOPO)
        variables = ape_ranges(template)
        bounds = {v.name: (v.lo, v.hi) for v in variables}
        slow = OpAmpSizingProblem(template, variables)
        slow._bench_broken = True  # every candidate: a factory build
        fast = OpAmpSizingProblem(template, variables)
        point = {
            name: min(max(template.initial_point().get(name, lo), lo), hi)
            for name, (lo, hi) in bounds.items()
        }
        for scale in (1.0, 0.97, 1.03, 0.9, 1.0):
            params = {}
            for name, value in point.items():
                lo, hi = bounds[name]
                params[name] = min(max(value * scale, lo), hi)
            assert fast.evaluate(params) == slow.evaluate(params)
        assert not fast._bench_broken

    def test_warm_start_stays_within_solver_tolerance(self):
        template, _ = coarse_design_opamp(TECH, SPEC, TOPO)
        variables = ape_ranges(template)
        cold = OpAmpSizingProblem(template, variables)
        cold._warm_ready = True  # no template OP: flat initial guess
        warm = OpAmpSizingProblem(template, variables)
        point = {
            v.name: min(max(template.initial_point().get(v.name, v.lo), v.lo), v.hi)
            for v in variables
        }
        m_cold = cold.evaluate(point)
        m_warm = warm.evaluate(point)
        assert m_cold is not None and m_warm is not None
        for key, value in m_cold.items():
            assert m_warm[key] == pytest.approx(value, rel=1e-3, abs=1e-12), key

    def test_evaluation_is_history_independent(self):
        """The memo/scheduling contract: same params -> same metrics,
        whatever was evaluated in between."""
        template, _ = coarse_design_opamp(TECH, SPEC, TOPO)
        variables = ape_ranges(template)
        bounds = {v.name: (v.lo, v.hi) for v in variables}
        problem = OpAmpSizingProblem(template, variables)
        point = {
            name: min(max(template.initial_point().get(name, lo), lo), hi)
            for name, (lo, hi) in bounds.items()
        }
        first = problem.evaluate(point)
        perturbed = {}
        for name, value in point.items():
            lo, hi = bounds[name]
            perturbed[name] = min(max(value * 1.05, lo), hi)
        problem.evaluate(perturbed)
        assert problem.evaluate(point) == first


# ------------------------------------------------------------ determinism


#: Best cost and verdict of the former serial evaluation path (cold
#: DC starts, factory-built benches) for SPEC/TOPO, seed 3, 40
#: evaluations.  The executor's warm starts move the last digits only.
SERIAL_GOLDEN = {
    "ape": (0.21160571161413388, True),
    "standalone": (34.96509407427068, False),
}


class TestDeterminism:
    def test_restarts_one_is_bit_for_bit_serial(self):
        for mode, (cost, meets) in SERIAL_GOLDEN.items():
            result = synthesize_opamp(
                TECH, SPEC, TOPO, mode=mode, max_evaluations=40, seed=3,
                name="oa",
            )
            assert result.best_cost == pytest.approx(cost, rel=1e-9), mode
            assert result.meets_spec is meets, mode
            assert result.evaluations == 40
            assert (result.restarts, result.workers) == (1, 1)

    @pytest.mark.parametrize("mode", ["ape", "standalone"])
    def test_restarts_one_is_chain_zero_of_a_pooled_run(self, mode):
        kwargs = dict(mode=mode, max_evaluations=40, seed=3, name="oa")
        single = synthesize_opamp(TECH, SPEC, TOPO, **kwargs)
        pooled = synthesize_opamp(
            TECH, SPEC, TOPO, restarts=2, workers=2, oversubscribe=True,
            **kwargs,
        )
        assert pooled.workers == 2
        assert _chain_summary(single) == _chain_summary(pooled)[:1]
        assert single.params == pooled.chains[0].best_params

    def test_serial_memo_opt_in_is_exact(self):
        """An explicit memo on a single-chain run changes nothing but speed."""
        kwargs = dict(mode="ape", max_evaluations=60, seed=5, name="oa")
        plain = synthesize_opamp(TECH, SPEC, TOPO, memo=False, **kwargs)
        memod = synthesize_opamp(TECH, SPEC, TOPO, memo=True, **kwargs)
        assert memod.best_cost == plain.best_cost
        assert memod.params == plain.params
        assert memod.metrics == plain.metrics
        assert memod.evaluations == plain.evaluations
        assert memod.cache_hits + memod.cache_misses == memod.evaluations
        assert plain.cache_hits == plain.cache_misses == 0

    def test_results_depend_on_seed_and_restarts_not_workers(self):
        kwargs = dict(mode="ape", max_evaluations=30, seed=9, name="oa")
        one = synthesize_opamp(TECH, SPEC, TOPO, restarts=3, workers=1, **kwargs)
        pooled = synthesize_opamp(
            TECH, SPEC, TOPO, restarts=3, workers=3, oversubscribe=True,
            **kwargs,
        )
        assert _chain_summary(one) == _chain_summary(pooled)
        assert one.best_cost == pooled.best_cost
        assert one.params == pooled.params
        assert one.metrics == pooled.metrics
        assert pooled.workers == 3

    @each_path
    def test_multi_restart_repeats_exactly(self, path):
        kwargs = dict(
            mode="ape", max_evaluations=30, seed=2, name="oa", restarts=2,
            **path,
        )
        first = synthesize_opamp(TECH, SPEC, TOPO, **kwargs)
        second = synthesize_opamp(TECH, SPEC, TOPO, **kwargs)
        assert _chain_summary(first) == _chain_summary(second)

    def test_chain_zero_uses_master_seed_annealing(self):
        """Chain 0 of a restart fan anneals with the master seed itself."""
        kwargs = dict(mode="ape", max_evaluations=30, name="oa")
        fan = synthesize_opamp(TECH, SPEC, TOPO, restarts=2, seed=13, **kwargs)
        assert len(fan.chains) == 2
        assert fan.restarts == 2

    def test_faults_compose_with_restarts_and_scheduling(self):
        kwargs = dict(mode="ape", max_evaluations=30, seed=4, name="oa")
        with injected_faults({"synthesis.evaluate": 0.3}, seed=11):
            one = synthesize_opamp(
                TECH, SPEC, TOPO, restarts=2, workers=1, **kwargs
            )
        with injected_faults({"synthesis.evaluate": 0.3}, seed=11):
            pooled = synthesize_opamp(
                TECH, SPEC, TOPO, restarts=2, workers=2, oversubscribe=True,
                **kwargs,
            )
        assert one.failed_evaluations > 0
        assert _chain_summary(one) == _chain_summary(pooled)

    @each_path
    def test_chain_fault_counts_reach_the_caller(self, path):
        """Each chain arms its own injector; the caller's sees them all."""
        with injected_faults({"synthesis.evaluate": 0.2}, seed=11) as inj:
            result = synthesize_opamp(
                TECH, SPEC, TOPO, mode="ape", max_evaluations=40, seed=4,
                name="oa", restarts=2, **path,
            )
        assert result.evaluations == 80
        assert inj.checks_by_site["synthesis.evaluate"] == 80
        fires = inj.fires_by_site["synthesis.evaluate"]
        assert 0 < fires <= result.failed_evaluations

    def test_strict_run_never_reuses_a_tolerant_bundle(self):
        """A cached tolerant problem must not hide a strict APE failure."""
        from repro.errors import EstimationError

        kwargs = dict(
            mode="ape", max_evaluations=10, seed=3, name="oa", restarts=2,
            workers=1, memo=False,
        )
        synthesize_opamp(TECH, SPEC, TOPO, **kwargs)
        with injected_faults({"estimator.opamp": 1.0}, seed=1):
            with pytest.raises(EstimationError):
                synthesize_opamp(TECH, SPEC, TOPO, tolerant=False, **kwargs)

    def test_fault_injector_restored_after_fan_out(self):
        with injected_faults({"spice.dc": 0.0}, seed=3) as injector:
            synthesize_opamp(
                TECH, SPEC, TOPO, mode="ape", max_evaluations=12,
                seed=1, restarts=2,
            )
            assert faults.active() is injector
        assert faults.active() is None

    def test_restarts_below_one_rejected(self):
        from repro.errors import SpecificationError

        with pytest.raises(SpecificationError):
            synthesize_opamp(TECH, SPEC, TOPO, restarts=0)


# ------------------------------------------------------------- result fields


class TestResultSurface:
    @each_path
    def test_throughput_and_cache_counters(self, path):
        result = synthesize_opamp(
            TECH, SPEC, TOPO, mode="ape", max_evaluations=40,
            seed=6, restarts=2, **path,
        )
        assert result.evals_per_second > 0
        assert result.cache_misses > 0
        assert result.cache_hits + result.cache_misses <= result.evaluations
        assert len(result.chains) == 2
        assert all(c.wall_seconds > 0 for c in result.chains)
        assert all(c.evals_per_second > 0 for c in result.chains)
        assert result.evaluations == sum(c.evaluations for c in result.chains)

    @each_path
    def test_shared_memo_across_runs(self, path):
        memo = EvalMemo()
        kwargs = dict(
            mode="ape", max_evaluations=30, seed=8, name="oa", **path
        )
        first = synthesize_opamp(TECH, SPEC, TOPO, restarts=2, memo=memo, **kwargs)
        again = synthesize_opamp(TECH, SPEC, TOPO, restarts=2, memo=memo, **kwargs)
        # The second run replays the exact same chains: every lookup
        # hits — in pool workers too, through the caller-memo read tier.
        assert again.cache_hits == again.evaluations
        assert again.cache_misses == 0
        assert again.best_cost == first.best_cost
        assert again.params == first.params

    def test_session_stats_accumulate(self):
        from repro.runtime import global_stats

        stats = global_stats()
        runs_before = stats.runs
        evals_before = stats.evaluations
        result = synthesize_opamp(
            TECH, SPEC, TOPO, mode="ape", max_evaluations=12, seed=1,
        )
        assert stats.runs == runs_before + 1
        assert stats.evaluations == evals_before + result.evaluations
        assert stats.render()

    @each_path
    def test_deadline_is_shared_and_degrades(self, path):
        budget = EvalBudget(deadline_seconds=1e-3)
        result = synthesize_opamp(
            TECH, SPEC, TOPO, mode="ape", max_evaluations=500,
            seed=1, restarts=2, budget=budget, **path,
        )
        assert result.degraded
        assert result.evaluations < 1000
        assert any(c.stop_reason for c in result.chains)
        assert budget.evaluations == result.evaluations

    @each_path
    def test_parallel_diagnostics_recorded(self, path):
        log = DiagnosticLog(mirror=False)
        synthesize_opamp(
            TECH, SPEC, TOPO, mode="ape", max_evaluations=12,
            seed=1, restarts=2, diagnostics=log, **path,
        )
        assert any(
            d.subsystem == "synthesis.parallel" for d in log.records
        )


# ------------------------------------------------------ problem-scoped memo


#: Paper Table 1 rows oa3 and oa4: one topology, so in standalone mode
#: one search box — with one seed their first candidates coincide.
UNBUFFERED = OpAmpTopology(
    current_source="mirror", diff_pair="cmos", output_buffer=False,
    z_load=math.inf,
)
OA3 = OpAmpSpec(gain=250.0, ugf=8e6, area=1000e-12, ibias=1e-6, cl=10e-12)
OA4 = OpAmpSpec(gain=150.0, ugf=3e6, area=1000e-12, ibias=100e-6, cl=10e-12)


class TestProblemScopedMemo:
    @pytest.mark.parametrize(
        "shape",
        [dict(restarts=1), dict(restarts=2, **PATHS["in-process"]),
         dict(restarts=2, **PATHS["pooled"])],
        ids=["serial", "in-process", "pooled"],
    )
    def test_rows_sharing_a_box_never_cross_hit(self, shape):
        """Regression: keys without a problem scope served oa3's costs
        to oa4 (best cost 26.31 instead of 10.65)."""
        kwargs = dict(
            mode="standalone", seed=11, max_evaluations=40, **shape
        )
        memo = EvalMemo()
        synthesize_opamp(TECH, OA3, UNBUFFERED, name="oa3", memo=memo, **kwargs)
        shared = synthesize_opamp(
            TECH, OA4, UNBUFFERED, name="oa4", memo=memo, **kwargs
        )
        fresh = synthesize_opamp(
            TECH, OA4, UNBUFFERED, name="oa4", memo=EvalMemo(), **kwargs
        )
        assert _chain_summary(shared) == _chain_summary(fresh)
        assert shared.best_cost == fresh.best_cost
        assert shared.params == fresh.params
        assert shared.metrics == fresh.metrics
        assert shared.cache_hits == fresh.cache_hits

    def test_scopes_partition_one_memo(self):
        memo = EvalMemo()
        memo.bind("row-a")
        memo.store({"w": 1.0}, 0.1, None)
        memo.bind("row-b")
        assert memo.lookup({"w": 1.0}) is None
        memo.store({"w": 1.0}, 0.2, None)
        assert memo.lookup({"w": 1.0}) == (0.2, None)
        memo.bind("row-a")
        assert memo.lookup({"w": 1.0}) == (0.1, None)
        assert len(memo) == 2

    def test_read_tier_serves_without_copying_or_counting(self):
        caller = EvalMemo()
        caller.bind("row")
        caller.store({"w": 1.0}, 0.1, {"gain": 2.0})
        worker = EvalMemo()
        worker.bind("row")
        worker.reads = caller
        worker.start_recording()
        assert worker.lookup({"w": 1.0}) == (0.1, {"gain": 2.0})
        assert worker.lookup({"w": 2.0}) is None
        worker.store({"w": 2.0}, 0.2, None)
        snapshot = worker.export(worker.take_recorded())
        # Only the worker's own evaluation travels home.
        assert list(snapshot["data"]) == [worker.key({"w": 2.0})]
        assert (worker.hits, worker.misses, len(worker)) == (1, 1, 1)
        assert (caller.hits, caller.misses) == (0, 0)
        caller.merge(snapshot)
        caller.merge(snapshot)
        assert (caller.hits, caller.misses, len(caller)) == (1, 1, 2)

    def test_own_snapshot_merges_as_a_no_op(self):
        memo = EvalMemo()
        memo.store({"w": 1.0}, 0.1, None)
        memo.lookup({"w": 1.0})
        memo.merge(memo.export())
        assert (memo.hits, memo.stores, len(memo)) == (1, 1, 1)

    def test_shared_memo_must_match_the_task_scope(self):
        memo = EvalMemo()
        memo.bind("another-problem")
        with pytest.raises(ValueError):
            run_annealing_chains([_small_task(chain_index=0)], memo=memo)


# ---------------------------------------------------------------- pickling


class TestPoolBoundaryPickling:
    @pytest.mark.parametrize("name", sorted(PRESET_NAMES))
    def test_technology_presets_roundtrip(self, name):
        tech = technology_by_name(name)
        assert pickle.loads(pickle.dumps(tech)) == tech

    @pytest.mark.parametrize("obj", [
        SPEC,
        TOPO,
        OpAmpTopology(current_source="mirror", output_buffer=False),
        AnnealingSchedule(),
        RetryPolicy(max_attempts=3, seed=5),
        FaultSpec("spice.dc", 0.25, max_fires=3),
        EvalBudget(deadline_seconds=2.0, max_failures=5),
    ])
    def test_pool_boundary_objects_roundtrip(self, obj):
        clone = pickle.loads(pickle.dumps(obj))
        for attr in ("gain", "probability", "max_attempts", "t0",
                     "deadline_seconds", "current_source"):
            if hasattr(obj, attr):
                assert getattr(clone, attr) == getattr(obj, attr)

    def test_synthesis_spec_roundtrips(self):
        spec = opamp_synthesis_spec(SPEC)
        clone = pickle.loads(pickle.dumps(spec))
        assert pickle.dumps(clone) == pickle.dumps(spec)

    def test_chain_task_roundtrips(self):
        task = _small_task(chain_index=1)
        clone = pickle.loads(pickle.dumps(task))
        assert clone == task

    def test_problem_key_shared_across_chain_indices(self):
        assert (
            _small_task(chain_index=0).problem_key()
            == _small_task(chain_index=3).problem_key()
        )

    def test_problem_key_separates_strict_and_tolerant(self):
        from dataclasses import replace

        task = _small_task(chain_index=0)
        strict = replace(task, tolerant=False)
        assert strict.problem_key() != task.problem_key()

    def test_problem_key_shared_after_pool_transfer(self):
        # problem_key is process-local: its bytes depend on object
        # identity (string interning changes pickle back-references),
        # so a clone's key need not equal the parent's.  What the
        # worker-local bundle cache relies on is that tasks unpickled
        # on the same side of the pool boundary agree.
        c0 = pickle.loads(pickle.dumps(_small_task(chain_index=0)))
        c3 = pickle.loads(pickle.dumps(_small_task(chain_index=3)))
        assert c0.problem_key() == c3.problem_key()

    def test_run_chain_outcome_roundtrips(self):
        outcome = run_annealing_chains([_small_task(chain_index=0)])[0]
        clone = pickle.loads(pickle.dumps(outcome))
        assert clone.anneal.best_cost == outcome.anneal.best_cost
        assert clone.anneal.best_params == outcome.anneal.best_params


def _small_task(chain_index: int) -> ChainTask:
    return ChainTask(
        tech=TECH,
        spec=SPEC,
        topology=TOPO,
        mode="ape",
        synthesis_spec=opamp_synthesis_spec(SPEC),
        name="oa",
        range_factor=0.2,
        max_evaluations=10,
        schedule=None,
        seed=1,
        chain_index=chain_index,
        memo_quantum=DEFAULT_QUANTUM,
    )


# -------------------------------------------------------------- table runner


class TestBatchedRunners:
    def test_run_annealing_chains_orders_outcomes(self):
        tasks = [_small_task(chain_index=i) for i in range(3)]
        outcomes = run_annealing_chains(
            list(reversed(tasks)), workers=2, oversubscribe=True
        )
        assert [o.chain_index for o in outcomes] == [0, 1, 2]

    def test_pool_merges_worker_memos(self):
        memo = EvalMemo()
        run_annealing_chains(
            [_small_task(chain_index=i) for i in range(2)],
            workers=2, memo=memo, oversubscribe=True,
        )
        assert len(memo) > 0
        assert memo.stores > 0

    def test_in_process_bundle_cache_is_bounded(self, monkeypatch):
        from dataclasses import replace

        from repro.parallel import executor

        monkeypatch.setattr(executor, "_BUNDLE_CAPACITY", 2)
        executor.clear_worker_caches()
        tasks = [
            replace(_small_task(chain_index=0), name=f"oa{i}")
            for i in range(3)
        ]
        for task in tasks:
            executor._bundle_for(task)
        assert list(executor._WORKER_BUNDLES) == [
            task.problem_key() for task in tasks[1:]
        ]
        executor.clear_worker_caches()

    def test_empty_task_list(self):
        assert run_annealing_chains([]) == []
        assert parallel_map(_square, []) == []
