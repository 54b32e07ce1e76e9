"""Content-addressed memoization of candidate evaluations.

Annealing chains revisit parameter points far more often than one
would guess: every proposal that walks into a box bound is clamped
onto the bound itself, so at high temperature a large fraction of
moves land on *exactly* the same clamped coordinates, and independent
restarts share one template and therefore one bound box.  An
:class:`EvalMemo` caches ``(cost, metrics)`` per candidate under a
content-addressed key — the parameter dict quantized in log space —
so a repeated candidate costs a dictionary lookup instead of a DC
solve plus an AWE fit.

Correctness contract: memoization is only sound because
:meth:`~repro.synthesis.problems.OpAmpSizingProblem.evaluate` is
*canonical* (history-independent), so evicting or losing an entry can
never change a result — only how fast it arrives.  The parallel
executor relies on the same property for its scheduling independence,
and ``tests/test_parallel.py`` locks it in.

The memo is *bounded*: entries live in an LRU ordering and the oldest
are evicted once ``capacity`` is exceeded (long supervised runs and
multi-row table sessions would otherwise grow the cache without
limit).  Evictions are counted and surfaced through
``repro diagnostics``.

Entries are *problem-scoped*: the memo holds ``(fingerprint, key)``
pairs, where the fingerprint is the content hash of the sizing problem
a run is bound to (:meth:`EvalMemo.bind`).  One memo can therefore be
shared across the rows of a table: two rows whose search boxes and
seeds coincide propose identical parameter dicts, and only the scope
keeps one row's cost from being served to the other.

The memo is pickle-clean (plain dicts and tuples), so per-worker
caches can cross the process-pool boundary and be merged back into a
session-wide cache shared across chains and table rows.

Three-tier operation: lookups try this memo's LRU first, then an
optional *read tier* (:attr:`EvalMemo.reads` — in pool workers, the
caller's memo as inherited through ``fork``), then an optional
persistent :class:`~repro.store.EvalStore` attached by
:meth:`EvalMemo.bind` (store hits are promoted into the LRU).  Writes
go behind: new entries are buffered and flushed in batches via
:meth:`EvalMemo.flush_store`.  Chain workers bind the store
*read-only* — their new entries travel home through the per-chain
snapshot/merge channel and the supervisor flushes them — so results
stay worker-count independent.  Losing any tier (corruption, locks,
a cold read tier) can never change a result, only how fast it
arrives: the same canonical-evaluation contract that makes LRU
eviction safe.
"""

from __future__ import annotations

import itertools
import math
import os
from collections import OrderedDict
from typing import TYPE_CHECKING, Callable, Mapping

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..store import EvalStore

__all__ = ["EvalMemo", "memo_key", "DEFAULT_QUANTUM", "DEFAULT_CAPACITY"]

#: Per-process source of memo generation ids (see ``EvalMemo.generation``).
_GENERATION_COUNTER = itertools.count(1)

#: Quantization step in natural-log space.  1e-9 means two values map
#: to the same key only when they agree to ~1 part in 1e9 — far below
#: any physical tolerance in the flow, so a hit is a true duplicate
#: for every practical purpose, while float dust from clamping or
#: printing round-trips still collapses onto one key.
DEFAULT_QUANTUM = 1e-9

#: Default LRU capacity.  An entry is a quantized key plus a small
#: metrics dict (~a few hundred bytes), so the default bounds the memo
#: at tens of megabytes — far beyond any single run (a 4 x 250-eval
#: fan stores well under 1k entries) but a hard ceiling for week-long
#: supervised sessions sharing one memo across thousands of rows.
DEFAULT_CAPACITY = 65536

MemoKey = tuple[tuple[str, "int | str"], ...]
MemoValue = tuple[float, dict[str, float] | None]
#: A memo entry's full identity: the problem fingerprint it was
#: evaluated under (``None`` for an unbound memo) and its parameter key.
ScopedKey = tuple["str | None", MemoKey]

#: Key-element name reserved for the evaluation-context tag.  It starts
#: with a NUL byte so it can never collide with a real parameter name.
_TAG_FIELD = "\x00tag"


def memo_key(
    params: Mapping[str, float],
    quantum: float = DEFAULT_QUANTUM,
    tag: str | None = None,
) -> MemoKey:
    """Content-addressed key: name-sorted, log-quantized parameters.

    Values are keyed by ``round(ln(v) / quantum)`` — a relative grid,
    which is the natural metric for geometric quantities spanning
    decades.  Non-positive values (never produced by the log-space
    annealer, but reachable through direct API use) fall back to an
    exact bit-pattern key (the float's repr — *not* ``hash()``, whose
    string randomization differs across processes) so they never
    collide with anything.

    ``tag`` names the evaluation context — corner/Monte Carlo-aware
    synthesis keys the same parameter dict per corner (``"corner:ss"``)
    and per mismatch sample (``"mc:3"``), so a shared memo can never
    hand a nominal result to a corner evaluation or vice versa.  The
    tag rides in the key as a reserved element whose field name cannot
    collide with a parameter, and string-valued elements round-trip
    the journal's JSON records exactly like integers do.
    """
    items: list[tuple[str, int | str]] = []
    for name in sorted(params):
        value = params[name]
        if value > 0.0:
            items.append((name, round(math.log(value) / quantum)))
        else:
            # Exact fallback: the IEEE bits via the float's repr.
            items.append((name, repr(float(value))))
    if tag is not None:
        items.append((_TAG_FIELD, tag))
    return tuple(items)


class EvalMemo:
    """Bounded (LRU) shared cache of candidate evaluations.

    ``capacity`` caps the entry count (``None`` = unbounded); lookups
    refresh recency and stores evict the least-recently-used entries
    past the cap, counted in ``evictions``.
    """

    def __init__(
        self,
        quantum: float = DEFAULT_QUANTUM,
        *,
        capacity: int | None = DEFAULT_CAPACITY,
    ) -> None:
        if quantum <= 0:
            raise ValueError(f"quantum must be positive, got {quantum}")
        if capacity is not None and capacity <= 0:
            raise ValueError(
                f"capacity must be positive or None, got {capacity}"
            )
        self.quantum = quantum
        self.capacity = capacity
        self._data: OrderedDict[ScopedKey, MemoValue] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.evictions = 0
        self.store_hits = 0
        self.store_writes = 0
        #: Identity of this memo instance across the pool boundary.
        #: Worker memos persist across chains, so their *cumulative*
        #: counters appear in every chain snapshot; the merge dedupes
        #: per generation id and adds only the delta (pid-qualified so
        #: a pool rebuild's fresh workers count as fresh generations).
        self.generation = f"{os.getpid()}:{next(_GENERATION_COUNTER)}"
        self._merged_counters: dict[str, dict[str, int]] = {}
        self._store: "EvalStore | None" = None
        self._fingerprint: str | None = None
        self._pending: OrderedDict[MemoKey, MemoValue] = OrderedDict()
        #: Read tier consulted after the LRU and before the store: pool
        #: workers point it at the caller's memo as inherited through
        #: ``fork``.  It is only read — never promoted from, counted
        #: in, or exported — so it costs no copy and no double count.
        self.reads: EvalMemo | None = None
        #: Entries evaluated since :meth:`start_recording` (``None``
        #: while not recording): one chain's delta for the journal and
        #: the pool merge.
        self._recorded: dict[ScopedKey, MemoValue] | None = None

    # ------------------------------------------------- problem and store tier

    def bind(
        self, fingerprint: str | None, store: "EvalStore | None" = None
    ) -> None:
        """Scope lookups and stores to one problem; attach its store.

        ``fingerprint`` is the problem's content fingerprint: every
        entry this memo evaluates from now on is keyed under it, and
        only entries under it are served.  It doubles as the namespace
        of the persistent ``store`` tier (``None`` = memory only).  A
        read-only store (chain workers) only serves lookups; new
        entries are buffered for the supervisor-side flush instead.
        Rebinding first flushes entries buffered for the old store.
        """
        self.flush_store()
        self._store = store
        self._fingerprint = fingerprint

    @property
    def store_bound(self) -> bool:
        return self._store is not None

    @property
    def bound_store(self) -> "EvalStore | None":
        return self._store

    @property
    def bound_fingerprint(self) -> str | None:
        return self._fingerprint

    @property
    def pending_writes(self) -> int:
        return len(self._pending)

    def _queue_write(self, key: ScopedKey, value: MemoValue) -> None:
        if (
            self._store is not None
            and not self._store.read_only
            and key[0] == self._fingerprint
        ):
            self._pending[key[1]] = value

    def flush_store(self) -> int:
        """Write-behind flush of buffered entries; returns new rows.

        Safe to call repeatedly (the buffer drains) and cheap when the
        store has degraded (``put_many`` no-ops after a Diagnostic).
        """
        if self._store is None or self._fingerprint is None or not self._pending:
            return 0
        entries = list(self._pending.items())
        self._pending.clear()
        inserted = self._store.put_many(self._fingerprint, entries)
        self.store_writes += inserted
        return inserted

    # ------------------------------------------------------------- core API

    def key(
        self, params: Mapping[str, float], tag: str | None = None
    ) -> ScopedKey:
        return self._fingerprint, memo_key(params, self.quantum, tag)

    def lookup(
        self, params: Mapping[str, float], tag: str | None = None
    ) -> MemoValue | None:
        """Cached ``(cost, metrics)`` or ``None``; counts the outcome.

        Reads through every tier: the LRU, then the read tier, then the
        bound store, whose hits are promoted into the LRU so the hot
        set stays memory-resident under eviction pressure.  LRU and
        read-tier hits count as ``hits``, store hits as ``store_hits``.
        """
        key = self.key(params, tag)
        found = self._data.get(key)
        if found is not None:
            self._data.move_to_end(key)
        elif self.reads is not None:
            found = self.reads._data.get(key)
        if found is None:
            if self._store is not None and self._fingerprint is not None:
                found = self._store.get(self._fingerprint, key[1])
            if found is None:
                self.misses += 1
                return None
            self.store_hits += 1
            # Promote without queuing a write-behind: the entry came
            # *from* the store, so it is already persisted.
            self._store_key(key, found)
        else:
            self.hits += 1
        cost, metrics = found
        # Hand out a copy: callers (and the annealer) may mutate metric
        # dicts, and a shared cache must never observe that.
        return cost, (dict(metrics) if metrics is not None else None)

    def store(
        self,
        params: Mapping[str, float],
        cost: float,
        metrics: dict[str, float] | None,
        tag: str | None = None,
    ) -> None:
        key = self.key(params, tag)
        value = (cost, dict(metrics) if metrics is not None else None)
        self._store_key(key, value)
        self._queue_write(key, value)
        if self._recorded is not None:
            self._recorded[key] = value
        self.stores += 1

    def _store_key(self, key: ScopedKey, value: MemoValue) -> None:
        self._data[key] = value
        self._data.move_to_end(key)
        self._evict()

    def _evict(self) -> None:
        if self.capacity is None:
            return
        while len(self._data) > self.capacity:
            self._data.popitem(last=False)
            self.evictions += 1

    def wrap(
        self,
        evaluate: Callable[[dict[str, float]], MemoValue],
    ) -> Callable[[dict[str, float]], MemoValue]:
        """Cache-through wrapper around an ``evaluate(params)`` callable.

        Failed evaluations (``metrics is None``) are cached only while
        no fault injector is armed: injected faults are probabilistic
        per *call*, so caching one would turn a transient fault into a
        permanent verdict for that candidate and skew exact-count fault
        accounting.
        """
        from ..runtime import faults

        def cached(params: dict[str, float]) -> MemoValue:
            found = self.lookup(params)
            if found is not None:
                return found
            cost, metrics = evaluate(params)
            if metrics is not None or faults.active() is None:
                self.store(params, cost, metrics)
            return cost, metrics

        return cached

    # ------------------------------------------------------- chain deltas

    def start_recording(self) -> None:
        """Begin collecting the entries this memo evaluates (a chain)."""
        self._recorded = {}

    def take_recorded(self) -> dict[ScopedKey, MemoValue]:
        """The entries evaluated since :meth:`start_recording`; stops.

        Returns an empty dict when not recording, so an interrupt
        handler can drain whatever a cut-short chain left behind.
        """
        recorded, self._recorded = self._recorded, None
        return recorded if recorded is not None else {}

    # ----------------------------------------------------- stats and merging

    def __len__(self) -> int:
        return len(self._data)

    @property
    def lookups(self) -> int:
        return self.hits + self.store_hits + self.misses

    @property
    def hit_rate(self) -> float:
        total = self.lookups
        return (self.hits + self.store_hits) / total if total else 0.0

    #: Counter fields carried in snapshots and deduped on merge.
    _COUNTER_FIELDS = ("hits", "misses", "stores", "evictions", "store_hits")

    def export(self, data: "Mapping[ScopedKey, MemoValue] | None" = None) -> dict:
        """Picklable snapshot for pool merging: counters plus entries.

        ``data`` restricts the entries to a delta (a chain's
        :meth:`take_recorded`); the default exports every entry.
        """
        return {
            "quantum": self.quantum,
            "capacity": self.capacity,
            "generation": self.generation,
            "data": dict(self._data if data is None else data),
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "evictions": self.evictions,
            "store_hits": self.store_hits,
        }

    def merge(self, snapshot: "EvalMemo | dict") -> None:
        """Fold a worker's exported snapshot (or another memo) back in.

        Existing entries win: evaluation is canonical, so both sides
        hold the same value and keeping ours is free.  This memo's own
        ``capacity`` is enforced after the fold, and entries new to
        this memo under its bound fingerprint are queued for the
        write-behind store flush (the store's ``INSERT OR IGNORE``
        makes re-queuing an entry the store already holds a no-op).

        Counters are deduped by the source memo's *generation id*:
        worker memos outlive a single chain, so each chain snapshot
        carries the worker's cumulative counters, and a pool rebuild
        can even deliver the same snapshot twice.  Per generation,
        only the delta beyond the last merged totals is added —
        merging a snapshot twice adds zero the second time, and a
        memo's own snapshot (an in-process chain's delta) adds
        nothing at all.  Snapshots without a generation (entries
        rebuilt from a run journal) add their counters plainly.
        """
        if isinstance(snapshot, EvalMemo):
            snapshot = snapshot.export()
        if snapshot["quantum"] != self.quantum:
            raise ValueError(
                "refusing to merge memos with different quanta: "
                f"{snapshot['quantum']} != {self.quantum}"
            )
        generation = snapshot.get("generation")
        if generation == self.generation:
            return
        for key, value in snapshot["data"].items():
            if key not in self._data:
                self._store_key(key, value)
                self._queue_write(key, value)
        counters = {
            name: int(snapshot.get(name, 0)) for name in self._COUNTER_FIELDS
        }
        if generation is None:
            deltas = counters
        else:
            last = self._merged_counters.get(generation, {})
            deltas = {
                name: value - last.get(name, 0)
                for name, value in counters.items()
            }
            if any(delta < 0 for delta in deltas.values()):
                # A counter went backwards: the generation id was
                # reused by a fresh memo (theoretically possible only
                # with pid recycling mid-run) — safest is to treat the
                # snapshot as new.
                deltas = counters
            self._merged_counters[generation] = counters
        self.hits += deltas["hits"]
        self.misses += deltas["misses"]
        self.stores += deltas["stores"]
        self.evictions += deltas["evictions"]
        self.store_hits += deltas["store_hits"]
