"""Sparse-backend benchmark (node-scaling curve).

``ac_ladder_<n>`` — an AC sweep over an RC ladder with ``n`` MNA
unknowns, solved once with the backend forced dense and once forced
sparse (:func:`repro.spice.linalg.solver_override`).  The ladder sizes
trace the scaling curve the ``auto`` mode's size threshold is
calibrated against: at op-amp size dense LAPACK wins (recorded as an
informational ``ac_opamp`` measure with no target), while at the
largest ladder SuperLU must win by the committed floor.

The entry point :func:`run_sparse_benchmark` returns a validated
:class:`~repro.benchmark.report.BenchReport` serialized as
``BENCH_sparse.json`` by the ``repro bench --suite sparse`` CLI.
"""

from __future__ import annotations

import time

from .report import BenchMeasure, BenchReport, BenchTarget
from .suites import _ops_per_sec

__all__ = [
    "run_sparse_benchmark",
    "render_sparse_report",
    "SPARSE_TARGETS",
    "SPARSE_TARGETS_QUICK",
]

#: Acceptance floor (full mode): SuperLU must beat dense LAPACK by at
#: least 3x on the largest ladder.
SPARSE_TARGETS = {"ac_ladder_1000": 3.0}

#: Quick (CI smoke) floor: the big ladder is skipped — its dense
#: baseline alone would dominate the smoke budget — so the mid-size
#: ladder carries a looser floor.
SPARSE_TARGETS_QUICK = {"ac_ladder_200": 2.0}

#: Ladder sizes (total MNA unknowns) per mode.
LADDER_SIZES = (50, 200, 1000)
LADDER_SIZES_QUICK = (50, 200)


def _ladder_fixture(n_unknowns: int):
    """An RC ladder circuit with exactly ``n_unknowns`` MNA unknowns.

    A driven chain of series resistors with shunt capacitors — the
    near-banded structure interconnect/module netlists exhibit, which
    is where sparse factorization pays off.  Generated by
    :func:`~repro.benchmark.netlists.ladder_circuit` (shared with the
    ``benchmarks/gen_netlists.py`` deck generator).
    """
    from ..spice import System, dc_operating_point
    from .netlists import ladder_circuit

    ckt = ladder_circuit(n_unknowns)
    system = System(ckt)
    op = dc_operating_point(ckt, system=system)
    assert system.size == n_unknowns
    return ckt, op


def _module_chain_fixture(n_unknowns: int):
    """A linear gain-module cascade with ``n_unknowns`` MNA unknowns.

    Generated by :func:`~repro.benchmark.netlists.module_chain_circuit`
    — block-bidiagonal rather than tridiagonal, the slightly denser
    pattern of system-level analog signal paths.
    """
    from ..spice import System, dc_operating_point
    from .netlists import module_chain_circuit

    ckt = module_chain_circuit(n_unknowns)
    system = System(ckt)
    op = dc_operating_point(ckt, system=system)
    assert system.size == n_unknowns
    return ckt, op


def run_sparse_benchmark(
    *, quick: bool = False, min_time: float | None = None
) -> BenchReport:
    """A/B benchmark: sparse vs dense solves."""
    from ..spice import solver_override
    from ..spice.ac import ac_analysis, log_frequencies
    from .suites import _opamp_fixture

    if min_time is None:
        min_time = 0.2 if quick else 0.75

    freqs = log_frequencies(1e3, 1e9, 5)  # 31 points over 6 decades
    sizes = LADDER_SIZES_QUICK if quick else LADDER_SIZES
    targets = SPARSE_TARGETS_QUICK if quick else SPARSE_TARGETS
    measures: dict[str, BenchMeasure] = {}

    def ab_sweep(name: str, ckt, op, detail: dict) -> None:
        def run_ac():
            return ac_analysis(ckt, op=op, frequencies=freqs)

        with solver_override("dense"):
            dense_rate, dense_reps = _ops_per_sec(run_ac, min_time=min_time)
        with solver_override("sparse"):
            sparse_rate, sparse_reps = _ops_per_sec(run_ac, min_time=min_time)
        detail = dict(detail)
        detail["reps"] = {"dense": dense_reps, "sparse": sparse_reps}
        measures[name] = BenchMeasure(
            name=name,
            value=sparse_rate,
            baseline=dense_rate,
            ratio=sparse_rate / dense_rate,
            unit="sweeps/s",
            detail=detail,
        )

    for n_unknowns in sizes:
        ckt, op = _ladder_fixture(n_unknowns)
        ab_sweep(
            f"ac_ladder_{n_unknowns}", ckt, op,
            {"unknowns": n_unknowns, "frequencies": len(freqs)},
        )
    # Informational (no target): a gain-module cascade from the same
    # generator family as the committed ladders — block-bidiagonal
    # rather than tridiagonal, tracking how the sparse win transfers
    # to the denser structure of system-level signal paths.
    chain_size = 200 if quick else 500
    ckt, op = _module_chain_fixture(chain_size)
    ab_sweep(
        f"ac_module_chain_{chain_size}", ckt, op,
        {"unknowns": chain_size, "frequencies": len(freqs)},
    )
    # Informational (no target): the op-amp bench sits far below the
    # auto threshold, where dense LAPACK is expected to win — this row
    # documents *why* the auto mode keeps small systems dense.
    bench, system, op = _opamp_fixture()
    ab_sweep(
        "ac_opamp", bench, op,
        {"unknowns": system.size, "frequencies": len(freqs)},
    )

    return BenchReport(
        suite="sparse",
        generated_at=time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        quick=quick,
        baseline=(
            "dense LAPACK solves via solver_override('dense') for the "
            "ladder/op-amp AC sweeps"
        ),
        measures=measures,
        targets=tuple(
            BenchTarget(name, "floor", floor)
            for name, floor in targets.items()
        ),
        context={
            "min_time_per_measurement_s": min_time,
            "ladder_unknowns": list(sizes),
        },
    )


def render_sparse_report(report: BenchReport) -> str:
    """Human-readable table for a :func:`run_sparse_benchmark` report."""
    lines = [
        f"sparse solve benchmark "
        f"({'quick' if report.quick else 'full'})",
        f"{'measure':<20} {'contender/s':>12} {'baseline/s':>12} "
        f"{'speedup':>9}",
    ]
    targets = {t.measure: t.value for t in report.targets}
    for name, row in report.measures.items():
        target = targets.get(name)
        mark = ""
        if target is not None:
            mark = (
                f"  (target {target:.1f}x: "
                f"{'ok' if row.ratio >= target else 'MISSED'})"
            )
        lines.append(
            f"{name:<20} {row.value:>12.2f} "
            f"{row.baseline:>12.2f} "
            f"{row.ratio:>8.2f}x{mark}"
        )
    return "\n".join(lines)
