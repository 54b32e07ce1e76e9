"""Engine hot-path benchmark: stamp-compiled vs naive MNA assembly.

Two ways to run it:

* ``python benchmarks/bench_engine_hotpath.py [--quick] [--out PATH]``
  — the standalone A/B harness.  Delegates to
  :func:`repro.benchmark.run_engine_benchmark`, prints the speedup
  table and writes the machine-readable ``BENCH_engine.json`` (same
  behaviour as ``repro bench``).
* ``pytest benchmarks/bench_engine_hotpath.py`` — pytest-benchmark
  micro-benchmarks of the compiled path for each workload, so the hot
  path shows up in the same benchmark reports as the APE-speed suite.

The compiled/naive speedup assertions live in the standalone harness
(and ``tests/test_engine_equivalence.py`` holds the correctness A/B);
the pytest side only tracks absolute timings.
"""

from __future__ import annotations

import sys

import pytest

from repro.benchmark import (
    _anneal_fixture,
    _opamp_fixture,
    _transient_fixture,
    render_report,
    run_engine_benchmark,
    write_report,
)


@pytest.mark.benchmark(group="engine-hotpath")
def test_op_compiled_speed(benchmark):
    from repro.spice.dc import dc_operating_point

    bench, system, _ = _opamp_fixture()
    op = benchmark(lambda: dc_operating_point(bench, system=system))
    assert op.saturation_fraction() > 0.0


@pytest.mark.benchmark(group="engine-hotpath")
def test_ac_sweep_compiled_speed(benchmark):
    from repro.spice.ac import ac_analysis, log_frequencies

    bench, _, op = _opamp_fixture()
    freqs = log_frequencies(1.0, 1e9, 10)
    ac = benchmark(lambda: ac_analysis(bench, op=op, frequencies=freqs))
    assert ac.magnitude("out")[0] > 1.0


@pytest.mark.benchmark(group="engine-hotpath")
def test_transient_compiled_speed(benchmark):
    from repro.spice.transient import transient_analysis

    ckt = _transient_fixture()
    tran = benchmark(lambda: transient_analysis(ckt, 1e-6, 1e-8))
    assert len(tran.times) > 10


@pytest.mark.benchmark(group="engine-hotpath")
def test_anneal_eval_compiled_speed(benchmark):
    problem, params_list = _anneal_fixture()
    metrics = benchmark(
        lambda: [problem.evaluate(params) for params in params_list]
    )
    assert any(m is not None for m in metrics)


def main(argv: list[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        description="A/B benchmark: compiled vs naive MNA assembly"
    )
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--min-time", type=float, default=None)
    parser.add_argument("--out", default="BENCH_engine.json")
    parser.add_argument("--check", action="store_true",
                        help="exit 1 when a speedup target is missed")
    args = parser.parse_args(argv)
    report = run_engine_benchmark(quick=args.quick, min_time=args.min_time)
    print(render_report(report))
    write_report(report, args.out)
    print(f"report written to {args.out}")
    if args.check and not report.all_targets_met():
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
