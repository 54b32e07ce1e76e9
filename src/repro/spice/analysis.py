"""Measurement helpers over simulation results.

These are the "simulate and measure" routines the paper's tables rely
on: DC gain, unity-gain frequency, -3 dB bandwidth, phase margin, slew
rate, output impedance and CMRR, plus a differential-input balancing
helper that centres an open-loop amplifier's output before AC analysis
(the real-world trick for simulating open-loop gain).
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from ..errors import ConvergenceError, SimulationError
from .ac import ACResult, ac_analysis
from .dc import GMIN, OperatingPointResult, _newton, dc_operating_point
from .engine import assemble_dc
from .mna import System
from .netlist import Circuit
from .transient import TransientResult

__all__ = [
    "find_crossing",
    "dc_gain",
    "gain_at",
    "unity_gain_frequency",
    "bandwidth_3db",
    "phase_margin",
    "measure_slew_rate",
    "measure_output_impedance",
    "measure_cmrr",
    "balance_differential",
]


def find_crossing(
    x: np.ndarray, y: np.ndarray, target: float, log_x: bool = True
) -> float:
    """First x where ``y`` crosses ``target`` (downward or upward).

    Interpolates between samples (logarithmically in x when ``log_x``).
    Raises :class:`SimulationError` when no crossing exists.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    above = y >= target
    for k in range(len(y) - 1):
        if above[k] != above[k + 1]:
            y0, y1 = y[k], y[k + 1]
            frac = (target - y0) / (y1 - y0)
            if log_x:
                lx = math.log10(x[k]) + frac * (
                    math.log10(x[k + 1]) - math.log10(x[k])
                )
                return 10.0**lx
            return float(x[k] + frac * (x[k + 1] - x[k]))
    raise SimulationError(f"no crossing of {target:g} found")


def dc_gain(ac: ACResult, output_node: str) -> float:
    """|H| at the lowest analysed frequency (the low-frequency gain)."""
    return float(ac.magnitude(output_node)[0])


def gain_at(
    circuit: Circuit,
    output_node: str,
    frequency: float,
    op: OperatingPointResult | None = None,
) -> float:
    """|H| at one frequency; the circuit's AC sources are the stimulus."""
    ac = ac_analysis(circuit, op=op, frequencies=[frequency])
    return float(ac.magnitude(output_node)[0])


def unity_gain_frequency(ac: ACResult, output_node: str) -> float:
    """Frequency [Hz] where the magnitude response crosses 1."""
    return find_crossing(ac.frequencies, ac.magnitude(output_node), 1.0)


def bandwidth_3db(ac: ACResult, output_node: str) -> float:
    """-3 dB bandwidth [Hz] relative to the low-frequency gain."""
    mag = ac.magnitude(output_node)
    return find_crossing(ac.frequencies, mag, float(mag[0]) / math.sqrt(2.0))


def phase_margin(ac: ACResult, output_node: str) -> float:
    """Phase margin [deg] at the unity-gain crossover.

    Assumes the AC stimulus is the loop input so that the node response
    is the loop gain.
    """
    freqs = ac.frequencies
    mag = ac.magnitude(output_node)
    f_unity = find_crossing(freqs, mag, 1.0)
    # Unwrap before interpolating: a ±180° jump between the two samples
    # bracketing the crossover would otherwise be averaged into the
    # margin, throwing it off by up to 360°.  (``phase_deg`` unwraps as
    # well; doing it here keeps this measurement correct regardless of
    # how the phase array was produced.)
    phase = np.degrees(
        np.unwrap(np.radians(ac.phase_deg(output_node)))
    )
    ph_at = float(np.interp(np.log10(f_unity), np.log10(freqs), phase))
    # Measure the phase *shift* accumulated since DC so that an
    # inverting amplifier's built-in 180 degrees does not count as lag.
    return 180.0 + (ph_at - float(phase[0]))


def measure_slew_rate(
    tran: TransientResult,
    node: str,
    *,
    t_start: float = 0.0,
    t_stop: float | None = None,
) -> float:
    """Maximum |dV/dt| [V/s] of a node over a window of a transient run."""
    times = tran.times
    values = tran.v(node)
    mask = times >= t_start
    if t_stop is not None:
        mask &= times <= t_stop
    t = times[mask]
    v = values[mask]
    if len(t) < 3:
        raise SimulationError("too few transient points for slew measurement")
    dv = np.diff(v) / np.diff(t)
    return float(np.max(np.abs(dv)))


def measure_output_impedance(
    circuit: Circuit,
    output_node: str,
    frequency: float = 1e3,
    op: OperatingPointResult | None = None,
) -> float:
    """|Zout| [ohm] by injecting a 1 A AC probe current at the output.

    All existing AC stimuli are left in place but should be zero-AC for
    a clean measurement; the circuit itself is not modified (a copy is
    probed).
    """
    probe = circuit.copy(title=f"{circuit.title}-zout")
    probe.i("0", output_node, ac=1.0, name="IPROBE_ZOUT")
    if op is not None:
        # The probe adds no unknowns, so the OP still applies; re-solve
        # anyway to keep the result self-contained and safe.
        op = None
    ac = ac_analysis(probe, op=op, frequencies=[frequency])
    return float(ac.magnitude(output_node)[0])


def measure_cmrr(
    ac_differential: ACResult,
    ac_common: ACResult,
    output_node: str,
    frequency_index: int = 0,
) -> float:
    """CMRR = |Adm| / |Acm| from two AC runs with matched stimuli."""
    adm = ac_differential.magnitude(output_node)[frequency_index]
    acm = ac_common.magnitude(output_node)[frequency_index]
    if acm == 0.0:
        return math.inf
    return float(adm / acm)


def balance_differential(
    build: Callable[[float], Circuit],
    output_node: str,
    target: float = 0.0,
    *,
    v_span: float = 0.2,
    tol: float = 1e-6,
    max_bisections: int = 60,
    retry=None,
    system: System | None = None,
    x0: np.ndarray | None = None,
) -> tuple[float, Circuit, OperatingPointResult]:
    """Find the DC differential input that centres an amplifier's output.

    ``build(v_offset)`` must return a fresh circuit with the given DC
    differential drive; the offset where ``V(output_node) == target``
    is the standard way to bias a high-gain open-loop amplifier before
    AC analysis.

    The drive joins the DC unknowns in one bordered Newton solve (see
    :func:`repro.spice.dc._newton`) started from ``x0``, the solution
    at zero drive (solved here when not given).  The residual is affine
    in the drive, so its column is the difference of the residuals of
    ``build(1.0)`` and ``build(0.0)`` at ``x0``.  A polish solve of
    ``build(v)`` from the bordered point must then put the output
    within ``tol`` of ``target`` with ``|v| <= v_span``.  Otherwise a
    bisection over ``[-v_span, +v_span]`` finds the offset, each solve
    warm-started from the previous bisection's (the operating point
    moves continuously as the interval shrinks, and the tracking keeps
    the search on one solution branch in multistable circuits).

    An optional :class:`~repro.runtime.retry.RetryPolicy` is forwarded
    to every DC solve.  Every ``build`` result shares one
    :class:`System` (they are the same topology at different drives),
    so the netlist is validated and indexed once, not per solve; pass
    ``system`` to share an already-built one.

    Returns ``(v_offset, circuit, op)`` at the balanced point.
    """
    shared: list[System | None] = [system]

    def bind(ckt: Circuit) -> System:
        sys = shared[0]
        sys = System(ckt) if sys is None else sys.rebind(ckt)
        shared[0] = sys
        return sys

    def solve(ckt: Circuit, start: np.ndarray | None) -> OperatingPointResult:
        return dc_operating_point(ckt, retry=retry, system=bind(ckt), x0=start)

    try:
        found = _bordered_offset(
            build, output_node, target, v_span, tol, bind, solve, x0
        )
    except ConvergenceError:
        found = None
    if found is not None:
        return found

    x_last: list[np.ndarray | None] = [None]

    def output_at(vofs: float) -> tuple[float, Circuit, OperatingPointResult]:
        ckt = build(vofs)
        op = solve(ckt, x_last[0])
        x_last[0] = op.x
        return op.v(output_node) - target, ckt, op

    lo, hi = -v_span, v_span
    f_lo, ckt_lo, op_lo = output_at(lo)
    f_hi, ckt_hi, op_hi = output_at(hi)
    if f_lo == 0.0:
        return lo, ckt_lo, op_lo
    if f_hi == 0.0:
        return hi, ckt_hi, op_hi
    if f_lo * f_hi > 0:
        # No sign change: return whichever end is closer to the target.
        if abs(f_lo) <= abs(f_hi):
            return lo, ckt_lo, op_lo
        return hi, ckt_hi, op_hi
    sign_lo = math.copysign(1.0, f_lo)
    best = (lo, ckt_lo, op_lo, abs(f_lo))
    for _ in range(max_bisections):
        mid = 0.5 * (lo + hi)
        f_mid, ckt_mid, op_mid = output_at(mid)
        if abs(f_mid) < best[3]:
            best = (mid, ckt_mid, op_mid, abs(f_mid))
        if abs(f_mid) < tol or (hi - lo) < 1e-12:
            return mid, ckt_mid, op_mid
        if math.copysign(1.0, f_mid) == sign_lo:
            lo = mid
        else:
            hi = mid
    v_best, ckt_best, op_best, _ = best
    return v_best, ckt_best, op_best


def _bordered_offset(
    build: Callable[[float], Circuit],
    output_node: str,
    target: float,
    v_span: float,
    tol: float,
    bind: Callable[[Circuit], System],
    solve: Callable[[Circuit, np.ndarray | None], OperatingPointResult],
    x0: np.ndarray | None,
) -> tuple[float, Circuit, OperatingPointResult] | None:
    """The bordered Newton step of :func:`balance_differential`.

    Returns the polished ``(v, circuit, op)``, or ``None`` when the
    bordered run fails, leaves the span or misses ``tol``.
    """
    ckt0 = build(0.0)
    if x0 is None:
        x0 = solve(ckt0, None).x
    res1, _ = assemble_dc(bind(build(1.0)), x0)
    # Bound last: the Newton run assembles at zero drive.
    system = bind(ckt0)
    k = system.index(output_node)
    if k < 0:
        return None
    res0, _ = assemble_dc(system, x0)
    solved = _newton(
        system, np.append(x0, 0.0), gmin=GMIN, border=(res1 - res0, k, target)
    )
    if solved is None:
        return None
    x = solved[0]
    v = float(x[-1])
    if abs(v) > v_span:
        return None
    ckt = build(v)
    op = solve(ckt, x[:-1])
    if abs(op.v(output_node) - target) >= tol:
        return None
    return v, ckt, op
