"""Tests for measurement helpers and result-object utilities that the
main suites exercise only indirectly."""

import math

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.spice import (
    Circuit,
    ac_analysis,
    dc_operating_point,
    find_crossing,
    measure_cmrr,
    measure_output_impedance,
)
from repro.spice import analysis
from repro.spice.analysis import balance_differential
from repro.spice.engine import naive_assembly
from repro.technology import generic_05um

TECH = generic_05um()


class TestFindCrossing:
    def test_downward_crossing(self):
        x = np.array([1.0, 10.0, 100.0, 1000.0])
        y = np.array([4.0, 3.0, 1.5, 0.5])
        f = find_crossing(x, y, 1.0)
        assert 100.0 < f < 1000.0

    def test_upward_crossing(self):
        x = np.array([1.0, 10.0, 100.0])
        y = np.array([0.1, 0.5, 2.0])
        f = find_crossing(x, y, 1.0)
        assert 10.0 < f < 100.0

    def test_linear_interpolation_mode(self):
        x = np.array([0.0, 1.0, 2.0])
        y = np.array([0.0, 10.0, 20.0])
        assert find_crossing(x, y, 5.0, log_x=False) == pytest.approx(0.5)

    def test_log_interpolation_exact_for_log_linear(self):
        # y linear in log10(x): interpolation is exact.
        x = np.logspace(0, 3, 4)
        y = np.array([30.0, 20.0, 10.0, 0.0])
        assert find_crossing(x, y, 15.0) == pytest.approx(
            10.0**1.5, rel=1e-9
        )

    def test_no_crossing_raises(self):
        with pytest.raises(SimulationError):
            find_crossing(np.array([1.0, 10.0]), np.array([5.0, 4.0]), 1.0)

    def test_crossing_at_first_interval(self):
        x = np.array([1.0, 2.0, 4.0])
        y = np.array([2.0, 0.5, 0.1])
        f = find_crossing(x, y, 1.0)
        assert 1.0 < f < 2.0


class TestMeasureCmrr:
    def test_ratio_of_two_runs(self):
        # Differential path: gain 10; common path: gain 0.01.
        ckt_d = Circuit("d")
        ckt_d.v("in", "0", ac=1.0)
        ckt_d.r("in", "0", 1e3)
        ckt_d.e("out", "0", "in", "0", gain=10.0)
        ckt_d.r("out", "0", 1e3)
        ckt_c = Circuit("c")
        ckt_c.v("in", "0", ac=1.0)
        ckt_c.r("in", "0", 1e3)
        ckt_c.e("out", "0", "in", "0", gain=0.01)
        ckt_c.r("out", "0", 1e3)
        ac_d = ac_analysis(ckt_d, frequencies=[100.0])
        ac_c = ac_analysis(ckt_c, frequencies=[100.0])
        assert measure_cmrr(ac_d, ac_c, "out") == pytest.approx(1000.0, rel=1e-6)

    def test_zero_common_gain_is_infinite(self):
        ckt_d = Circuit("d")
        ckt_d.v("in", "0", ac=1.0)
        ckt_d.r("in", "out", 1e3)
        ckt_d.r("out", "0", 1e3)
        ckt_c = Circuit("c")
        ckt_c.v("in", "0", ac=0.0)  # no drive at all
        ckt_c.r("in", "out", 1e3)
        ckt_c.r("out", "0", 1e3)
        ac_d = ac_analysis(ckt_d, frequencies=[100.0])
        ac_c = ac_analysis(ckt_c, frequencies=[100.0])
        assert measure_cmrr(ac_d, ac_c, "out") == math.inf


class TestMeasureOutputImpedance:
    def test_resistive_divider(self):
        ckt = Circuit("z")
        ckt.v("in", "0", dc=0.0)
        ckt.r("in", "out", 3e3)
        ckt.r("out", "0", 6e3)
        z = measure_output_impedance(ckt, "out", frequency=1e3)
        assert z == pytest.approx(2e3, rel=1e-6)

    def test_probe_does_not_mutate_circuit(self):
        ckt = Circuit("z2")
        ckt.v("in", "0", dc=0.0)
        ckt.r("in", "out", 1e3)
        ckt.r("out", "0", 1e3)
        n_before = len(ckt)
        measure_output_impedance(ckt, "out")
        assert len(ckt) == n_before


class TestBalanceDifferential:
    @staticmethod
    def build_affine(offset, gain=100.0):
        def build(v):
            ckt = Circuit("affine")
            ckt.v("vd", "0", dc=v)
            ckt.r("vd", "0", 1e3)
            ckt.e("amp", "0", "vd", "0", gain=gain)
            ckt.v("ofs", "0", dc=offset)
            ckt.r("ofs", "sum", 1e3, name="RA")
            ckt.r("amp", "sum", 1e3, name="RB")
            ckt.r("sum", "0", 1e6)
            # out ~ (gain*v + offset)/2 for large Rload.
            return ckt

        return build

    def test_finds_null(self):
        build = self.build_affine(offset=1.0)
        v, _, op = balance_differential(build, "sum", target=0.0)
        assert op.v("sum") == pytest.approx(0.0, abs=1e-5)
        assert v == pytest.approx(-0.01, rel=0.01)

    def test_no_sign_change_returns_closest(self):
        # Offset too large to null within the span: return best end.
        build = self.build_affine(offset=100.0, gain=1.0)
        v, _, op = balance_differential(build, "sum", v_span=0.1)
        assert v in (-0.1, 0.1)

    @staticmethod
    def count_dc_solves(monkeypatch):
        calls = []
        original = analysis.dc_operating_point

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(analysis, "dc_operating_point", counting)
        return calls

    @pytest.mark.parametrize("engine", ["compiled", "naive"])
    def test_bordered_solve_nulls_the_output(self, monkeypatch, engine):
        # The zero-drive solve plus one polish solve, and the null is
        # exact where a bisection stops at its tolerance.
        calls = self.count_dc_solves(monkeypatch)
        build = self.build_affine(offset=1.0)
        if engine == "naive":
            with naive_assembly():
                v, _, op = balance_differential(build, "sum")
        else:
            v, _, op = balance_differential(build, "sum")
        assert len(calls) == 2
        assert abs(op.v("sum")) < 1e-12
        assert v == pytest.approx(-0.01, rel=1e-9)

    def test_given_start_skips_the_zero_drive_solve(self, monkeypatch):
        build = self.build_affine(offset=1.0)
        x0 = dc_operating_point(build(0.0)).x
        calls = self.count_dc_solves(monkeypatch)
        v, _, op = balance_differential(build, "sum", x0=x0)
        assert len(calls) == 1
        assert v == pytest.approx(-0.01, rel=1e-9)

    def test_offset_beyond_the_span_falls_back_to_the_bisection(
        self, monkeypatch
    ):
        # The bordered solve finds v = -100 V, outside the span; the
        # cold bisection then makes its two end solves (plus the
        # zero-drive and no polish solve) and returns the closer end.
        calls = self.count_dc_solves(monkeypatch)
        build = self.build_affine(offset=100.0, gain=1.0)
        v, _, op = balance_differential(build, "sum", v_span=0.1)
        assert v == -0.1
        assert op.v("sum") == pytest.approx((100.0 - 0.1) / 2, rel=1e-3)
        assert len(calls) == 3


class TestOperatingPointResult:
    def test_voltage_and_current_access(self):
        ckt = Circuit("op")
        ckt.v("in", "0", dc=2.0, name="VS")
        ckt.r("in", "0", 1e3)
        op = dc_operating_point(ckt)
        assert op.v("in") == pytest.approx(2.0)
        assert op.v("0") == 0.0
        assert abs(op.i("VS")) == pytest.approx(2e-3, rel=1e-6)

    def test_saturation_fraction_no_mosfets(self):
        ckt = Circuit("nm")
        ckt.v("in", "0", dc=1.0)
        ckt.r("in", "0", 1e3)
        assert dc_operating_point(ckt).saturation_fraction() == 1.0


class TestUnitsFormatting:
    def test_format_si_mega(self):
        from repro.units import format_si

        assert format_si(2.5e6, "Hz") == "2.5MHz"

    def test_format_bounds(self):
        from repro.units import format_quantity

        # Beyond the suffix table the mantissa absorbs the rest.
        assert format_quantity(5e15) == "5000T"
        assert format_quantity(5e-19) == "0.5a"
