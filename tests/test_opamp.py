"""Op-amp estimation and verification tests (APE level 3).

Includes the est-vs-sim checks that mirror the paper's Table 3 and the
spec-satisfaction checks behind Tables 1/4.
"""

import math

import pytest

from repro.errors import EstimationError, SpecificationError
from repro.opamp import (
    OpAmpSpec,
    OpAmpTopology,
    design_opamp,
    open_loop_bench,
    step_bench,
    verify_opamp,
)
from repro.opamp.benches import balanced_open_loop
from repro.spice import analysis, dc_operating_point
from repro.spice.linalg import solver_override
from repro.technology import generic_05um

TECH = generic_05um()


def simple_spec(**overrides):
    base = dict(gain=200.0, ugf=2e6, ibias=2e-6, cl=10e-12)
    base.update(overrides)
    return OpAmpSpec(**base)


class TestSpecValidation:
    def test_valid_spec(self):
        spec = simple_spec()
        assert spec.gain == 200.0

    @pytest.mark.parametrize(
        "field,value",
        [
            ("gain", 0.0),
            ("ugf", -1.0),
            ("ibias", 0.0),
            ("cl", -1e-12),
            ("slew_rate", -1.0),
        ],
    )
    def test_bad_spec_rejected(self, field, value):
        with pytest.raises(SpecificationError):
            simple_spec(**{field: value})

    def test_bad_topology_rejected(self):
        with pytest.raises(SpecificationError):
            OpAmpTopology(current_source="quantum")
        with pytest.raises(SpecificationError):
            OpAmpTopology(diff_pair="bjt")
        with pytest.raises(SpecificationError):
            OpAmpTopology(z_load=0.0)


class TestDesignOpAmp:
    def test_single_stage_for_moderate_gain(self):
        amp = design_opamp(TECH, simple_spec(gain=100.0))
        assert not amp.two_stage

    def test_two_stage_for_high_gain(self):
        amp = design_opamp(TECH, simple_spec(gain=2000.0))
        assert amp.two_stage
        assert amp.cc > 0
        assert amp.rz > 0

    def test_forced_two_stage(self):
        topo = OpAmpTopology(gain_stage=True)
        amp = design_opamp(TECH, simple_spec(gain=100.0), topo)
        assert amp.two_stage

    def test_nmos_diff_requires_stage2(self):
        topo = OpAmpTopology(diff_pair="nmos", gain_stage=False)
        with pytest.raises(EstimationError):
            design_opamp(TECH, simple_spec(), topo)

    def test_nmos_diff_auto_two_stage(self):
        topo = OpAmpTopology(diff_pair="nmos")
        amp = design_opamp(TECH, simple_spec(gain=100.0), topo)
        assert amp.two_stage

    def test_impossible_gain_rejected(self):
        with pytest.raises(EstimationError, match="two-stage limit"):
            design_opamp(TECH, simple_spec(gain=1e7))

    def test_estimate_meets_gain_spec(self):
        for gain in (50.0, 100.0, 200.0, 400.0, 1000.0):
            amp = design_opamp(TECH, simple_spec(gain=gain))
            assert amp.estimate.gain >= gain * 0.9

    def test_estimate_meets_ugf_spec(self):
        for ugf in (1e6, 3e6, 10e6):
            amp = design_opamp(TECH, simple_spec(ugf=ugf))
            assert amp.estimate.ugf >= ugf * 0.9

    def test_buffer_lowers_zout(self):
        plain = design_opamp(TECH, simple_spec())
        buffered = design_opamp(
            TECH, simple_spec(),
            OpAmpTopology(output_buffer=True, z_load=1e3),
        )
        assert buffered.estimate.zout < plain.estimate.zout / 50

    def test_wilson_tail_bigger_area_than_mirror(self):
        mirror = design_opamp(TECH, simple_spec())
        wilson = design_opamp(
            TECH, simple_spec(), OpAmpTopology(current_source="wilson")
        )
        tail_m = mirror.stages["tail_source"].gate_area
        tail_w = wilson.stages["tail_source"].gate_area
        assert tail_w > tail_m

    def test_power_accounts_all_branches(self):
        amp = design_opamp(TECH, simple_spec())
        assert amp.estimate.dc_power == pytest.approx(
            TECH.supply_span * amp.total_current()
        )

    def test_initial_point_contains_geometries(self):
        amp = design_opamp(TECH, simple_spec())
        point = amp.initial_point()
        assert any(k.endswith(".w") for k in point)
        assert any(k.endswith(".l") for k in point)
        assert all(v > 0 for v in point.values())

    def test_stage_lookup_error(self):
        amp = design_opamp(TECH, simple_spec(gain=100.0))
        with pytest.raises(EstimationError):
            amp.stage("warp_drive")

    def test_design_is_fast(self):
        # The paper: 10 op-amps estimated in 0.12 s total.
        import time

        start = time.time()
        for _ in range(10):
            design_opamp(TECH, simple_spec())
        assert time.time() - start < 1.0


class TestOpAmpVerification:
    """Est-vs-sim — the repository's miniature Table 3."""

    def test_single_stage_sim_matches_estimate(self):
        amp = design_opamp(TECH, simple_spec(gain=150.0, ugf=3e6))
        sim = verify_opamp(amp, measure_slew=False, measure_zout=False)
        assert sim["gain"] == pytest.approx(amp.estimate.gain, rel=0.15)
        assert sim["ugf"] == pytest.approx(amp.estimate.ugf, rel=0.35)
        assert sim["dc_power"] == pytest.approx(amp.estimate.dc_power, rel=0.2)

    def test_buffered_sim_matches_estimate(self):
        topo = OpAmpTopology(
            current_source="wilson", output_buffer=True, z_load=1e3
        )
        amp = design_opamp(TECH, simple_spec(gain=200.0, ugf=1.3e6), topo)
        sim = verify_opamp(amp, measure_zout=True, measure_slew=False)
        assert sim["gain"] == pytest.approx(amp.estimate.gain, rel=0.15)
        assert sim["zout"] == pytest.approx(amp.estimate.zout, rel=0.15)

    def test_two_stage_sim_matches_estimate(self):
        topo = OpAmpTopology(gain_stage=True)
        amp = design_opamp(TECH, simple_spec(gain=2000.0), topo)
        sim = verify_opamp(amp, measure_slew=False, measure_zout=False)
        assert sim["gain"] == pytest.approx(amp.estimate.gain, rel=0.25)
        assert sim["ugf"] == pytest.approx(amp.estimate.ugf, rel=0.6)

    def test_slew_rate_order_of_magnitude(self):
        amp = design_opamp(TECH, simple_spec(gain=150.0, ugf=3e6))
        sim = verify_opamp(amp, measure_slew=True, measure_zout=False)
        assert sim["slew_rate"] == pytest.approx(
            amp.estimate.slew_rate, rel=0.6
        )

    def test_unity_follower_tracks_input(self):
        amp = design_opamp(TECH, simple_spec(gain=150.0, ugf=3e6))
        bench = step_bench(amp, step=0.5, t_delay=1e-7)
        op = dc_operating_point(bench)
        # Before the step the follower output sits at the -0.25 V input.
        assert op.v("out") == pytest.approx(-0.25, abs=0.05)

    def test_balanced_offset_is_small(self):
        amp = design_opamp(TECH, simple_spec(gain=150.0))
        v_ofs, _, op = balanced_open_loop(amp)
        assert abs(v_ofs) < 0.05
        assert abs(op.v("out")) < 0.01

    def test_most_devices_saturated_at_balance(self):
        amp = design_opamp(TECH, simple_spec(gain=150.0))
        _, _, op = balanced_open_loop(amp)
        assert op.saturation_fraction() >= 0.8

    def test_open_loop_bench_modes(self):
        amp = design_opamp(TECH, simple_spec(gain=100.0))
        for mode in ("differential", "common", "none"):
            ckt = open_loop_bench(amp, ac_mode=mode)
            ckt.validate()

    def test_cmrr_simulation_strong(self):
        topo = OpAmpTopology(current_source="wilson")
        amp = design_opamp(TECH, simple_spec(gain=150.0), topo)
        sim = verify_opamp(
            amp, measure_slew=False, measure_zout=False, measure_cmrr=True
        )
        assert sim["cmrr"] > 300.0


class TestTable1Specs:
    """All ten paper Table 1 op-amps design and verify successfully."""

    TABLE1 = [
        ("oa0", 200, 1.3e6, 1e-6, "wilson", True, 1e3),
        ("oa3", 250, 8.0e6, 1e-6, "mirror", False, math.inf),
        ("oa6", 50, 10e6, 10e-6, "mirror", False, math.inf),
        ("oa9", 200, 5.0e6, 10e-6, "mirror", True, 10e3),
    ]

    @pytest.mark.parametrize("name,gain,ugf,ib,src,buff,z", TABLE1)
    def test_meets_spec_in_simulation(self, name, gain, ugf, ib, src, buff, z):
        spec = OpAmpSpec(gain=gain, ugf=ugf, ibias=ib, cl=10e-12)
        topo = OpAmpTopology(
            current_source=src, output_buffer=buff, z_load=z
        )
        amp = design_opamp(TECH, spec, topo, name=name)
        sim = verify_opamp(amp, measure_slew=False, measure_zout=False)
        assert sim["gain"] >= gain * 0.85
        assert sim["ugf"] >= ugf * 0.7


class TestBalancedOpenLoop:
    """The bordered balance on every paper Table 1 op-amp."""

    #: name, gain, ugf, area, ibias, current source, buffer, load
    TABLE1 = [
        ("oa0", 200, 1.3e6, 5000e-12, 1.0e-6, "wilson", True, 1e3),
        ("oa1", 70, 3.0e6, 3000e-12, 2.0e-6, "wilson", True, 1e3),
        ("oa2", 100, 2.5e6, 2000e-12, 1.5e-6, "wilson", True, 2e3),
        ("oa3", 250, 8.0e6, 1000e-12, 1.0e-6, "mirror", False, math.inf),
        ("oa4", 150, 3.0e6, 1000e-12, 100e-6, "mirror", False, math.inf),
        ("oa5", 200, 8.0e6, 5000e-12, 10e-6, "mirror", False, math.inf),
        ("oa6", 50, 10.0e6, 200e-12, 10e-6, "mirror", False, math.inf),
        ("oa7", 200, 3.0e6, 6000e-12, 1.0e-6, "mirror", True, 1e3),
        ("oa8", 100, 2.0e6, 1000e-12, 1.0e-6, "mirror", True, 10e3),
        ("oa9", 200, 5.0e6, 5000e-12, 10e-6, "mirror", True, 10e3),
    ]

    @pytest.mark.parametrize("mode", ["dense", "sparse"])
    @pytest.mark.parametrize("row", TABLE1, ids=[r[0] for r in TABLE1])
    def test_matches_a_tight_bisection(self, monkeypatch, row, mode):
        name, gain, ugf, area, ib, src, buff, z = row
        spec = OpAmpSpec(gain=gain, ugf=ugf, area=area, ibias=ib, cl=10e-12)
        topo = OpAmpTopology(
            current_source=src, output_buffer=buff, z_load=z
        )
        amp = design_opamp(TECH, spec, topo, name=name)
        solves = []
        original = analysis.dc_operating_point

        def counting(*args, **kwargs):
            solves.append(1)
            return original(*args, **kwargs)

        with solver_override(mode):
            monkeypatch.setattr(analysis, "dc_operating_point", counting)
            v_ofs, _, op = balanced_open_loop(amp)
            # Taken by the bordered solve: the zero-drive and polish
            # solves only, no bisection.
            assert len(solves) == 2
            assert abs(op.v("out")) <= 1e-9
            monkeypatch.setattr(
                analysis, "_bordered_offset", lambda *a, **k: None
            )
            v_ref, _, op_ref = analysis.balance_differential(
                lambda v: open_loop_bench(amp, v_diff=v),
                "out", v_span=0.5, tol=1e-9, max_bisections=60,
            )
        assert abs(op_ref.v("out")) <= 1e-9
        assert v_ofs == pytest.approx(v_ref, abs=1e-6)
