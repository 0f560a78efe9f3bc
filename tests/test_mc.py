import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qjump import core, mc, pde, stats
from qjump.core import JumpSemantics, ModelParams
from qjump.mc import Emissions, SeededSource

LITERAL = JumpSemantics.KOLMOGOROV_LITERAL
EMISSION = JumpSemantics.EMISSION_ONLY


class TestDeterminism:
    def test_same_source_same_trajectory(self):
        p = ModelParams(2.0, 1.0)
        j1, r1 = mc.simulate(p, LITERAL, 50.0, SeededSource(7, 3))
        j2, r2 = mc.simulate(p, LITERAL, 50.0, SeededSource(7, 3))
        assert j1 == j2
        assert np.array_equal(r1.times, r2.times)

    def test_different_stream_differs(self):
        p = ModelParams(2.0, 1.0)
        _, r1 = mc.simulate(p, LITERAL, 50.0, SeededSource(7, 0))
        _, r2 = mc.simulate(p, LITERAL, 50.0, SeededSource(7, 1))
        assert not np.array_equal(r1.times, r2.times)


class TestEnsembleInputs:
    @pytest.mark.parametrize("n", [0, -3])
    @pytest.mark.parametrize("ensemble", [mc.ensemble_records, mc.ensemble_theta_at])
    def test_rejects_empty_ensemble(self, ensemble, n):
        with pytest.raises(ValueError, match=r"\bn\b"):
            ensemble(ModelParams(2.0, 1.0), LITERAL, 5.0, 0, n)

    @pytest.mark.parametrize("horizon", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_rejects_bad_horizon(self, horizon):
        p = ModelParams(2.0, 1.0)
        with pytest.raises(ValueError, match="horizon"):
            mc.simulate(p, LITERAL, horizon, SeededSource(0))
        with pytest.raises(ValueError, match="horizon"):
            mc.ensemble_records(p, LITERAL, horizon, 0, 4)
        with pytest.raises(ValueError, match=r"\bt\b"):
            mc.ensemble_theta_at(p, LITERAL, horizon, 0, 4)

    @pytest.mark.parametrize("seed", [-1, 2.5, 3.0, "7"])
    def test_rejects_bad_seed(self, seed):
        p = ModelParams(2.0, 1.0)
        with pytest.raises(ValueError, match="seed"):
            mc.simulate(p, LITERAL, 5.0, SeededSource(seed))
        for ensemble in (mc.ensemble_records, mc.ensemble_theta_at):
            with pytest.raises(ValueError, match="seed"):
                ensemble(p, LITERAL, 5.0, seed, 4)

    @settings(max_examples=60, deadline=None)
    @given(
        entry=st.sampled_from(["simulate", "ensemble_records", "ensemble_theta_at"]),
        omega=st.sampled_from([0.0, 0.5, 3.33]),
        theta0=st.sampled_from([0.0, 0.7]),
        horizon=st.one_of(
            st.floats(-5.0, 20.0), st.sampled_from([math.nan, math.inf, -math.inf])
        ),
        seed=st.one_of(st.integers(-3, 2**64), st.floats(-2.0, 2.0)),
        n=st.integers(1, 40),
    )
    def test_output_finite_or_named_error(self, entry, omega, theta0, horizon, seed, n):
        p = ModelParams(omega, 1.0, theta0)
        time_name = "t" if entry == "ensemble_theta_at" else "horizon"
        bad = set()
        if not (math.isfinite(horizon) and horizon > 0):
            bad.add(time_name)
        if not (isinstance(seed, int) and seed >= 0):
            bad.add("seed")
        try:
            if entry == "simulate":
                jumps, rec = mc.simulate(p, EMISSION, horizon, SeededSource(seed, n))
                out = [rec.times, [t for t, _, _ in jumps]]
            elif entry == "ensemble_records":
                out = [mc.ensemble_records(p, LITERAL, horizon, seed, n).times]
            else:
                out = [mc.ensemble_theta_at(p, LITERAL, horizon, seed, n)]
        except ValueError as exc:
            named = [name for name in bad if re.search(rf"\b{name}\b", str(exc))]
            assert named, f"{exc!r} names none of {bad}"
            return
        assert not bad, f"accepted bad {bad}"
        assert all(np.all(np.isfinite(np.asarray(x, dtype=float))) for x in out)


class TestTrajectoryStructure:
    def test_tiny_gamma_pure_rabi_drift(self):
        p = ModelParams(2.0, 1e-9)
        jumps, rec = mc.simulate(p, LITERAL, 10.0, SeededSource(0))
        assert rec.times.size == 0
        assert jumps == []
        theta = mc.ensemble_theta_at(p, LITERAL, 0.7, 0, 1)
        assert theta[0] == pytest.approx(core.drift_angle(0.7, p, 0.0))

    def test_jump_times_strictly_increasing(self):
        p = ModelParams(3.0, 2.0)
        jumps, _ = mc.simulate(p, LITERAL, 100.0, SeededSource(1))
        times = [t for t, _, _ in jumps]
        assert all(a < b for a, b in zip(times, times[1:]))

    def test_emissions_subset_of_jumps(self):
        p = ModelParams(3.0, 2.0)
        jumps, rec = mc.simulate(p, LITERAL, 100.0, SeededSource(2))
        emitted = [t for t, _, e in jumps if e]
        assert np.array_equal(rec.times, emitted)

    def test_record_validation(self):
        with pytest.raises(ValueError):
            Emissions([2.0, 1.0], [0, 2], 10.0)
        with pytest.raises(ValueError):
            Emissions([1.0, 20.0], [0, 2], 10.0)


class TestEmissionsTable:
    # trajectories: [], [1, 2], [], [0.5, 4], []; 2.0 -> 0.5 crosses a boundary
    TIMES, OFFSETS = [1.0, 2.0, 0.5, 4.0], [0, 0, 2, 2, 4, 4]

    def test_empty_trajectories_first_middle_and_last(self):
        em = Emissions(self.TIMES, self.OFFSETS, 5.0)
        assert len(em) == 5
        views = [rec.times.tolist() for rec in em]
        assert views == [[], [1.0, 2.0], [], [0.5, 4.0], []]
        assert [em[i].times.tolist() for i in range(-5, 5)] == views * 2
        assert all(rec.t_end == 5.0 for rec in em)
        with pytest.raises(IndexError):
            em[5]
        assert mc.ever_emitted_fraction(em) == 2 / 5
        assert type(mc.ever_emitted_fraction(em)) is float

    def test_interarrivals_skip_boundaries(self):
        em = Emissions(self.TIMES, self.OFFSETS, 5.0)
        assert np.array_equal(mc.interarrival_samples(em), [1.0, 3.5])
        assert np.array_equal(
            mc.interarrival_samples(em, origin_anchored=True), [0.5, 1.0, 1.0, 3.5]
        )

    def test_one_trajectory(self):
        em = Emissions([0.25, 3.0], [0, 2], 3.0)
        assert len(em) == 1
        assert em[0].times.tolist() == [0.25, 3.0]
        assert np.array_equal(mc.interarrival_samples(em), [2.75])
        assert mc.ever_emitted_fraction(em) == 1.0

    @pytest.mark.parametrize(
        "times, offsets",
        [
            ([1.0, 1.0], [0, 2]),  # equal pair within a trajectory
            ([0.5, 2.0, 1.0], [0, 1, 3]),  # decrease within the second
            ([1.0, 6.0], [0, 1, 2]),  # beyond t_end
            ([0.0], [0, 1]),  # not after the start
            ([math.nan], [0, 1]),
            ([1.0, 2.0], [0, 3]),  # offsets past the times
            ([1.0, 2.0], [1, 2]),  # offsets not from 0
            ([1.0, 2.0], [0, 2, 1, 2]),  # offsets decrease
            ([], []),
        ],
    )
    def test_validation_rejects(self, times, offsets):
        with pytest.raises(ValueError):
            Emissions(times, offsets, 5.0)

    def test_summaries_match_per_trajectory_loop(self):
        em = mc.ensemble_records(ModelParams(3.33, 1.0), LITERAL, 8.0, 6, 300)
        pooled, anchored = [], []
        for rec in em:
            if rec.times.size:
                anchored.append(rec.times[0])
            pooled.extend(np.diff(rec.times))
        assert len(pooled) > 100
        assert np.array_equal(mc.interarrival_samples(em), np.sort(pooled))
        assert np.array_equal(
            mc.interarrival_samples(em, origin_anchored=True),
            np.sort(pooled + anchored),
        )
        assert mc.ever_emitted_fraction(em) == len(anchored) / 300


class TestNoPump:
    def test_emission_probability(self):
        p = ModelParams(0.0, 1.0, math.pi / 4)
        recs = mc.ensemble_records(p, LITERAL, 30.0, 11, 20000)
        frac = mc.ever_emitted_fraction(recs)
        sigma = math.sqrt(0.25 / 20000)
        assert abs(frac - 0.5) < 3 * sigma

    def test_excited_population_decay(self):
        p = ModelParams(0.0, 1.0, math.pi / 4)
        for t in [0.5, 2.0, 5.0]:
            th = mc.ensemble_theta_at(p, LITERAL, t, 13, 20000)
            est = float(np.mean(np.sin(th) ** 2))
            exact = core.no_pump_excited_population(t, p)
            assert est == pytest.approx(exact, abs=0.01)

    def test_constant_hazard_first_jump_exponential(self):
        # theta frozen at theta0 until the jump: first-jump times are
        # exponential with rate gamma*sin^2(theta0)
        p = ModelParams(0.0, 2.0, math.pi / 3)
        recs = mc.ensemble_records(p, EMISSION, 60.0, 17, 4000)
        firsts = np.array([r.times[0] for r in recs if r.times.size])
        rate = core.emission_intensity(p.theta0, p.gamma)
        rep = stats.ks_test(firsts, lambda x: 1.0 - np.exp(-rate * x))
        assert not rep.reject_at_1pct


class TestBlockLayout:
    def test_first_emission_law_across_blocks(self):
        # one full block and a block of one: the pooled first-emission times
        # follow 1 - exp(-gamma int_0^t sin^4), conditioned on the horizon
        p = ModelParams(3.33, 1.0)
        horizon = 20.0
        recs = mc.ensemble_records(p, EMISSION, horizon, 3, mc.BLOCK + 1)
        firsts = np.array([r.times[0] for r in recs if r.times.size])
        assert firsts.size > 0.99 * len(recs)

        def cdf(x):
            hazard = lambda t: p.gamma * core.intensity_integral(t, p.omega)
            return -np.expm1(-hazard(x)) / -np.expm1(-hazard(horizon))

        assert not stats.ks_test(firsts, cdf).reject_at_1pct

    def test_multi_block_records_keep_the_contract(self):
        p = ModelParams(3.33, 1.0)
        horizon = 15.0
        recs = mc.ensemble_records(p, LITERAL, horizon, 4, 2 * mc.BLOCK + 5)
        assert len(recs) == 2 * mc.BLOCK + 5
        assert sum(r.times.size for r in recs) > 0
        for r in recs:
            assert r.t_end == horizon
            assert np.all(np.diff(r.times) > 0)
            assert np.all((r.times > 0) & (r.times <= horizon))


class TestInterarrivals:
    def test_pooling(self):
        rec = Emissions([1.0, 3.0, 6.0], [0, 3], 10.0)
        assert np.array_equal(mc.interarrival_samples(rec), [2.0, 3.0])
        assert np.array_equal(
            mc.interarrival_samples(rec, origin_anchored=True), [1.0, 2.0, 3.0]
        )

    def test_empty_record(self):
        rec = Emissions([], [0, 0], 10.0)
        assert mc.interarrival_samples(rec).size == 0
        assert mc.interarrival_samples(rec, origin_anchored=True).size == 0
        assert mc.ever_emitted_fraction(rec) == 0.0

    def test_emission_only_matches_analytic_law(self):
        p = ModelParams(3.33, 1.0)
        recs = mc.ensemble_records(p, EMISSION, 100.0, 23, 60)
        gaps = mc.interarrival_samples(recs, origin_anchored=True)
        assert gaps.size > 1000
        rep = stats.ks_test(gaps, lambda x: core.waiting_time_cdf(x, p))
        assert not rep.reject_at_1pct


class TestHistograms:
    def test_single_trajectory_delta(self):
        p = ModelParams(2.0, 1e-9)
        grid = pde.ThetaGrid(64)
        theta = mc.ensemble_theta_at(p, LITERAL, 1.0, 0, 1)
        h = mc.histogram_from_angles(theta, grid)
        assert h.total_mass() == pytest.approx(1.0)
        peak = grid.cell_of(core.drift_angle(1.0, p, 0.0))
        assert h.values[peak] > 0

    def test_t0_reproduces_initial_condition(self):
        p = ModelParams(2.0, 1.0, 0.3)
        grid = pde.ThetaGrid(64)
        # no jump is drawn in 1e-12 time units: every angle is still theta0
        theta = mc.ensemble_theta_at(p, LITERAL, 1e-12, 0, 10)
        h = mc.histogram_from_angles(theta, grid)
        assert h.values[grid.cell_of(0.3)] * grid.cell_width == pytest.approx(1.0)

    def test_empty_ensemble_raises(self):
        with pytest.raises(ValueError):
            mc.histogram_from_angles(np.array([]), pde.ThetaGrid(64))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_angles_rejected(self, bad):
        with pytest.raises(ValueError, match="angles"):
            mc.histogram_from_angles(np.array([bad, 0.1]), pde.ThetaGrid(64))

    def test_matches_pde_snapshot(self):
        p = ModelParams(3.33, 1.0)
        grid = pde.ThetaGrid(64)
        t_end = 3.0
        dt0 = grid.cell_width / (0.5 * p.omega)
        n = int(np.ceil(t_end / dt0))
        r = pde.solve(p, grid, t_end, t_end / n, snapshot_stride=n)
        th = mc.ensemble_theta_at(p, LITERAL, t_end, 31, 20000)
        h = mc.histogram_from_angles(th, grid)
        l1 = float(np.sum(np.abs(h.values - r.final.values)) * grid.cell_width)
        assert l1 < 0.1


class TestEmissionRateIdentity:
    def test_photon_intensity_estimates_mean_sin4(self):
        # empirical photon rate in a window around t estimates
        # gamma * <sin^4 theta> over the ensemble law at t
        p = ModelParams(3.33, 1.0)
        t, w, n = 4.0, 0.5, 20000
        recs = mc.ensemble_records(p, LITERAL, t + w, 37, n)
        counts = np.sum((recs.times >= t) & (recs.times < t + w))
        th = mc.ensemble_theta_at(p, LITERAL, t + 0.5 * w, 41, n)
        predicted = float(np.mean(core.emission_intensity(th, p.gamma)))
        assert counts / (n * w) == pytest.approx(predicted, rel=0.1)
