import functools
import hashlib
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import ks_2samp

from qjump import cli, core, mc, pde, stats
from qjump.core import JumpSemantics, ModelParams
from qjump.mc import Emissions

LITERAL = JumpSemantics.KOLMOGOROV_LITERAL
EMISSION = JumpSemantics.EMISSION_ONLY


class TestDeterminism:
    def test_same_source_same_trajectory(self):
        p = ModelParams(2.0, 1.0)
        r1 = mc.ensemble_records(p, LITERAL, 50.0, 7, 3)
        r2 = mc.ensemble_records(p, LITERAL, 50.0, np.int64(7), 3)
        assert np.array_equal(r1.times, r2.times)
        assert np.array_equal(r1.offsets, r2.offsets)

    def test_different_stream_differs(self):
        p = ModelParams(2.0, 1.0)
        r1 = mc.ensemble_records(p, LITERAL, 50.0, 7, 3)
        r2 = mc.ensemble_records(p, LITERAL, 50.0, 8, 3)
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
        for ensemble in (mc.ensemble_records, mc.ensemble_theta_at):
            with pytest.raises(ValueError, match=r"\bhorizon\b"):
                ensemble(p, LITERAL, horizon, 0, 4)

    @pytest.mark.parametrize("seed", [-1, 2.5, 3.0, "7"])
    def test_rejects_bad_seed(self, seed):
        p = ModelParams(2.0, 1.0)
        for ensemble in (mc.ensemble_records, mc.ensemble_theta_at):
            with pytest.raises(ValueError, match="seed"):
                ensemble(p, LITERAL, 5.0, seed, 4)

    # omega 5e-324 halves to 0, 1e-300 and 1e-3 thin against the weak-drive
    # majorant; a RuntimeWarning (0/0, overflow) is an error here
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=60, deadline=None)
    @given(
        entry=st.sampled_from(["ensemble_records", "ensemble_theta_at"]),
        semantics=st.sampled_from([LITERAL, EMISSION]),
        omega=st.sampled_from([0.0, 5e-324, 1e-300, 1e-3, 0.5, 3.33]),
        theta0=st.sampled_from([0.0, 0.7, -1.2]),
        # 1e8 and 1e300 put gamma * horizon * n past MAX_STEPS
        horizon=st.one_of(
            st.floats(-5.0, 20.0),
            st.sampled_from([math.nan, math.inf, -math.inf, 1e8, 1e300]),
        ),
        seed=st.one_of(st.integers(-3, 2**64), st.floats(-2.0, 2.0)),
        n=st.integers(1, 40),
    )
    def test_output_finite_or_named_error(
        self, entry, semantics, omega, theta0, horizon, seed, n
    ):
        p = ModelParams(omega, 1.0, theta0)
        bad = set()
        if not 0 < p.gamma * horizon * n <= core.MAX_STEPS:
            bad.add("horizon")
        if not (isinstance(seed, int) and seed >= 0):
            bad.add("seed")
        try:
            if entry == "ensemble_records":
                out = [mc.ensemble_records(p, semantics, horizon, seed, n).times]
            else:
                out = [mc.ensemble_theta_at(p, semantics, horizon, seed, n)]
        except ValueError as exc:
            named = [name for name in bad if re.search(rf"\b{name}\b", str(exc))]
            assert named, f"{exc!r} names none of {bad}"
            return
        assert not bad, f"accepted bad {bad}"
        assert all(np.all(np.isfinite(np.asarray(x, dtype=float))) for x in out)


class TestTrajectoryStructure:
    def test_tiny_gamma_pure_rabi_drift(self):
        p = ModelParams(2.0, 1e-9)
        rec = mc.ensemble_records(p, LITERAL, 10.0, 0, 1)
        assert rec.times.size == 0
        theta = mc.ensemble_theta_at(p, LITERAL, 0.7, 0, 1)
        # no jump: theta = omega t / 2 = 0.7, already in [-pi/2, pi/2)
        assert theta[0] == pytest.approx(0.7)

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
        assert all(np.shares_memory(rec.times, em.times) for rec in em if rec.times.size)
        # a view is its slice alone: the horizon is the table's
        assert em.t_end == 5.0 and next(iter(em))._fields == ("times",)
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
        assert [rec.times.tolist() for rec in em] == [[0.25, 3.0]]
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
        assert len(recs) == 2 * mc.BLOCK + 5 and recs.t_end == horizon
        assert sum(r.times.size for r in recs) > 0
        for r in recs:
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
        assert h.values.sum() * grid.cell_width == pytest.approx(1.0)
        peak = grid.cell_of(1.0)  # omega t / 2 at t = 1, with no jump
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


def n_lanes(p, horizon, n):
    """Renewal lanes per trajectory of a block of n, by the rule in mc's docstring."""
    if p.omega == 0:
        return 1
    return max(1, min(-(-mc.BLOCK // n), int(p.gamma * horizon // mc.LANE_SPAN)))


class CountingRng:
    """A Generator that counts the candidate events (exponential draws)."""

    def __init__(self, seed):
        self.rng, self.candidates = np.random.default_rng(seed), 0

    def exponential(self, size):
        self.candidates += size
        return self.rng.exponential(size=size)

    def random(self, size):
        return self.rng.random(size)


class TestRenewalLanes:
    # seeds fixed once; p > 1e-3 keeps a correct sampler's false alarms rare

    def test_emission_intervals_follow_waiting_time_law(self):
        p, horizon, n = ModelParams(3.33, 1.0), 4000.0, 6
        assert n_lanes(p, horizon, n) == 15
        recs = mc.ensemble_records(p, EMISSION, horizon, 2026, n)
        gaps = mc.interarrival_samples(recs, origin_anchored=True)
        assert gaps.size > 5000
        # core's closed form serves only as the oracle here
        rep = stats.ks_test(gaps, lambda x: core.waiting_time_cdf(x, p))
        assert rep.p_value > 1e-3

    def test_later_lanes_start_at_a_jump(self):
        # about ten cycles per lane: had a later lane started at theta0 and
        # not at 0, one gap in ten would be a short first-jump time
        p, horizon, n = ModelParams(0.05, 1.0, 1.2), 5120.0, 8
        assert n_lanes(p, horizon, n) == 20
        recs = mc.ensemble_records(p, EMISSION, horizon, 18, n)
        gaps = mc.interarrival_samples(recs)  # each starts at an emission
        assert gaps.size > 1000
        rep = stats.ks_test(gaps, lambda x: core.waiting_time_cdf(x, p))
        assert rep.p_value > 1e-3

    def test_literal_gaps_and_photon_rate_match_one_lane(self, monkeypatch):
        p, horizon, n = ModelParams(3.33, 1.0), 1500.0, 64
        assert n_lanes(p, horizon, n) == 5
        lanes = mc.ensemble_records(p, LITERAL, horizon, 12, n)
        monkeypatch.setattr(mc, "LANE_SPAN", math.inf)
        one = mc.ensemble_records(p, LITERAL, horizon, 13, n)
        gap_a, gap_b = mc.interarrival_samples(lanes), mc.interarrival_samples(one)
        assert min(gap_a.size, gap_b.size) > 5000
        assert ks_2samp(gap_a, gap_b).pvalue > 1e-3
        ca, cb = np.diff(lanes.offsets), np.diff(one.offsets)  # photons per trajectory
        se = math.sqrt(np.var(ca, ddof=1) / n + np.var(cb, ddof=1) / n)
        assert abs(ca.mean() - cb.mean()) < 4 * se

    def test_theta_at_with_theta0_matches_one_lane(self, monkeypatch):
        p, t, n = ModelParams(0.01, 1.0, -0.6), 600.0, 2000
        assert n_lanes(p, t, n) == 2
        lanes = mc.ensemble_theta_at(p, LITERAL, t, 14, n)
        monkeypatch.setattr(mc, "LANE_SPAN", math.inf)
        one = mc.ensemble_theta_at(p, LITERAL, t, 15, n)
        assert ks_2samp(lanes, one).pvalue > 1e-3

    @pytest.mark.parametrize("semantics", [LITERAL, EMISSION])
    def test_tiny_omega_censors_lanes_cheaply(self, semantics):
        # cycles far longer than the horizon: lanes after the first are cut
        # once they could only start past it, so the work stays a few times
        # that of one lane per trajectory instead of `lanes` times
        p, horizon, n = ModelParams(1e-6, 1.0), 5000.0, 3
        lanes = n_lanes(p, horizon, n)
        assert lanes == 19
        rng = CountingRng(16)
        times, counts, theta = mc._kernel(p, semantics, horizon, rng, n)
        assert rng.candidates < 8 * n * p.gamma * horizon
        # every segment starts at theta = 0 and is thinned against the weak-drive
        # majorant (59 380 and 59 324 candidates at the constant rate gamma)
        assert rng.candidates == {LITERAL: 57, EMISSION: 57}[semantics]
        assert np.all(np.isfinite(times)) and np.all(np.isfinite(theta))
        assert counts.shape == (n,) and counts.sum() == times.size
        assert np.all((-math.pi / 2 <= theta) & (theta < math.pi / 2))

    @pytest.mark.parametrize("semantics", [LITERAL, EMISSION])
    def test_long_simulate_is_consistent(self, semantics):
        p, horizon = ModelParams(3.0, 2.0, 0.4), 400.0
        assert n_lanes(p, horizon, 1) == 3
        times = mc.ensemble_records(p, semantics, horizon, 17, 1).times
        assert times.size > 100
        assert np.all(np.diff(times) > 0) and 0 < times[0] and times[-1] < horizon


def at_rate_gamma(monkeypatch):
    """Make the kernel thin every candidate at the constant rate gamma."""
    monkeypatch.setattr(mc, "_clock_step", lambda params, q: 0.0)


class TestWeakDriveMajorant:
    # below gamma, segments from theta = 0 are thinned against
    # gamma*min(1, y^2p); seeds fixed once, and p > 1e-3 as above

    @pytest.mark.parametrize("ratio", [1 / 6, 1 / 2])
    def test_emission_intervals_follow_waiting_time_law(self, ratio):
        # origin-anchored intervals, as in criterion 4
        p, horizon, n = ModelParams(ratio, 1.0), 3000.0, 16
        assert mc._clock_step(p, 5) > 0 and n_lanes(p, horizon, n) == 11
        recs = mc.ensemble_records(p, EMISSION, horizon, 2027, n)
        gaps = mc.interarrival_samples(recs, origin_anchored=True)
        assert gaps.size > 3000
        rep = stats.ks_test(gaps, lambda x: core.waiting_time_cdf(x, p))
        assert rep.p_value > 1e-3

    @pytest.mark.parametrize("ratio", [1 / 6, 1 / 2])
    def test_literal_gaps_match_rate_gamma(self, ratio, monkeypatch):
        p, horizon, n = ModelParams(ratio, 1.0), 3000.0, 16
        weak = mc.interarrival_samples(mc.ensemble_records(p, LITERAL, horizon, 21, n))
        at_rate_gamma(monkeypatch)
        flat = mc.interarrival_samples(mc.ensemble_records(p, LITERAL, horizon, 22, n))
        assert min(weak.size, flat.size) > 1000
        assert ks_2samp(weak, flat).pvalue > 1e-3

    @pytest.mark.parametrize("theta0, horizon", [(0.7, 4.0), (-1.2, 40.0)])
    def test_literal_angles_match_rate_gamma(self, theta0, horizon, monkeypatch):
        # lane 1 runs its theta0 segment at gamma, then resets onto the majorant
        p, n = ModelParams(0.5, 1.0, theta0), 20_000
        weak = mc.ensemble_theta_at(p, LITERAL, horizon, 23, n)
        at_rate_gamma(monkeypatch)
        flat = mc.ensemble_theta_at(p, LITERAL, horizon, 24, n)
        assert ks_2samp(weak, flat).pvalue > 1e-3

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("semantics", [LITERAL, EMISSION], ids=lambda s: s.name)
    def test_overflowing_reset_time_ends_the_lane(self, semantics):
        # omega/2 = 5e-321 and gamma = 1e-300: the first candidate after a
        # reset lies past the largest float, an infinite time past H
        p, horizon = ModelParams(1e-320, 1e-300, 0.7), 1e301
        rec = mc.ensemble_records(p, semantics, horizon, 3, 5)
        theta = mc.ensemble_theta_at(p, semantics, horizon, 3, 5)
        assert np.all(np.isfinite(rec.times)) and np.all(np.isfinite(theta))

    def test_panel_b_draws_under_a_quarter_of_the_candidates(self, monkeypatch):
        # the waiting_time benchmark's panel-b emission ensemble, one block
        p, horizon, n = ModelParams(1 / 6, 1.0), 40_000.0, 40
        weak, flat = CountingRng(7), CountingRng(7)
        mc._kernel(p, EMISSION, horizon, weak, n)
        at_rate_gamma(monkeypatch)
        mc._kernel(p, EMISSION, horizon, flat, n)
        assert flat.candidates > 0.9 * n * p.gamma * horizon
        assert weak.candidates <= flat.candidates / 4


# sha256 of the float64 bytes of (times, offsets, theta) and of a CLI file,
# recorded before renewal lanes existed: each of these runs has one lane
ONE_LANE_DIGESTS = {
    "criterion_2": "907cd02a63e304b8ab250e2a4a88819e013f1195fe05f9ec7065c14a8ca2a544",
    "criterion_4": "aa3b2ab4a04af020cdeb037260c275c819d9875ed284e2655bfed8f1ffd45de4",
    "criterion_6_n1000": "74258dcb072a89306cb13d585d263d82c3dbfeb426e5fb0d5444808f8fa14113",
    "cli_mc": "514f6c2ac9ce07554db205444e54f9a5e9fe3cb45af8f35032bcf58e401ab146",
}
ONE_LANE_RUNS = {
    "criterion_2": (ModelParams(0.0, 1.0, math.pi / 4), LITERAL, 30.0, 42, 100_000),
    "criterion_4": (ModelParams(3.33, 1.0), EMISSION, 300.0, 7, 100),
    "criterion_6_n1000": (ModelParams(3.33, 1.0), LITERAL, 5.0, 99, 1000),
}


def sha256_of(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


class TestOneLaneBitIdentity:
    @pytest.mark.parametrize("name", list(ONE_LANE_RUNS))
    def test_ensemble_unchanged(self, name):
        p, semantics, horizon, seed, n = ONE_LANE_RUNS[name]
        assert n_lanes(p, horizon, min(n, mc.BLOCK)) == 1
        rec = mc.ensemble_records(p, semantics, horizon, seed, n)
        theta = mc.ensemble_theta_at(p, semantics, horizon, seed, n)
        assert sha256_of(rec.times, rec.offsets, theta) == ONE_LANE_DIGESTS[name]

    def test_cli_mc_file_unchanged(self, tmp_path):
        out = tmp_path / "em.csv"
        argv = ["mc", "--n", "1000", "--horizon", "50", "--no-timestamp", "--out", str(out)]
        assert cli.main(argv) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == ONE_LANE_DIGESTS["cli_mc"]


# sha256 of the float64 bytes of (times, offsets, theta) of one short run per
# semantics with seven renewal lanes per trajectory, like the long emission
# runs behind the waiting-time checks: a kernel change that moves any draw of
# a lane run shows here
LANE_DIGESTS = {
    LITERAL: "40debad62565d1591a399a52f1ca336bc9568b80ba01010c27152c090f603ad5",
    EMISSION: "dea3d66a6fd34ac55ed78d94d8303692232de8b8443f333e4f3f1e674a1641ae",
}


@pytest.mark.parametrize("semantics", list(LANE_DIGESTS), ids=lambda s: s.name)
def test_lane_ensemble_unchanged(semantics):
    p, horizon, seed, n = ModelParams(3.33, 1.0), 2000.0, 11, 8
    assert n_lanes(p, horizon, n) == 7
    rec = mc.ensemble_records(p, semantics, horizon, seed, n)
    theta = mc.ensemble_theta_at(p, semantics, horizon, seed, n)
    assert sha256_of(rec.times, rec.offsets, theta) == LANE_DIGESTS[semantics]


# sha256 of the float64 bytes of (times, offsets, theta), recorded before the
# kernel's round loop was slimmed, for kernel paths no digest above covers:
# one lane in the first block and seven in the second; angles alone, which
# record no times, across a partial third block; and no lane ever active
KERNEL_DIGESTS = {
    ("two_blocks", LITERAL): "740457b8aa805c41825c29f243d90b0cf3fb35317810932a5664e63b331b4813",
    ("two_blocks", EMISSION): "16e90f94e54a7c59f3fa97b82609c9318c0e4b9dc4d877593146958ab05265df",
    ("angles_only", LITERAL): "c2e8ae082faa499dc71abf9ea8c05686072591468f4b6ccdf5d8e46a1428de27",
    ("angles_only", EMISSION): "3c102fb3462e3f85dc474b9b0bc1fe382a3255c02e3ed132e8aa7a601fa23f6d",
    ("idle", LITERAL): "10eef285deef7a4b7c82b22aa53589b7833df29de3814649c772bbd5c832f365",
    ("idle", EMISSION): "10eef285deef7a4b7c82b22aa53589b7833df29de3814649c772bbd5c832f365",
}


@pytest.mark.parametrize("semantics", [LITERAL, EMISSION], ids=lambda s: s.name)
class TestKernelBitIdentity:
    def test_one_lane_block_then_seven_lane_block(self, semantics):
        p, horizon, seed, n = ModelParams(3.33, 1.0), 2000.0, 11, mc.BLOCK + 8
        assert n_lanes(p, horizon, mc.BLOCK) == 1 and n_lanes(p, horizon, 8) == 7
        rec = mc.ensemble_records(p, semantics, horizon, seed, n)
        theta = mc.ensemble_theta_at(p, semantics, horizon, seed, n)
        digest = sha256_of(rec.times, rec.offsets, theta)
        assert digest == KERNEL_DIGESTS["two_blocks", semantics]

    def test_angles_only_across_a_partial_block(self, semantics):
        theta = mc.ensemble_theta_at(ModelParams(3.33, 1.0), semantics, 5.0, 99, 2 * mc.BLOCK + 5)
        assert sha256_of(theta) == KERNEL_DIGESTS["angles_only", semantics]

    def test_no_lane_ever_active(self, semantics):
        p, horizon, seed, n = ModelParams(0.0, 1.0, 0.0), 10.0, 3, 5
        rec = mc.ensemble_records(p, semantics, horizon, seed, n)
        theta = mc.ensemble_theta_at(p, semantics, horizon, seed, n)
        assert rec.times.size == 0 and np.all(theta == 0.0)
        assert sha256_of(rec.times, rec.offsets, theta) == KERNEL_DIGESTS["idle", semantics]


def traced_peak(call):
    """Peak bytes that tracemalloc sees numpy and Python allocate during call()."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# tracemalloc peaks, in bytes rounded up to 10 kB, of two ensembles before the
# kernel's round loop was slimmed: the waiting_time benchmark's panel-b
# emission ensemble (103 lanes per trajectory) and criterion 6's largest angle
# ensemble.  Each was measured on a second call in its process; a first call
# there peaked 0.8 MB higher.  A larger time buffer would show in the
# benchmark's peak resident memory.
PARENT_PEAKS = {"panel_b_records": 9.0e6, "theta_1e5": 6.05e6}


def test_memory_peaks_do_not_grow():
    panel_b = lambda: mc.ensemble_records(ModelParams(1.0 / 6.0, 1.0), EMISSION, 40_000.0, 7, 40)
    theta = lambda: mc.ensemble_theta_at(ModelParams(3.33, 1.0), LITERAL, 5.0, 99, 100_000)
    assert traced_peak(panel_b) <= PARENT_PEAKS["panel_b_records"]
    assert traced_peak(theta) <= PARENT_PEAKS["theta_1e5"]


def test_angle_block_keeps_no_time_buffer():
    # one block of criterion 6's angles, one lane, no times kept: the kernel
    # peaked at 6.49e5 bytes while it still allocated its (BLOCK, 4) time
    # buffer, 1.31e5 bytes, and at 5.18e5 without it
    p, semantics, horizon, seed = DUALITY_RUN
    call = lambda: mc._kernel(p, semantics, horizon, np.random.default_rng((seed, 0)),
                              mc.BLOCK, record=False)
    times, counts, theta = call()  # a first call in a process peaks higher
    assert times.size == 0 and not counts.any() and theta.size == mc.BLOCK
    assert traced_peak(call) <= 6.49e5 - mc.BLOCK * 4 * 8 // 2


# The waiting_time benchmark's emission ensembles (seed 7): omega, horizon and
# trajectories per panel; panel b holds 1.6e5 origin-anchored gaps
EMISSION_PANELS = {"a": (3.33, 10_000.0, 20), "b": (1.0 / 6.0, 40_000.0, 40)}
# recorded before lane stitching, the table check, the gaps and ks_test lost
# their per-event temporaries: float.hex of each panel's KS statistic and
# p-value on its origin-anchored gaps, sha256 of its gaps in both modes
# (origin_anchored False, True), and sha256 of (times, offsets, theta) of
# seven-lane blocks that end in trajectories with no emission
KS_HEX = {
    "a": ("0x1.2ca06cf222200p-8", "0x1.761239d2b5206p-4"),
    "b": ("0x1.6f946d2f1fb00p-10", "0x1.d2fb1e47f2564p-1"),
}
GAP_DIGESTS = {
    ("a", False): "8db2a110c2d4449d5322bcaa784193c16058a8c6e4425e55f2a41812f2e964fe",
    ("a", True): "455e6ad3f46f8f4dd25044b18a39e0bc69ab6b9d87a50be61b0e96505a5a66a5",
    ("b", False): "e216636124933acc0ad473e65241d81a7e7b38f7aaa4e460abd02a18bd52d5bf",
    ("b", True): "db2cd269a1d9bd8654ddd37e2f71c5c971d228cf50de10347d973ea5da00f5b8",
}
# (omega, semantics, seed, emissions per trajectory, digest), horizon 2000, n = 8
EMPTY_TAIL_RUNS = {
    "literal": (2e-3, LITERAL, 12, [2, 2, 1, 0, 0, 0, 0, 0],
                "88f7e9871c6b9f877f45179a59535df6e1c4f1d6466575097e800f918844cd39"),
    "emission": (2e-4, EMISSION, 3, [1, 1, 1, 0, 1, 0, 0, 0],
                 "ddda93e026386ad7b14eabcb796ac04ff36d412e943e57d3de864ec66a473c08"),
    # silent jumps move every angle, and no lane records an emission
    "silent_only": (2e-4, LITERAL, 0, [0] * 8,
                    "1c7fbf07205c27c0cdf9707e374635033a0bf6761a381de9cf47d47be8dae1a1"),
    # no lane jumps at all
    "no_jump": (1e-7, EMISSION, 5, [0] * 8,
                "2ad07b3b0cc961d0dd565358feb7cf47debfd6740908c554c898b7a397a3c2c1"),
}


@functools.lru_cache(maxsize=None)
def emission_panel(key):
    omega, horizon, n = EMISSION_PANELS[key]
    p = ModelParams(omega, 1.0)
    return p, mc.ensemble_records(p, EMISSION, horizon, 7, n)


class TestEmissionPathBitIdentity:
    @pytest.mark.parametrize("key", list(EMISSION_PANELS))
    def test_ks_report_unchanged(self, key):
        p, recs = emission_panel(key)
        gaps = mc.interarrival_samples(recs, origin_anchored=True)
        rep = stats.ks_test(gaps, lambda x: core.waiting_time_cdf(x, p))
        assert (rep.statistic.hex(), rep.p_value.hex()) == KS_HEX[key]

    @pytest.mark.parametrize("key, anchored", list(GAP_DIGESTS))
    def test_gaps_unchanged(self, key, anchored):
        gaps = mc.interarrival_samples(emission_panel(key)[1], origin_anchored=anchored)
        assert sha256_of(gaps) == GAP_DIGESTS[key, anchored]

    @pytest.mark.parametrize("name", list(EMPTY_TAIL_RUNS))
    def test_lane_block_ending_in_empty_trajectories(self, name):
        omega, semantics, seed, sizes, digest = EMPTY_TAIL_RUNS[name]
        p = ModelParams(omega, 1.0)
        assert n_lanes(p, 2000.0, 8) == 7
        rec = mc.ensemble_records(p, semantics, 2000.0, seed, 8)
        theta = mc.ensemble_theta_at(p, semantics, 2000.0, seed, 8)
        assert np.diff(rec.offsets).tolist() == sizes
        assert sha256_of(rec.times, rec.offsets, theta) == digest


def test_ks_test_sorts_a_copy_of_unsorted_samples():
    p, recs = emission_panel("a")
    gaps = mc.interarrival_samples(recs, origin_anchored=True)
    shuffled = np.random.default_rng(3).permutation(gaps)
    before = shuffled.copy()
    rep = stats.ks_test(shuffled, lambda x: core.waiting_time_cdf(x, p))
    assert (rep.statistic.hex(), rep.p_value.hex()) == KS_HEX["a"]
    assert np.array_equal(shuffled, before)


# tracemalloc peaks, measured on a second call in the process (a first call
# there peaks higher): the panel-b emission ensemble read
# 6.87e6 bytes before lane stitching lost its per-event temporaries and 4.85e6
# after, where the doubling time buffer sets it; ks_test read 6.63e6 and
# 0.79e6, and the gaps 2.72e6 and 1.28e6 (one copy of the times)
def test_emission_path_memory():
    p, recs = emission_panel("b")
    run = lambda: mc.ensemble_records(p, EMISSION, 40_000.0, 7, 40)
    run()
    assert traced_peak(run) <= 5.2e6
    gaps = mc.interarrival_samples(recs, origin_anchored=True)
    assert gaps.size > 1.5e5
    extra = 64e3  # small arrays: one entry per trajectory, array headers
    assert traced_peak(lambda: mc.interarrival_samples(recs, origin_anchored=True)) <= (
        gaps.nbytes + extra
    )
    cdf = lambda x: core.waiting_time_cdf(x, p)
    # sorted samples are not copied, and the cdf sees a chunk at a time
    assert traced_peak(lambda: stats.ks_test(gaps, cdf)) < gaps.nbytes


# Criterion 2's no-pump ensemble and criterion 6's duality ensembles, with
# their acceptance seeds
NO_PUMP_RUN = (ModelParams(0.0, 1.0, math.pi / 4), LITERAL, 30.0, 42, 100_000)
DUALITY_RUN = (ModelParams(3.33, 1.0), LITERAL, 5.0, 99)
# recorded before the ensembles' outputs were allocated once and filled block
# by block: sha256 of criterion 2's (times, offsets) and float.hex of its
# ever-emitted fraction; sha256 of criterion 6's angles and of their 128-cell
# histogram at each n; and, for runs of 2 * BLOCK + 5 trajectories (omega =
# 3.33, horizon 15, seed 4) whose last block is partial, sha256 of (times,
# offsets), of the angles and of their histogram, and the fraction's float.hex
FILL_DIGESTS = {
    "no_pump": "8ccddb63a7b65a6614cfcb4ed6cb16d6d28a9005782f2c7e83a6e254549af202",
    ("duality", 1_000): ("fec1eef234c189385b99436a92e4fc435bab69b9d38f2da56765a013fdaf50dc",
                         "bd0d21c8bad67ab46aee2605eb08f75f1a13d95982dacfccd8c7ca6a0da7ae6b"),
    ("duality", 10_000): ("8feb888d9a46ea25a87e62e89a0040cdcb8719375de35fda15f8ebf272dcc4fb",
                          "5d5f10e702c878f0e2432e51388767a6e4315fbf9440db5ecf1043fc50fce21d"),
    ("duality", 100_000): ("1a98adca54a9f0dc85a636f6769a46de074556fee6d664ece567b8e2a10f0e0d",
                           "2c8c6e5d7e80e03a5ca23e2e3c3b9adc3e8deb16f6a41947f3d5afb7d156555f"),
    ("partial", LITERAL): (
        "1e28a645800de7a665008a4c3847fb42b59774f7a5c2117862be99c81f5d7ecf",
        "b025f24636893f3dce71087c203164c41c5a60edd3ca01eb4140b196268b0cb8",
        "a932fd63cc1593af93a9fa0a0038fc63f1c2e5250c2b6f1287a89df185036d1f",
    ),
    ("partial", EMISSION): (
        "601de4a1a3e142e3ad6b06c2ba197fb2358b5266a77c98472b28735a900f4da6",
        "066017d7ef8044ec8e61ee5c692c28b24198484780b680991d0edc1a1683c853",
        "6b33ce8770e786b04d00a3e72eaaaf102af7481e5aec824a12c244a3b15cdf2c",
    ),
}
FILL_HEX = {
    "no_pump": "0x1.002c9081c2e34p-1",
    ("partial", LITERAL): "0x1.fe90397705672p-1",
    ("partial", EMISSION): "0x1.fe803bf6a176cp-1",
}


class TestBlockFillBitIdentity:
    def test_no_pump_table_unchanged(self):
        rec = mc.ensemble_records(*NO_PUMP_RUN)
        assert sha256_of(rec.times, rec.offsets) == FILL_DIGESTS["no_pump"]
        assert mc.ever_emitted_fraction(rec).hex() == FILL_HEX["no_pump"]

    @pytest.mark.parametrize("n", [1_000, 10_000, 100_000])
    def test_duality_angles_unchanged(self, n):
        theta = mc.ensemble_theta_at(*DUALITY_RUN, n)
        hist = mc.histogram_from_angles(theta, pde.ThetaGrid(128))
        assert (sha256_of(theta), sha256_of(hist.values)) == FILL_DIGESTS["duality", n]

    @pytest.mark.parametrize("semantics", [LITERAL, EMISSION], ids=lambda s: s.name)
    def test_partial_last_block_unchanged(self, semantics):
        run = (ModelParams(3.33, 1.0), semantics, 15.0, 4, 2 * mc.BLOCK + 5)
        rec = mc.ensemble_records(*run)
        theta = mc.ensemble_theta_at(*run)
        hist = mc.histogram_from_angles(theta, pde.ThetaGrid(128))
        digests = sha256_of(rec.times, rec.offsets), sha256_of(theta), sha256_of(hist.values)
        assert digests == FILL_DIGESTS["partial", semantics]
        assert mc.ever_emitted_fraction(rec).hex() == FILL_HEX["partial", semantics]


class TestBlockFill:
    """Each block's kernel output lands in its own slice of the ensemble's."""

    @pytest.mark.parametrize("semantics", [LITERAL, EMISSION], ids=lambda s: s.name)
    def test_outputs_are_the_blocks_in_order(self, semantics):
        p, horizon, seed, n = ModelParams(3.33, 1.0), 15.0, 4, 2 * mc.BLOCK + 5

        def joined_blocks(record):  # block b draws from stream (seed, b)
            blocks = [
                mc._kernel(p, semantics, horizon, np.random.default_rng((seed, b)), m, record)
                for b, m in enumerate([mc.BLOCK, mc.BLOCK, 5])
            ]
            return [np.concatenate(column) for column in zip(*blocks)]

        times, counts, _ = joined_blocks(True)
        rec = mc.ensemble_records(p, semantics, horizon, seed, n)
        assert np.array_equal(rec.times, times)
        assert rec.offsets[0] == 0 and np.array_equal(np.diff(rec.offsets), counts)
        assert mc.ever_emitted_fraction(rec) == np.count_nonzero(counts) / n
        theta = mc.ensemble_theta_at(p, semantics, horizon, seed, n)
        assert np.array_equal(theta, joined_blocks(False)[2])

    @pytest.mark.parametrize("n", [1, mc.BLOCK, mc.BLOCK + 1, 3 * mc.BLOCK - 7])
    def test_histogram_sums_its_chunks(self, n):
        grid = pde.ThetaGrid(128)
        angles = np.random.default_rng(n).uniform(-10.0, 10.0, n)
        whole = np.bincount(grid.cell_of(angles), minlength=grid.n_cells)
        hist = mc.histogram_from_angles(angles, grid)
        assert np.array_equal(hist.values, whole / (n * grid.cell_width))

    def test_histogram_checks_every_chunk(self):
        angles = np.zeros(2 * mc.BLOCK + 3)
        angles[-1] = math.nan
        with pytest.raises(ValueError, match="angles"):
            mc.histogram_from_angles(angles, pde.ThetaGrid(64))

    def test_histogram_refuses_a_table_of_angles(self):
        with pytest.raises(ValueError, match="angles"):
            mc.histogram_from_angles(np.zeros((2, 3)), pde.ThetaGrid(64))


def block_bounded_peak(call, n):
    """tracemalloc peaks of call(n) and of call(BLOCK), each on a second call."""
    call(n), call(mc.BLOCK)
    return traced_peak(lambda: call(n)), traced_peak(lambda: call(mc.BLOCK))


class TestOutputSizedMemory:
    """An ensemble's peak is its output plus one block of temporaries.

    One block of temporaries is the peak of the same call on one block,
    output included.  Before the outputs were filled in place, criterion 2's
    table peaked at 4.03e6 bytes for 1.2e6 of output, criterion 6's 1e5
    angles at 3.23e6 for 8e5, and their histogram at 1.6e6."""

    def test_no_pump_records(self):
        p, semantics, horizon, seed, n = NO_PUMP_RUN
        call = lambda m: mc.ensemble_records(p, semantics, horizon, seed, m)
        peak, block = block_bounded_peak(call, n)
        rec = call(n)
        # the join of the blocks' times (4e5 bytes) stays below a block's peak
        assert peak <= rec.times.nbytes + rec.offsets.nbytes + block

    def test_duality_angles(self):
        call = lambda m: mc.ensemble_theta_at(*DUALITY_RUN, m)
        peak, block = block_bounded_peak(call, 100_000)
        assert peak <= call(100_000).nbytes + block

    def test_duality_histogram(self):
        grid = pde.ThetaGrid(128)
        theta = mc.ensemble_theta_at(*DUALITY_RUN, 100_000)
        call = lambda m: mc.histogram_from_angles(theta[:m], grid)
        peak, block = block_bounded_peak(call, theta.size)
        assert peak <= call(theta.size).values.nbytes + block
