import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaowork import analysis, characteristic, classical, potential, sampler, spectra
from chaowork.analysis import (
    DegenerateMean,
    jarzynski_from_characteristic,
    jarzynski_from_samples,
    l1_distance,
    l1_distance_error,
)
from chaowork.characteristic import plan_from_window
from chaowork.spectra import GridMismatch, dual_w_grid, spikes_to_histogram


def histogram_from_values(values, w_lo, w_hi, n_u=64, eps_bins=2.0):
    plan = plan_from_window(w_lo, w_hi, n_u=n_u)
    w, dw = dual_w_grid(plan.u_values, plan.w_center)
    n = len(values)
    return spikes_to_histogram(values, np.full(n, 1.0 / n), w, eps_bins * dw, sample_count=n)


class TestJarzynskiFromSamples:
    def test_constant_work_exact(self):
        est, se = jarzynski_from_samples(np.full(100, 3.7), beta=0.8)
        assert est == pytest.approx(3.7, abs=1e-13)
        assert se == 0.0

    def test_high_temperature_limit_is_sample_mean(self, rng):
        w = rng.normal(size=20_000)  # order-one work values
        est, _ = jarzynski_from_samples(w, beta=1e-8)
        assert est == pytest.approx(w.mean(), abs=1e-6)

    def test_against_quadrature_reference(self, geom, pot):
        beta = 2.0**-10
        s = classical.sample_classical_work(geom, pot, beta, 400_000, seed=13)
        est, se = jarzynski_from_samples(s.values, beta)
        ref = classical.classical_free_energy_difference(geom, pot, beta)
        assert abs(est - ref) < 3 * se

    def test_permutation_invariance(self, rng):
        w = rng.normal(size=500)
        a, _ = jarzynski_from_samples(w, 0.3)
        b, _ = jarzynski_from_samples(w[::-1].copy(), 0.3)
        assert a == pytest.approx(b, abs=1e-12)

    def test_batch_merge_invariance(self, rng):
        # The mean of exp(-beta W) is exactly batch-mergeable.
        w = rng.normal(size=1000)
        whole, _ = jarzynski_from_samples(w, 0.5)
        m1 = np.exp(-0.5 * w[:400]).mean()
        m2 = np.exp(-0.5 * w[400:]).mean()
        merged = -math.log((400 * m1 + 600 * m2) / 1000) / 0.5
        assert whole == pytest.approx(merged, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            jarzynski_from_samples(np.array([]), 1.0)


class TestJarzynskiFromCharacteristic:
    def test_unit_g_gives_zero(self):
        plan = plan_from_window(-8.0, 8.0, n_u=64)
        u = plan.u_values
        g = characteristic.CharacteristicGrid(
            u_values=u,
            g_values=np.ones(u.size, dtype=complex),
            stderr_re=np.zeros(u.size),
            stderr_im=np.zeros(u.size),
            n_samples=0,
            hbar=1.0,
            beta=1.0,
            w_center=plan.w_center,
        )
        est, _ = jarzynski_from_characteristic(g, beta=0.05)
        assert est == pytest.approx(0.0, abs=1e-8)

    def test_consistent_with_direct_samples_in_classical_regime(self, geom, pot):
        # At small hbar the inverted histogram estimates the same functional
        # as the direct classical sample average over the same ensemble.
        beta = 2.0**-10
        ens = sampler.sample_ensemble(geom, beta, 30_000, seed=21)
        plan = characteristic.plan_u_grid(geom, pot, seed=21, n_u=512)
        [g] = characteristic.semiclassical_characteristic(
            [characteristic.Request(ens, plan, 0.02)], geom, pot
        )
        est_hist, se_hist = jarzynski_from_characteristic(g, beta)
        w_direct = pot.delta_xi * potential.evaluate(pot, ens.qs)
        est_direct, se_direct = jarzynski_from_samples(w_direct, beta)
        assert abs(est_hist - est_direct) < 3 * math.hypot(se_hist, se_direct) + 1e-3

    def test_covariance_route_matches_histogram_sum(self, geom, pot):
        # With phase second moments collected, the estimate is assembled as a
        # linear functional of G; it must equal the plain histogram sum, and
        # its error must not exceed the independent-bin overestimate.
        beta = 2.0**-9
        plan = characteristic.plan_u_grid(geom, pot, seed=99, n_u=64)
        ens = sampler.sample_ensemble(geom, beta, 4000, seed=99)
        [g] = characteristic.semiclassical_characteristic(
            [characteristic.Request(ens, plan, 1.0, collect_covariance=True)], geom, pot
        )
        est_cov, se_cov = jarzynski_from_characteristic(g, beta)
        est_hist, se_hist = jarzynski_from_characteristic(spectra.invert(g), beta)
        assert est_cov == est_hist
        assert 0.0 < se_cov < se_hist

    def test_broadening_bias_removed(self, rng):
        # A pure Gaussian work distribution has a closed-form free energy;
        # the histogram route must not inherit the broadening inflation.
        mu, sd, beta = 1.5, 2.0, 0.3
        w = rng.normal(mu, sd, size=400_000)
        hist = histogram_from_values(w, -12.0, 14.0, n_u=256, eps_bins=4.0)
        est, se = jarzynski_from_characteristic(hist, beta)
        exact = mu - beta * sd * sd / 2.0
        assert abs(est - exact) < 4 * se + 2e-3

    def test_degenerate_histogram_rejected(self):
        plan = plan_from_window(-4.0, 4.0, n_u=16)
        w, dw = dual_w_grid(plan.u_values, plan.w_center)
        hist = spectra.WorkHistogram(
            w_values=w,
            density=np.zeros_like(w),
            error=np.zeros_like(w),
            bin_width=dw,
            broadening=0.0,
            total_mass=0.0,
        )
        with pytest.raises(DegenerateMean):
            jarzynski_from_characteristic(hist, 1.0)


class TestL1Distance:
    def test_identical_is_zero(self, rng):
        h = histogram_from_values(rng.normal(size=1000), -6.0, 6.0)
        assert l1_distance(h, h) == 0.0

    def test_disjoint_spikes_give_two(self):
        plan = plan_from_window(-30.0, 30.0, n_u=256)
        w, dw = dual_w_grid(plan.u_values, plan.w_center)
        a = spikes_to_histogram([-15.0], [1.0], w, 2.0 * dw)
        b = spikes_to_histogram([15.0], [1.0], w, 2.0 * dw)
        assert l1_distance(a, b) == pytest.approx(2.0, abs=1e-9)

    def test_grid_mismatch_rejected(self, rng):
        a = histogram_from_values(rng.normal(size=100), -6.0, 6.0, n_u=64)
        b = histogram_from_values(rng.normal(size=100), -6.0, 6.0, n_u=32)
        with pytest.raises(GridMismatch):
            l1_distance(a, b)
        c = histogram_from_values(rng.normal(size=100), -6.0, 6.0, n_u=64, eps_bins=3.0)
        with pytest.raises(GridMismatch):
            l1_distance(a, c)

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_metric_properties(self, seed):
        r = np.random.default_rng(seed)
        plan = plan_from_window(-8.0, 8.0, n_u=32)
        w, dw = dual_w_grid(plan.u_values, plan.w_center)
        hs = [
            spikes_to_histogram(r.normal(size=5), np.full(5, 0.2), w, 2.0 * dw)
            for _ in range(3)
        ]
        a, b, c = hs
        assert l1_distance(a, b) == l1_distance(b, a)
        assert l1_distance(a, c) <= l1_distance(a, b) + l1_distance(b, c) + 1e-12
        assert l1_distance(a, b) >= 0.0

    def test_error_combines_quadratically(self, rng):
        a = histogram_from_values(rng.normal(size=2000), -6.0, 6.0)
        b = histogram_from_values(rng.normal(size=2000) + 0.5, -6.0, 6.0)
        err = l1_distance_error(a, b)
        assert err > 0.0
        assert err < 0.2  # sanity scale for these sample sizes


class TestReport:
    def test_compare_payload(self, rng):
        a = histogram_from_values(rng.normal(size=3000), -6.0, 6.0)
        b = histogram_from_values(rng.normal(size=3000) * 1.1, -6.0, 6.0)
        rpt = analysis.compare_histograms(a, b)
        assert set(rpt) == {"l1", "l1_error", "mean_a", "mean_b", "mass_a", "mass_b"}
        assert 0.0 <= rpt["l1"] <= 2.0

    def test_jarzynski_report_dataclass(self):
        rpt = analysis.JarzynskiReport(
            beta=0.5,
            delta_f_estimate=1.0,
            delta_f_reference=1.2,
            stderr=0.05,
            method="classical_mc",
        )
        assert rpt.deviation == pytest.approx(0.2)
