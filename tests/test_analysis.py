import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaowork import analysis, characteristic, classical, potential, sampler, spectra
from chaowork.analysis import (
    DegenerateMean,
    jarzynski_from_characteristic,
    jarzynski_from_samples,
    jarzynski_functionals,
    l1_distance,
    l1_distance_error,
)
from chaowork.characteristic import plan_from_window
from chaowork.spectra import AliasingSuspect, GridMismatch, bin_spikes

from reference import jarzynski_histogram_sum


def histogram_from_values(values, w_lo, w_hi, n_u=64, eps_bins=2.0):
    plan = plan_from_window(w_lo, w_hi, n_u=n_u)
    return bin_spikes(values, plan, eps_bins * plan.dw)


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
        s = classical.sample_classical_work(geom, pot, 400_000, seed=13)
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

    # Around numpy's 128-term pairwise block and the SAMPLE_BLOCK leaves:
    # 131,072 terms make two whole leaves, 131,089 four leaves of 32,768 to
    # 32,777 terms, and 1,000,003 sixteen of 62,496 to 62,507.
    @pytest.mark.parametrize(
        "n", [1, 2, 7, 127, 128, 129, 1001, 65535, 65536, 65537, 131072, 131089, 1_000_003]
    )
    @pytest.mark.parametrize("beta", [2.0**-12, 0.3, 100.0])
    def test_bits_of_the_numpy_formula(self, rng, n, beta):
        # The estimate a leaf at a time against numpy's mean and std(ddof=1)
        # over a separate array of exp(-beta (W - min W)).
        w = 40.0 * rng.standard_normal(n) - 5.0
        expw = np.exp(-beta * (w - w.min()))
        mean = float(expw.mean())
        se = float(expw.std(ddof=1)) / math.sqrt(n) if n > 1 else 0.0
        ref = (w.min() - math.log(mean) / beta, se / (beta * mean))
        assert jarzynski_from_samples(w, beta) == ref

    def test_million_samples_in_bounded_memory(self, rng):
        # One SAMPLE_BLOCK buffer (0.5 MB) beside W; 8 MB more when the
        # terms were formed over the whole sample at once.
        w = rng.normal(size=1_000_000)
        tracemalloc.start()
        try:
            jarzynski_from_samples(w, 0.3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8e6


def exact_grid(plan, g_values, beta, eps):
    """A noise-free characteristic grid on a plan, carrying the Jarzynski
    functional at beta and broadening eps."""
    return characteristic.CharacteristicGrid(
        plan=plan,
        g_values=np.asarray(g_values, dtype=complex),
        stderr_re=np.zeros(plan.n),
        stderr_im=np.zeros(plan.n),
        n_samples=0,
        hbar=1.0,
        beta=beta,
        functional=jarzynski_functionals(plan, [beta], eps)[0],
        functional_stderr=0.0,
    )


class TestJarzynskiFromCharacteristic:
    def test_unit_g_gives_zero(self):
        plan = plan_from_window(-8.0, 8.0, n_u=64)
        g = exact_grid(plan, np.ones(plan.n), 0.05, 2.0 * plan.dw)
        est, _ = jarzynski_from_characteristic(g, beta=0.05, broadening=2.0 * plan.dw)
        assert est == pytest.approx(0.0, abs=1e-8)

    def test_consistent_with_direct_samples_in_classical_regime(self, geom, pot):
        # At small hbar the inverted histogram estimates the same functional
        # as the direct classical sample average over the same ensemble.
        beta = 2.0**-10
        ens = sampler.sample_ensemble(geom, 30_000, seed=21)
        plan = characteristic.plan_u_grid(geom, pot, seed=21, n_u=512)
        [c] = jarzynski_functionals(plan, [beta], 2.0 * plan.dw)
        [g] = characteristic.semiclassical_characteristic(
            ens, [characteristic.Request(beta, plan, 0.02, functional=c)], geom, pot
        )
        est_hist, se_hist = jarzynski_from_characteristic(g, beta, 2.0 * plan.dw)
        w_direct = pot.delta_xi * potential.evaluate(pot, ens.qs)
        est_direct, se_direct = jarzynski_from_samples(w_direct, beta)
        assert abs(est_hist - est_direct) < 3 * math.hypot(se_hist, se_direct) + 1e-3

    def test_functional_route_matches_histogram_sum(self, geom, pot):
        # Estimated for the Jarzynski functional, the grid carries the error
        # of that linear functional of G; the estimate must equal the sum
        # over the inverted histogram, and its error must not exceed the
        # independent-bin overestimate.  A grid without the functional, or
        # read at another beta, is refused.
        beta = 2.0**-9
        plan = characteristic.plan_u_grid(geom, pot, seed=99, n_u=64)
        ens = sampler.sample_ensemble(geom, 4000, seed=99)
        eps = 2.0 * plan.dw
        [c] = jarzynski_functionals(plan, [beta], eps)
        [g] = characteristic.semiclassical_characteristic(
            ens, [characteristic.Request(beta, plan, 1.0, functional=c)], geom, pot
        )
        est_f, se_f = jarzynski_from_characteristic(g, beta, eps)
        est_hist, se_hist = jarzynski_histogram_sum(g, beta, eps)
        assert est_f == pytest.approx(est_hist, rel=1e-12)
        assert 0.0 < se_f < se_hist
        with pytest.raises(ValueError, match="beta"):
            jarzynski_from_characteristic(g, 2.0 * beta, eps)
        plain = dataclasses.replace(g, functional=None, functional_stderr=None)
        with pytest.raises(ValueError, match="functional"):
            jarzynski_from_characteristic(plain, beta, eps)

    def test_broadening_bias_removed(self):
        # A pure Gaussian work distribution has a closed-form free energy;
        # the histogram route must not inherit the broadening inflation.
        mu, sd, beta = 1.5, 2.0, 0.3
        plan = plan_from_window(-12.0, 14.0, n_u=256)
        u = plan.u_values
        g = exact_grid(plan, np.exp(1j * mu * u - 0.5 * (sd * u) ** 2), beta, 4.0 * plan.dw)
        est, se = jarzynski_from_characteristic(g, beta, 4.0 * plan.dw)
        exact = mu - beta * sd * sd / 2.0
        assert abs(est - exact) < 4 * se + 2e-3

    def test_degenerate_histogram_rejected(self):
        plan = plan_from_window(-4.0, 4.0, n_u=16)
        g = exact_grid(plan, np.zeros(plan.n), 1.0, 2.0 * plan.dw)
        with pytest.raises(DegenerateMean):
            jarzynski_from_characteristic(g, 1.0, 2.0 * plan.dw)

    def test_overflowing_broadening_correction_refused(self):
        # exp((beta eps)^2 / 2) overflows a double once beta eps > 37.68: such a
        # beta is refused by name, as the CLI refuses it, not with a bare
        # OverflowError.
        plan = plan_from_window(-8.0, 8.0, n_u=64)
        eps = 2.0 * plan.dw
        for beta in (38.0 / eps, 1e300):
            g = exact_grid(plan, np.ones(plan.n), beta, eps)
            with pytest.raises(ValueError, match="beta = .* broadening = .* too cold"):
                jarzynski_from_characteristic(g, beta, eps)

    def test_aliased_grid_refused(self):
        # G that keeps its weight at u_max aliases the histogram the
        # functional sums over, as it does when G is inverted.
        plan = plan_from_window(-8.0, 8.0, n_u=64)
        eps = 0.1 * plan.dw
        g = exact_grid(plan, np.ones(plan.n), 0.05, eps)
        with pytest.raises(AliasingSuspect):
            jarzynski_from_characteristic(g, 0.05, eps)


class TestL1Distance:
    def test_identical_is_zero(self, rng):
        h = histogram_from_values(rng.normal(size=1000), -6.0, 6.0)
        assert l1_distance(h, h) == 0.0

    def test_disjoint_spikes_give_two(self):
        plan = plan_from_window(-30.0, 30.0, n_u=256)
        a = bin_spikes([-15.0], plan, 2.0 * plan.dw)
        b = bin_spikes([15.0], plan, 2.0 * plan.dw)
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
        hs = [bin_spikes(r.normal(size=5), plan, 2.0 * plan.dw) for _ in range(3)]
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
