import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaowork import characteristic, geometry, potential, sampler, spectra
from chaowork.characteristic import CharacteristicGrid, plan_from_window
from chaowork.potential import evaluate
from chaowork.spectra import AliasingSuspect, bin_spikes, invert

from reference import (
    bin_spikes_per_offset,
    bin_weighted_spikes,
    dense_functional_coefficients,
    dense_invert,
    histogram_to_characteristic,
    rebin,
)


def make_grid(plan, g, se=None):
    z = np.zeros(plan.n)
    return CharacteristicGrid(
        plan=plan,
        g_values=np.asarray(g, dtype=complex),
        stderr_re=z if se is None else se,
        stderr_im=z.copy() if se is None else se.copy(),
        n_samples=0,
        hbar=1.0,
        beta=1.0,
    )


@pytest.fixture(scope="module")
def plan():
    return plan_from_window(-12.0, 12.0, n_u=128)


@pytest.fixture(scope="module")
def onesided(plan):
    return plan.u_values


@pytest.fixture
def unguarded(monkeypatch):
    """Unbroadened synthetic G keeps weight at u_max; let it through the guard."""
    monkeypatch.setattr(spectra, "ALIAS_TOLERANCE", math.inf)


class TestInvert:
    def test_unit_g_concentrates_at_zero(self, plan, unguarded):
        h = invert(make_grid(plan, np.ones(128)), broadening=0.0)
        j = np.argmax(h.density)
        assert h.w_values[j] == pytest.approx(0.0, abs=1e-12)
        assert h.density[j] * h.bin_width == pytest.approx(1.0, abs=1e-12)

    def test_shift_theorem_on_grid_point(self, plan, onesided, unguarded):
        w, dw = plan.w_values, plan.dw
        w0 = w[90]  # exact grid point
        g = make_grid(plan, np.exp(1j * w0 * onesided))
        h = invert(g, broadening=0.0)
        j = np.argmax(h.density)
        assert h.w_values[j] == w0
        assert h.density[j] * h.bin_width == pytest.approx(1.0, abs=1e-10)
        off_peak = np.delete(h.density, j)
        assert np.abs(off_peak).max() < 1e-10 / dw

    def test_plancherel_roundtrip(self, plan, onesided, rng, unguarded):
        # Random Hermitian-compatible G: invert then transform reproduces G.
        g_vals = rng.normal(size=128) * 0.3 + 1j * rng.normal(size=128) * 0.3
        g_vals[0] = 1.0
        g = make_grid(plan, g_vals)
        h = invert(g, broadening=0.0)
        back = histogram_to_characteristic(h, onesided)
        assert np.abs(back - g_vals).max() < 1e-10

    def test_broadened_roundtrip_reproduces_damped_g(self, plan, onesided, rng, unguarded):
        g_vals = rng.normal(size=128) * 0.2 + 1j * rng.normal(size=128) * 0.2
        g_vals[0] = 1.0
        g = make_grid(plan, g_vals)
        eps = 2.0 * plan.dw
        h = invert(g, broadening=eps)
        back = histogram_to_characteristic(h, onesided)
        damped = g_vals * np.exp(-0.5 * (eps * onesided) ** 2)
        assert np.abs(back - damped).max() < 1e-10

    def test_mass_equals_g0_and_broadening_preserves_it(self, plan, rng, unguarded):
        g_vals = rng.normal(size=128) * 0.2 + 1j * rng.normal(size=128) * 0.2
        g_vals[0] = 1.0
        for eps_bins in (0.0, 1.0, 2.0, 4.0):
            h = invert(make_grid(plan, g_vals), broadening=eps_bins * plan.dw)
            assert h.total_mass == pytest.approx(1.0, abs=1e-10)

    def test_first_moment_matches_sample_mean(self):
        # Work histogram mean against the direct sample mean of the energy
        # jump over the same ensemble.
        geom = geometry.BilliardGeometry()
        pot = potential.QuenchPotential()
        plan = characteristic.plan_u_grid(geom, pot, seed=77, n_u=256)
        ens = sampler.sample_ensemble(geom, 4000, seed=77)
        w_direct = pot.delta_xi * evaluate(pot, ens.qs)
        [g] = characteristic.semiclassical_characteristic(
            ens, [characteristic.Request(2.0**-10, plan, 0.02)], geom, pot
        )
        h = invert(g, broadening=2.0 * g.plan.dw)
        se_mean = w_direct.std(ddof=1) / math.sqrt(w_direct.size)
        # hbar -> 0 route: first moment of P equals <W>; combine both errors.
        hist_mean_err = float(
            np.sqrt(((h.w_values * h.error * h.bin_width) ** 2).sum())
        )
        tol = 3.0 * math.hypot(se_mean, hist_mean_err)
        assert h.mean() == pytest.approx(w_direct.mean(), abs=tol + 1e-6)

    def test_aliasing_guard(self, plan):
        # Unbroadened inversion of a slowly decaying G trips the guard.
        g_vals = np.full(128, 0.5 + 0.0j)
        g_vals[0] = 1.0
        with pytest.raises(AliasingSuspect):
            invert(make_grid(plan, g_vals), broadening=0.0)
        # Two bins of broadening suppress the tail, so the same data passes.
        h = invert(make_grid(plan, g_vals), broadening=2.0 * plan.dw)
        assert h.metadata["tail_broadened"] < 1e-6

    def test_real_valuedness_residue(self, plan, unguarded):
        h = invert(make_grid(plan, np.ones(128)), broadening=2.0 * plan.dw)
        assert h.imag_residue < 1e-8

    def test_error_propagation_scales(self, plan, unguarded):
        se = np.full(128, 1e-3)
        g = make_grid(plan, np.ones(128), se=se)
        h = invert(g, broadening=0.0)
        assert (h.error > 0.0).all()
        # doubling the input errors doubles the output errors
        g2 = make_grid(plan, np.ones(128), se=2.0 * se)
        h2 = invert(g2, broadening=0.0)
        np.testing.assert_allclose(h2.error, 2.0 * h.error, rtol=1e-12)


class TestDenseOracle:
    """The FFTs of ``invert`` and ``functional_coefficients`` against the
    dense cos/sin sums over every (u, W) pair."""

    @staticmethod
    def assert_close(got, want):
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("n", [2, 3, 16, 64, 511, 512])
    @pytest.mark.parametrize("center", [0.0, 37.3, -1234.5])
    def test_invert_and_functionals_match_the_dense_sums(self, n, center, unguarded):
        rng = np.random.default_rng(n)
        plan = characteristic.UGridPlan(0.05, n, center)
        u = plan.u_values
        g = np.exp(-0.5 * (3.0 * u) ** 2 + 1.01j * center * u) * (1.0 + 0.01 * rng.random(n))
        g[0] = 1.0
        grid = make_grid(plan, g, se=1e-2 * rng.random(n))
        grid.stderr_im = 1e-2 * rng.random(n)
        eps = 2.0 * plan.dw
        hist = invert(grid, broadening=eps)
        density, error = dense_invert(grid, eps)
        self.assert_close(hist.density, density)
        self.assert_close(hist.error, error)
        kernels = [rng.random(2 * n - 1), np.exp(-0.3 * (plan.w_values - plan.w_values[0]))]
        got = spectra.functional_coefficients(plan, eps, kernels)
        for c, want in zip(got, dense_functional_coefficients(plan, eps, kernels)):
            self.assert_close(c, want)


class TestBinSpikes:
    def test_single_spike_mass(self, plan):
        w, dw = plan.w_values, plan.dw
        h = bin_spikes(np.array([w[40]]), plan, broadening=2.0 * dw)
        dens, err = h.density, h.error
        assert dens.sum() * dw == pytest.approx(1.0, abs=1e-9)
        assert np.argmax(dens) == 40
        assert np.array_equal(err, np.zeros_like(dens))

    @pytest.mark.parametrize(
        "n, eps_bins",
        [(n, e) for n in (1, 65535, 65536, 65537) for e in (0.05, 2.0, 16.0)]
        + [(1_000_001, 0.05), (1_000_001, 2.0), (65537, 300.0)],
    )
    def test_gridding_matches_the_per_offset_oracle(self, plan, n, eps_bins):
        # Samples spread past both ends of the window, so that blocks hold
        # samples whose kernels are cut by an edge or miss the window.
        w = plan.w_values
        samples = np.random.default_rng(n).uniform(w[0] - 20.0 * plan.dw, w[-1] + 20.0 * plan.dw, n)
        eps = eps_bins * plan.dw
        h = bin_spikes(samples, plan, eps)
        ref = bin_spikes_per_offset(samples, plan, eps)
        assert np.isfinite(h.density).all() and np.isfinite(h.error).all()
        peak = ref.density.max()
        assert np.abs(h.density - ref.density).max() <= 1e-12 * peak
        assert np.abs(h.error - ref.error).max() <= 1e-12 * peak

    @pytest.mark.parametrize(
        "side,span",
        [(-1, 20), (1, 20), (-1, 300), (1, 300)],
        ids=["-1", "1", "-1-span300", "1-span300"],
    )
    def test_wide_kernel_takes_only_offsets_that_reach_the_window(
        self, plan, side, span, monkeypatch
    ):
        # A kernel of 2,400 bins each way on a 255-bin window, from samples
        # 100 to 100 + span bins past one edge: each direction's recurrence
        # starts at the first offset that reaches a bin, and no block takes
        # more offsets than its samples' span plus the window, two bincounts
        # each, of the kernel's 4,802 offsets.  Over a 300-bin span the
        # recurrence runs some 550 offsets, which drifted by 1.3e-12 of the
        # peak before it was restarted every RESTART_OFFSETS offsets.
        w, dw = plan.w_values, plan.dw
        edge = w[0] - 100.0 * dw if side < 0 else w[-1] + 100.0 * dw
        samples = edge + side * np.random.default_rng(5).uniform(0.0, span * dw, 70_000)
        eps = 300.0 * dw
        counts = []
        bincount = np.bincount

        def counted(*args, **kwargs):
            counts.append(1)
            return bincount(*args, **kwargs)

        monkeypatch.setattr(np, "bincount", counted)
        h = bin_spikes(samples, plan, eps)
        monkeypatch.undo()
        blocks = -(-samples.size // sampler.SAMPLE_BLOCK)
        assert len(counts) <= blocks * 2 * (span + 1 + w.size)
        ref = bin_spikes_per_offset(samples, plan, eps)
        peak = ref.density.max()
        assert np.abs(h.density - ref.density).max() <= 1e-12 * peak
        assert np.abs(h.error - ref.error).max() <= 1e-12 * peak

    def test_million_samples_in_bounded_memory(self, plan):
        # One block's temporaries: 4.8 MB (65,536 doubles are 0.5 MB); 196 MB
        # at 4 M samples with temporaries of the sample's length for every
        # bin offset.
        samples = np.random.default_rng(3).normal(0.0, 3.0, 1_000_000)
        tracemalloc.start()
        try:
            bin_spikes(samples, plan, 2.0 * plan.dw)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8e6

    def test_matches_inversion_route(self, plan, onesided, rng, unguarded):
        # Spikes binned directly vs the characteristic-function route: equal
        # weights through bin_spikes, random weights through the oracle.
        w = plan.w_values
        eps = 2.0 * plan.dw
        spikes = rng.uniform(w[20], w[-20], size=50)
        weighted = rng.random(50)
        weighted /= weighted.sum()
        cases = (
            (np.full(50, 1.0 / 50), bin_spikes(spikes, plan, eps).density),
            (weighted, bin_weighted_spikes(spikes, weighted, w, eps)),
        )
        for masses, direct in cases:
            g_vals = (masses[None, :] * np.exp(1j * np.outer(onesided, spikes))).sum(axis=1)
            h = invert(make_grid(plan, g_vals), broadening=eps)
            assert np.abs(h.density - direct).max() < 1e-9

    def test_binned_and_inverted_histograms_share_the_plan_grid(self, rng, unguarded):
        # One bin width for both routes: a width taken as w[1] - w[0] differs
        # from 2 pi / ((2n - 1) du) by rounding, and moves the kernel's
        # half-width ceil(8 eps / dw) by a bin at eps = 2 bins.
        for n_u in (16, 32, 64, 256, 512):
            for seed in (7, 777, 12345):
                plan = characteristic.plan_u_grid(
                    geometry.BilliardGeometry(), potential.QuenchPotential(), seed, n_u=n_u
                )
                eps = 2.0 * plan.dw
                binned = bin_spikes(rng.normal(0.0, 20.0, size=10), plan, eps)
                inverted = invert(make_grid(plan, np.ones(n_u)), broadening=eps)
                assert binned.same_grid(inverted)
                assert binned.bin_width == inverted.bin_width == plan.dw

    def test_broadening_must_be_positive(self, plan):
        for eps in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError, match="broadening"):
                bin_spikes(np.array([plan.w_values[10]]), plan, eps)

    def test_no_samples_refused(self, plan):
        with pytest.raises(ValueError, match="at least one sample"):
            bin_spikes(np.array([]), plan, 2.0 * plan.dw)

    def test_sample_errors_returned(self, plan, rng):
        dw = plan.dw
        n = 5000
        samples = rng.normal(0.0, 3.0, size=n)
        h = bin_spikes(samples, plan, 2.0 * dw)
        dens, err = h.density, h.error
        assert dens.sum() * dw == pytest.approx(1.0, abs=1e-6)
        mid = np.argmax(dens)
        assert err[mid] > 0.0
        assert err[mid] < dens[mid]  # sane relative error at the peak


class TestHistogramContainer:
    def test_rebin_preserves_mass(self, plan, unguarded):
        h = invert(make_grid(plan, np.ones(128)), broadening=2.0 * plan.dw)
        r = rebin(h, 5)
        assert r.total_mass == pytest.approx(h.total_mass, rel=1e-6)
        assert r.bin_width == pytest.approx(5 * h.bin_width)

    @given(n=st.integers(1, 50), center=st.floats(-3.0, 3.0))
    @settings(max_examples=20, deadline=None)
    def test_spikes_histogram_mass(self, n, center):
        plan = plan_from_window(-20.0, 20.0, n_u=64)
        h = bin_spikes(center + np.linspace(-1.0, 1.0, n), plan, 2.0 * plan.dw)
        assert h.total_mass == pytest.approx(1.0, rel=1e-9)
