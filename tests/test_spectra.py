import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaowork import characteristic, geometry, potential, sampler, spectra
from chaowork.characteristic import CharacteristicGrid, plan_from_window
from chaowork.potential import evaluate
from chaowork.spectra import (
    AliasingSuspect,
    bin_spikes,
    dual_w_grid,
    invert,
    spikes_to_histogram,
)

from reference import bin_weighted_spikes, histogram_to_characteristic, rebin


def make_grid(u, g, w_center=0.0, se=None):
    z = np.zeros(u.size)
    return CharacteristicGrid(
        u_values=u,
        g_values=np.asarray(g, dtype=complex),
        stderr_re=z if se is None else se,
        stderr_im=z.copy() if se is None else se.copy(),
        n_samples=0,
        hbar=1.0,
        beta=1.0,
        w_center=w_center,
    )


@pytest.fixture(scope="module")
def onesided():
    plan = plan_from_window(-12.0, 12.0, n_u=128)
    return plan.u_values


class TestInvert:
    def test_unit_g_concentrates_at_zero(self, onesided):
        h = invert(make_grid(onesided, np.ones(128)), broadening=0.0, check_aliasing=False)
        j = np.argmax(h.density)
        assert h.w_values[j] == pytest.approx(0.0, abs=1e-12)
        assert h.density[j] * h.bin_width == pytest.approx(1.0, abs=1e-12)

    def test_shift_theorem_on_grid_point(self, onesided):
        w, dw = dual_w_grid(onesided, 0.0)
        w0 = w[90]  # exact grid point
        g = make_grid(onesided, np.exp(1j * w0 * onesided))
        h = invert(g, broadening=0.0, check_aliasing=False)
        j = np.argmax(h.density)
        assert h.w_values[j] == w0
        assert h.density[j] * h.bin_width == pytest.approx(1.0, abs=1e-10)
        off_peak = np.delete(h.density, j)
        assert np.abs(off_peak).max() < 1e-10 / dw

    def test_plancherel_roundtrip(self, onesided, rng):
        # Random Hermitian-compatible G: invert then transform reproduces G.
        g_vals = rng.normal(size=128) * 0.3 + 1j * rng.normal(size=128) * 0.3
        g_vals[0] = 1.0
        g = make_grid(onesided, g_vals)
        h = invert(g, broadening=0.0, check_aliasing=False)
        back = histogram_to_characteristic(h, onesided)
        assert np.abs(back - g_vals).max() < 1e-10

    def test_broadened_roundtrip_reproduces_damped_g(self, onesided, rng):
        g_vals = rng.normal(size=128) * 0.2 + 1j * rng.normal(size=128) * 0.2
        g_vals[0] = 1.0
        g = make_grid(onesided, g_vals)
        _, dw = dual_w_grid(onesided, 0.0)
        eps = 2.0 * dw
        h = invert(g, broadening=eps, check_aliasing=False)
        back = histogram_to_characteristic(h, onesided)
        damped = g_vals * np.exp(-0.5 * (eps * onesided) ** 2)
        assert np.abs(back - damped).max() < 1e-10

    def test_mass_equals_g0_and_broadening_preserves_it(self, onesided, rng):
        g_vals = rng.normal(size=128) * 0.2 + 1j * rng.normal(size=128) * 0.2
        g_vals[0] = 1.0
        for eps_bins in (0.0, 1.0, 2.0, 4.0):
            _, dw = dual_w_grid(onesided, 0.0)
            h = invert(
                make_grid(onesided, g_vals), broadening=eps_bins * dw, check_aliasing=False
            )
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
        _, dw = dual_w_grid(g.u_values, g.w_center)
        h = invert(g, broadening=2.0 * dw)
        se_mean = w_direct.std(ddof=1) / math.sqrt(w_direct.size)
        # hbar -> 0 route: first moment of P equals <W>; combine both errors.
        hist_mean_err = float(
            np.sqrt(((h.w_values * h.error * h.bin_width) ** 2).sum())
        )
        tol = 3.0 * math.hypot(se_mean, hist_mean_err)
        assert h.mean() == pytest.approx(w_direct.mean(), abs=tol + 1e-6)

    def test_aliasing_guard(self, onesided):
        # Unbroadened inversion of a slowly decaying G trips the guard.
        g_vals = np.full(128, 0.5 + 0.0j)
        g_vals[0] = 1.0
        with pytest.raises(AliasingSuspect):
            invert(make_grid(onesided, g_vals), broadening=0.0)
        # Two bins of broadening suppress the tail, so the same data passes.
        _, dw = dual_w_grid(onesided, 0.0)
        h = invert(make_grid(onesided, g_vals), broadening=2.0 * dw)
        assert h.metadata["tail_broadened"] < 1e-6

    def test_real_valuedness_residue(self, onesided):
        _, dw = dual_w_grid(onesided, 0.0)
        h = invert(make_grid(onesided, np.ones(128)), broadening=2.0 * dw, check_aliasing=False)
        assert h.imag_residue < 1e-8

    def test_error_propagation_scales(self, onesided):
        se = np.full(128, 1e-3)
        g = make_grid(onesided, np.ones(128), se=se)
        h = invert(g, broadening=0.0, check_aliasing=False)
        assert (h.error > 0.0).all()
        # doubling the input errors doubles the output errors
        g2 = make_grid(onesided, np.ones(128), se=2.0 * se)
        h2 = invert(g2, broadening=0.0, check_aliasing=False)
        np.testing.assert_allclose(h2.error, 2.0 * h.error, rtol=1e-12)


class TestBinSpikes:
    def test_single_spike_mass(self, onesided):
        w, dw = dual_w_grid(onesided, 0.0)
        dens, err = bin_spikes(np.array([w[40]]), w, broadening=2.0 * dw)
        assert dens.sum() * dw == pytest.approx(1.0, abs=1e-9)
        assert np.argmax(dens) == 40
        assert np.array_equal(err, np.zeros_like(dens))

    def test_matches_inversion_route(self, onesided, rng):
        # Spikes binned directly vs the characteristic-function route: equal
        # weights through bin_spikes, random weights through the oracle.
        w, dw = dual_w_grid(onesided, 0.0)
        eps = 2.0 * dw
        spikes = rng.uniform(w[20], w[-20], size=50)
        weighted = rng.random(50)
        weighted /= weighted.sum()
        cases = (
            (np.full(50, 1.0 / 50), bin_spikes(spikes, w, eps)[0]),
            (weighted, bin_weighted_spikes(spikes, weighted, w, eps)),
        )
        for masses, direct in cases:
            g_vals = (masses[None, :] * np.exp(1j * np.outer(onesided, spikes))).sum(axis=1)
            h = invert(make_grid(onesided, g_vals), broadening=eps, check_aliasing=False)
            assert np.abs(h.density - direct).max() < 1e-9

    def test_broadening_must_be_positive(self, onesided):
        w, _ = dual_w_grid(onesided, 0.0)
        for eps in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError, match="broadening"):
                bin_spikes(np.array([w[10]]), w, eps)

    def test_sample_errors_returned(self, onesided, rng):
        w, dw = dual_w_grid(onesided, 0.0)
        n = 5000
        samples = rng.normal(0.0, 3.0, size=n)
        dens, err = bin_spikes(samples, w, 2.0 * dw)
        assert dens.sum() * dw == pytest.approx(1.0, abs=1e-6)
        mid = np.argmax(dens)
        assert err[mid] > 0.0
        assert err[mid] < dens[mid]  # sane relative error at the peak


class TestHistogramContainer:
    def test_edges(self, onesided):
        _, dw = dual_w_grid(onesided, 0.0)
        h = invert(make_grid(onesided, np.ones(128)), broadening=2.0 * dw, check_aliasing=False)
        assert h.w_min == pytest.approx(h.w_values[0] - 0.5 * h.bin_width)
        assert h.w_max == pytest.approx(h.w_values[-1] + 0.5 * h.bin_width)

    def test_rebin_preserves_mass(self, onesided):
        _, dw = dual_w_grid(onesided, 0.0)
        h = invert(make_grid(onesided, np.ones(128)), broadening=2.0 * dw, check_aliasing=False)
        r = rebin(h, 5)
        assert r.total_mass == pytest.approx(h.total_mass, rel=1e-6)
        assert r.bin_width == pytest.approx(5 * h.bin_width)

    @given(n=st.integers(1, 50), center=st.floats(-3.0, 3.0))
    @settings(max_examples=20, deadline=None)
    def test_spikes_histogram_mass(self, n, center):
        plan = plan_from_window(-20.0, 20.0, n_u=64)
        w, dw = dual_w_grid(plan.u_values, plan.w_center)
        h = spikes_to_histogram(center + np.linspace(-1.0, 1.0, n), w, 2.0 * dw)
        assert h.total_mass == pytest.approx(1.0, rel=1e-9)
