import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from chaowork import classical, geometry, potential, sampler
from chaowork.classical import (
    classical_free_energy_difference,
    log_partition_ratio,
    sample_classical_work,
)
from chaowork.potential import QuenchPotential, evaluate

from reference import (
    area,
    density_of_states,
    log_partition_ratio_per_integral,
    potential_extrema,
    sample_shell,
    shell_final_energy_sample,
)


class TestSampleClassicalWork:
    def test_null_quench_all_zero(self, geom):
        pot0 = QuenchPotential(xi_f=0.0)
        s = sample_classical_work(geom, pot0, 500, seed=1)
        assert np.array_equal(s.values, np.zeros(500))

    def test_temperature_independence(self, geom, pot):
        # W depends only on the uniform position marginal, so the sample takes
        # no temperature: two independent draws share one distribution.
        a = sample_classical_work(geom, pot, 50_000, seed=2)
        b = sample_classical_work(geom, pot, 50_000, seed=3)
        _, pvalue = stats.ks_2samp(a.values, b.values)
        assert pvalue > 0.001

    def test_million_points_in_bounded_memory(self, geom, pot):
        # W (8 MB), one block of positions and its proposals, and blocks of
        # V's temporaries: 12.8 MB.  35.2 MB when every position and V were
        # held at once, 177 MB when V's (n, 4) temporaries were full size.
        tracemalloc.start()
        try:
            s = sample_classical_work(geom, pot, 1_000_000, seed=7)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert s.n == 1_000_000
        assert peak < 16e6

    @pytest.mark.parametrize("n", [300, sampler.SAMPLE_BLOCK, sampler.SAMPLE_BLOCK + 1, 1_000_000])
    def test_streamed_draw_keeps_the_bits_of_one_evaluate(self, geom, pot, n):
        # Seed 5 puts a point at row 65,536 whose value alone differs from
        # its value among others, so evaluating a one-row last block alone
        # would show at n = 65,537.
        qs = sampler.sample_ensemble(geom, n, seed=5).qs
        if n == sampler.SAMPLE_BLOCK + 1:
            assert evaluate(pot, qs[-1:])[0] != evaluate(pot, qs)[-1]
        s = sample_classical_work(geom, pot, n, seed=5)
        assert s.values.tobytes() == (pot.delta_xi * evaluate(pot, qs)).tobytes()

    def test_momentum_does_not_enter(self, geom, pot):
        s = sample_classical_work(geom, pot, 300, seed=4)
        ens = sampler.sample_ensemble(geom, 300, seed=4)
        np.testing.assert_array_equal(s.values, pot.delta_xi * evaluate(pot, ens.qs))

    def test_support_bound(self, geom, pot):
        # All sampled W stay inside xi_f * [min V, max V]; the extrema come
        # from a dense scan plus local polish.
        vmin, vmax = potential_extrema(geom, pot)
        s = sample_classical_work(geom, pot, 200_000, seed=5)
        assert s.values.min() >= pot.xi_f * vmin - 1e-9
        assert s.values.max() <= pot.xi_f * vmax + 1e-9
        # and the scan itself is sane: one bump high, one bump deep
        assert 0.9 < vmax < 1.1
        assert -1.1 < vmin < -0.9


class TestPartitionRatio:
    def test_null_quench_exact_one(self, geom):
        pot0 = QuenchPotential(xi_f=0.0)
        assert log_partition_ratio(geom, pot0, 1.0) == 0.0

    def test_high_temperature_limit(self, geom, pot):
        # The ratio is within 1e-6 of 1.
        log_r = log_partition_ratio(geom, pot, 1e-8)
        assert math.log1p(-1e-6) <= log_r <= math.log1p(1e-6)

    def test_monte_carlo_cross_check(self, geom, pot):
        beta = 2.0**-12
        quad = math.exp(log_partition_ratio(geom, pot, beta))
        s = sample_classical_work(geom, pot, 4_000_000, seed=6)
        expw = np.exp(-beta * s.values)
        mc = expw.mean()
        se = expw.std(ddof=1) / math.sqrt(s.n)
        assert abs(mc - quad) < 3 * se

    def test_general_initial_strength(self, geom):
        # xi_0 != 0 divides by its own integral on the same nodes.
        pot = QuenchPotential(xi_f=20.0, xi_0=20.0)
        assert log_partition_ratio(geom, pot, 0.01) == 0.0

    @pytest.mark.parametrize("beta", [2.0**-8, 8.0])
    def test_one_evaluation_of_v_per_level(self, geom, pot, beta, monkeypatch):
        # Numerator and denominator share the nodes, so V is evaluated once
        # per piece of the domain and level, where the reference evaluates
        # it for each integral; the ratio keeps the reference's bits.
        def counted(record, evaluate):
            def wrapped(p, q):
                record.append(len(q))
                return evaluate(p, q)

            return wrapped

        once, twice = [], []
        monkeypatch.setattr(classical, "evaluate", counted(once, classical.evaluate))
        monkeypatch.setattr(potential, "evaluate", counted(twice, potential.evaluate))
        got = classical_free_energy_difference(geom, pot, beta)
        ref = -log_partition_ratio_per_integral(geom, pot, beta) / beta
        assert got.hex() == ref.hex()
        assert len(twice) == 2 * len(once) and sum(twice) == 2 * sum(once)
        assert len(once) % 2 == 0 and len(once) >= 4  # rectangle and disk per level

    def test_legendre_nodes_once_per_n(self, geom, pot, monkeypatch):
        # Every refinement step of every beta maps the same n-point rule onto
        # its intervals; the rule is computed once per n and cannot be written.
        leggauss, calls = np.polynomial.legendre.leggauss, []

        def counted(n):
            calls.append(n)
            return leggauss(n)

        monkeypatch.setattr(np.polynomial.legendre, "leggauss", counted)
        classical._legendre.cache_clear()
        for beta in (2.0**-8, 2.0**-10, 2.0**-12):
            log_partition_ratio(geom, pot, beta)
        assert sorted(calls) == sorted(set(calls)) and 32 in calls
        x, w = classical._gauss_nodes(0.0, 0.5 * math.pi, 32)
        x0, w0 = leggauss(32)
        assert x.tobytes() == (0.25 * math.pi * (x0 + 1.0)).tobytes()
        assert w.tobytes() == (0.25 * math.pi * w0).tobytes()
        with pytest.raises(ValueError, match="read-only"):
            classical._legendre(32)[0][0] = 0.0

    def test_nonconvergence_is_loud(self, geom, pot):
        with pytest.raises(classical.QuadratureNonConvergence):
            log_partition_ratio(geom, pot, 2.0**-8, rel_tol=0.0, max_nodes=64)


class TestFreeEnergyDifference:
    def test_null_quench_zero(self, geom):
        pot0 = QuenchPotential(xi_f=0.0)
        assert classical_free_energy_difference(geom, pot0, 0.7) == 0.0

    def test_sign_with_all_positive_bumps(self, geom, pot):
        pos = QuenchPotential(
            centers=pot.centers, signs=np.abs(pot.signs), sigma=pot.sigma, xi_f=85.0
        )
        beta = 2.0**-10
        assert log_partition_ratio(geom, pos, beta) < 0.0
        assert classical_free_energy_difference(geom, pos, beta) > 0.0

    def test_jarzynski_identity_across_sweep(self, geom, pot):
        # Exact identity for a sudden quench; only sampling error intervenes.
        for beta in (2.0**-7, 2.0**-9, 2.0**-11, 2.0**-13):
            ref = classical_free_energy_difference(geom, pot, beta)
            s = sample_classical_work(geom, pot, 200_000, seed=8)
            from chaowork.analysis import jarzynski_from_samples

            est, se = jarzynski_from_samples(s.values, beta)
            assert abs(est - ref) < 3 * se

    def test_cold_temperatures_keep_their_values(self, geom, pot):
        # Values the direct-sum quadrature gave; it overflows at beta = 8.5.
        for beta, expected in ((1.0, -77.83683998692777), (8.0, -83.7829495758722)):
            got = classical_free_energy_difference(geom, pot, beta)
            assert got == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_colder_than_overflow_lies_between_warmer_value_and_jensen_bound(self, geom, pot):
        # Delta F falls with beta towards min W = delta_xi * min V (Jensen: Delta F >= min W).
        vmin, _ = potential_extrema(geom, pot)
        df8 = classical_free_energy_difference(geom, pot, 8.0)
        df10 = classical_free_energy_difference(geom, pot, 10.0)
        assert math.isfinite(df10)
        assert pot.delta_xi * vmin < df10 < df8

    def test_monotone_reference_curve(self, geom, pot):
        betas = [2.0**-k for k in range(7, 14)]
        values = [classical_free_energy_difference(geom, pot, b) for b in betas]
        assert all(np.isfinite(values))
        diffs = np.diff(values)
        assert (diffs > 0).all() or (diffs < 0).all()


class TestDensityOfStates:
    def test_constant_value(self, geom):
        expected = math.pi * (1.0 + math.pi / 4.0)
        for e in (0.5, 5.0, 500.0):
            assert density_of_states(geom, e) == pytest.approx(expected, rel=1e-15)

    def test_laplace_transform_is_partition_function(self, geom):
        # integral exp(-beta E) g dE = pi A / beta, the momentum integral of
        # exp(-beta p^2) over the billiard.
        beta = 0.37
        g = density_of_states(geom, 1.0)
        analytic = math.pi * area(geom) / beta
        assert g / beta == pytest.approx(analytic, rel=1e-12)

    def test_monte_carlo_measure_oracle(self, geom, rng):
        # Measure of {x : H in [E, E+dE]} / dE via uniform phase-space draws.
        e0, de = 3.0, 0.5
        pmax = math.sqrt(e0 + de) * 1.5
        n = 2_000_000
        w, h = geom.bounding_box
        qs = rng.random((n, 2)) * [w, h]
        ps = rng.uniform(-pmax, pmax, size=(n, 2))
        inside = geometry.contains_many(geom, qs)
        energy = (ps * ps).sum(axis=1)
        hit = inside & (energy >= e0) & (energy < e0 + de)
        box_vol = w * h * (2 * pmax) ** 2
        frac = hit.mean()
        est = box_vol * frac / de
        se = box_vol * math.sqrt(frac * (1 - frac) / n) / de
        assert abs(est - density_of_states(geom, e0)) < 3 * se

    def test_requires_positive_energy(self, geom):
        with pytest.raises(ValueError):
            density_of_states(geom, 0.0)


class TestShellConditional:
    def test_quench_shortcut_on_one_shell(self, geom, pot):
        # On a fixed initial shell the final energy is E0 + xi_f V(q) exactly,
        # independent of the momentum direction.
        e0 = 7.0
        ef = shell_final_energy_sample(geom, pot, e0, 20_000, seed=9)
        qs, _ = sample_shell(geom, e0, 20_000, seed=9)
        np.testing.assert_allclose(ef - e0, pot.xi_f * evaluate(pot, qs), atol=1e-9)
