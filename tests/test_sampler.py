import math

import numpy as np
import pytest
from scipy import stats

from chaowork import geometry, sampler

from reference import phase_point


def cell_area_exact(geom, x0, x1, y0, y1):
    """Exact area of [x0,x1] x [y0,y1] intersected with the quarter stadium.

    The domain is 0 <= y <= height(x) with height(x) = r for x <= l and
    sqrt(r^2 - (x-l)^2) for l <= x <= l + r; the clamped column integral has
    an elementary antiderivative.
    """
    r, l = geom.r, geom.l

    def antider(u):
        # integral of sqrt(r^2 - u^2) du
        u = min(max(u, -r), r)
        return 0.5 * (u * math.sqrt(max(r * r - u * u, 0.0)) + r * r * math.asin(u / r))

    x0 = max(x0, 0.0)
    x1 = min(x1, l + r)
    if x1 <= x0:
        return 0.0
    total = 0.0
    # Rectangle part.
    ra, rb = x0, min(x1, l)
    if rb > ra:
        total += (rb - ra) * (min(y1, r) - max(y0, 0.0))
    # Cap part: clamp(sqrt(r^2-(x-l)^2), y0, y1) - y0 integrated in x.
    ca, cb = max(x0, l), x1
    if cb > ca:
        ylo = max(y0, 0.0)
        yhi = min(y1, r)
        # x where the arc crosses yhi and ylo
        x_hi = l + math.sqrt(max(r * r - yhi * yhi, 0.0))
        x_lo = l + math.sqrt(max(r * r - ylo * ylo, 0.0))
        # region 1: arc above yhi -> full strip height
        a1, b1 = ca, min(cb, x_hi)
        if b1 > a1:
            total += (b1 - a1) * (yhi - ylo)
        # region 2: arc between ylo and yhi -> integrate arc - ylo
        a2, b2 = max(ca, x_hi), min(cb, x_lo)
        if b2 > a2:
            total += (antider(b2 - l) - antider(a2 - l)) - ylo * (b2 - a2)
    return max(total, 0.0)


class TestSamplePosition:
    def test_acceptance_rate(self, geom):
        n = 100_000
        rng = sampler.block_generator(1, sampler.STREAM_POSITION, 0)
        # Count proposals by instrumenting the scalar path on a fixed stream.
        w, h = geom.bounding_box
        proposals = rng.random((2 * n, 2)) * [w, h]
        accepted = geometry.contains_many(geom, proposals)
        k = int(accepted[:n].sum())
        p = geometry.area(geom) / (w * h)
        se = math.sqrt(p * (1 - p) / n)
        assert abs(k / n - p) < 3 * se

    def test_samples_inside(self, geom):
        rng = sampler.block_generator(2, sampler.STREAM_POSITION, 0)
        qs = sampler.sample_positions(geom, rng, 5000)
        assert geometry.contains_many(geom, qs).all()

    def test_chi_square_uniformity(self, geom):
        # 10x10 grid of cells clipped to the domain, 10^5 draws.
        n = 100_000
        rng = sampler.block_generator(3, sampler.STREAM_POSITION, 0)
        qs = sampler.sample_positions(geom, rng, n)
        w, h = geom.bounding_box
        ix = np.minimum((qs[:, 0] / w * 10).astype(int), 9)
        iy = np.minimum((qs[:, 1] / h * 10).astype(int), 9)
        counts = np.bincount(ix * 10 + iy, minlength=100).astype(float)
        areas = np.array(
            [
                cell_area_exact(geom, i * w / 10, (i + 1) * w / 10, j * h / 10, (j + 1) * h / 10)
                for i in range(10)
                for j in range(10)
            ]
        )
        keep = areas > 1e-12
        expected = n * areas[keep] / areas[keep].sum()
        _, pvalue = stats.chisquare(counts[keep], expected)
        assert pvalue > 0.001


class TestSampleMomentum:
    def test_equipartition(self):
        beta = 2.0**-6
        rng = sampler.block_generator(5, sampler.STREAM_MOMENTUM, 0)
        p = sampler.sample_momentum(beta, rng, 1_000_000)
        energy = (p * p).sum(axis=1)
        # <H> = 1/beta for two quadratic degrees of freedom.
        se = energy.std(ddof=1) / math.sqrt(energy.size)
        assert abs(energy.mean() - 1.0 / beta) < 3 * se

    def test_zero_mean(self):
        rng = sampler.block_generator(6, sampler.STREAM_MOMENTUM, 0)
        p = sampler.sample_momentum(1.0, rng, 500_000)
        se = p[:, 0].std(ddof=1) / math.sqrt(p.shape[0])
        assert abs(p[:, 0].mean()) < 3 * se

    def test_variance_at_cold_beta(self):
        # Var(px) = 1/(2 beta) = 2^11 at beta = 2^-12.
        beta = 2.0**-12
        rng = sampler.block_generator(7, sampler.STREAM_MOMENTUM, 0)
        p = sampler.sample_momentum(beta, rng, 400_000)
        var = p[:, 0].var(ddof=1)
        # stderr of a sample variance of a Gaussian: var * sqrt(2/(n-1))
        se = var * math.sqrt(2.0 / (p.shape[0] - 1))
        assert abs(var - 2.0**11) < 3 * se

    def test_beta_validation(self):
        rng = sampler.block_generator(8, sampler.STREAM_MOMENTUM, 0)
        with pytest.raises(ValueError):
            sampler.sample_momentum(0.0, rng, 4)


class TestSampleEnsemble:
    def test_determinism(self, geom):
        a = sampler.sample_ensemble(geom, 0.5, 3000, seed=99)
        b = sampler.sample_ensemble(geom, 0.5, 3000, seed=99)
        assert np.array_equal(a.qs, b.qs)
        assert np.array_equal(a.ps, b.ps)

    def test_prefix_stability_across_sizes(self, geom):
        # Blocks are fixed, so a longer run extends a shorter one bit-exactly.
        a = sampler.sample_ensemble(geom, 0.5, 1000, seed=7)
        b = sampler.sample_ensemble(geom, 0.5, 2000, seed=7)
        assert np.array_equal(a.qs, b.qs[:1000])

    def test_disjoint_seeds_same_distribution(self, geom):
        beta = 2.0**-8
        a = sampler.sample_ensemble(geom, beta, 20_000, seed=1)
        b = sampler.sample_ensemble(geom, beta, 20_000, seed=2)
        ha = (a.ps * a.ps).sum(axis=1)
        hb = (b.ps * b.ps).sum(axis=1)
        _, pvalue = stats.ks_2samp(ha, hb)
        assert pvalue > 0.001

    def test_phase_point_access(self, geom):
        ens = sampler.sample_ensemble(geom, 1.0, 10, seed=3)
        assert len(ens) == 10
        pt = phase_point(ens, 4)
        assert geometry.contains(geom, pt.q)
        assert pt.p.shape == (2,)

    def test_paper_scale_ensemble(self, geom):
        # The production sample size at the coldest sweep temperature.
        ens = sampler.sample_ensemble(geom, 2.0**-12, 90_000, seed=11)
        assert len(ens) == 90_000
        assert geometry.contains_many(geom, ens.qs).all()

    def test_rejection_stall_on_broken_geometry(self):
        # A domain whose containment test never accepts must stall loudly.
        from types import SimpleNamespace

        broken = SimpleNamespace(r=-1.0, l=1.0, bounding_box=(2.0, 1.0))
        rng = sampler.block_generator(1, 0, 0)
        with pytest.raises(sampler.RejectionStall):
            sampler.sample_positions(broken, rng, 10)


class TestShellSampling:
    def test_shell_energy_exact(self, geom):
        qs, ps = sampler.sample_shell(geom, 7.3, 2000, seed=5)
        np.testing.assert_allclose((ps * ps).sum(axis=1), 7.3, rtol=1e-12)
        assert geometry.contains_many(geom, qs).all()

    def test_direction_uniform(self, geom):
        _, ps = sampler.sample_shell(geom, 4.0, 50_000, seed=6)
        angles = np.arctan2(ps[:, 1], ps[:, 0])
        counts, _ = np.histogram(angles, bins=16, range=(-math.pi, math.pi))
        _, pvalue = stats.chisquare(counts)
        assert pvalue > 0.001

