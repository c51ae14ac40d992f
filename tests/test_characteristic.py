import numpy as np
import pytest

from chaowork import characteristic, geometry, potential, sampler
from chaowork.characteristic import (
    Request,
    plan_from_window,
    plan_u_grid,
    semiclassical_characteristic,
    shell_characteristic,
)
from chaowork.potential import QuenchPotential

BETA_COLD = 2.0**-12


@pytest.fixture(scope="module")
def plan(geom_mod, pot_mod):
    return plan_u_grid(geom_mod, pot_mod, seed=12345, n_u=512)


@pytest.fixture(scope="module")
def geom_mod():
    return geometry.BilliardGeometry()


@pytest.fixture(scope="module")
def pot_mod():
    return potential.default_potential()


@pytest.fixture(scope="module")
def small_grid(geom_mod, pot_mod, plan):
    ens = sampler.sample_ensemble(geom_mod, BETA_COLD, 1000, seed=12345)
    [g] = semiclassical_characteristic([Request(ens, plan, 1.0)], geom_mod, pot_mod)
    return g


class TestPlanner:
    def test_duality(self, plan, pot_mod):
        # du = 2 pi / padded span; the span covers the work support.
        span = 2.0 * np.pi / plan.du
        assert span > 2.0 * pot_mod.xi_f  # raw support is about [-85, 85]
        assert plan.u_values[0] == 0.0
        assert plan.n_onesided == 512
        np.testing.assert_allclose(np.diff(plan.u_values), plan.du, rtol=1e-12)

    def test_explicit_window(self):
        p = plan_from_window(-10.0, 30.0, n_u=64)
        assert p.w_center == 10.0
        assert p.du == pytest.approx(2.0 * np.pi / 40.0, rel=1e-15)

    def test_deterministic(self, geom_mod, pot_mod):
        a = plan_u_grid(geom_mod, pot_mod, seed=3, n_u=128)
        b = plan_u_grid(geom_mod, pot_mod, seed=3, n_u=128)
        assert np.array_equal(a.u_values, b.u_values)
        assert a.w_center == b.w_center


class TestSemiclassicalEstimator:
    def test_value_at_zero_is_exactly_one(self, small_grid):
        assert small_grid.g_values[0] == 1.0 + 0.0j
        assert small_grid.stderr_re[0] == 0.0

    def test_null_quench_gives_unity(self, geom_mod, plan):
        pot0 = QuenchPotential(xi_f=0.0, xi_0=0.0)
        ens = sampler.sample_ensemble(geom_mod, 1.0, 200, seed=4)
        [g] = semiclassical_characteristic([Request(ens, plan, 1.0)], geom_mod, pot0)
        assert np.array_equal(g.g_values, np.ones(512, dtype=complex))

    def test_modulus_bounded(self, small_grid):
        assert (np.abs(small_grid.g_values) <= 1.0 + 1e-12).all()

    def test_hermitian_symmetry_bitwise(self, geom_mod, pot_mod, plan):
        # Mirrored grids: G(-u) is the exact conjugate, bit for bit.
        ens = sampler.sample_ensemble(geom_mod, 2.0**-8, 300, seed=9)
        u = plan.u_values[:64]
        [g_pos] = semiclassical_characteristic([Request(ens, u, 1.0)], geom_mod, pot_mod)
        [g_neg] = semiclassical_characteristic([Request(ens, -u[::-1], 1.0)], geom_mod, pot_mod)
        assert np.array_equal(g_neg.g_values, np.conj(g_pos.g_values)[::-1])

    def test_regression_pinned_values(self, small_grid):
        # Frozen from the first verified run (engine checked against the
        # scalar propagator and the estimator invariants above).
        expected = {
            1: 0.9756632990215492 - 0.010342066877789225j,
            8: 0.7954555728212291 - 0.054395925852936663j,
            64: 0.23372070413414173 - 0.12503983026112117j,
            256: -0.04175094833616338 - 0.02325373721160713j,
            511: 0.0038097799504138 + 0.050649184899854705j,
        }
        for k, val in expected.items():
            assert small_grid.g_values[k] == pytest.approx(val, abs=1e-12)

    def test_stderr_scaling(self, geom_mod, pot_mod):
        # stderr ~ N^(-1/2) within 20 percent across three decades.
        u = np.arange(16) * 0.3
        ses = {}
        for n in (1_000, 10_000, 100_000):
            ens = sampler.sample_ensemble(geom_mod, 2.0**-8, n, seed=31)
            [g] = semiclassical_characteristic([Request(ens, u, 1.0)], geom_mod, pot_mod)
            ses[n] = np.median(g.stderr[4:])
        for a, b in ((1_000, 10_000), (10_000, 100_000)):
            ratio = ses[a] / ses[b]
            assert ratio == pytest.approx(np.sqrt(10.0), rel=0.2)

    def test_worker_count_invariance(self, geom_mod, pot_mod, plan, small_grid):
        ens = sampler.sample_ensemble(geom_mod, BETA_COLD, 1000, seed=12345)
        [g2] = semiclassical_characteristic(
            [Request(ens, plan, 1.0)], geom_mod, pot_mod, workers=2, chunk_size=256
        )
        [g1] = semiclassical_characteristic(
            [Request(ens, plan, 1.0)], geom_mod, pot_mod, workers=1, chunk_size=256
        )
        assert np.array_equal(g1.g_values, g2.g_values)
        assert np.array_equal(g1.stderr_re, g2.stderr_re)

    def test_failure_budget_enforced(self, geom_mod, pot_mod, plan):
        ens = sampler.sample_ensemble(geom_mod, BETA_COLD, 100, seed=5)
        with pytest.raises(characteristic.ExcessiveFailures):
            semiclassical_characteristic(
                [Request(ens, plan, 1.0)], geom_mod, pot_mod, max_bounces=2
            )

    def test_grid_must_contain_zero(self, geom_mod, pot_mod):
        ens = sampler.sample_ensemble(geom_mod, 1.0, 50, seed=6)
        with pytest.raises(ValueError):
            semiclassical_characteristic(
                [Request(ens, np.array([0.1, 0.2, 0.3]), 1.0)], geom_mod, pot_mod
            )

    def test_hbar_must_be_positive(self, geom_mod, pot_mod, plan):
        ens = sampler.sample_ensemble(geom_mod, 1.0, 50, seed=6)
        with pytest.raises(ValueError):
            semiclassical_characteristic([Request(ens, plan, 0.0)], geom_mod, pot_mod)


class TestShellEstimator:
    def test_single_shell_at_zero(self, geom_mod, pot_mod):
        u = np.arange(8) * 0.3
        g = shell_characteristic(
            2.0**-8, u, 1.0, geom_mod, pot_mod, [5.0], samples_per_shell=128, seed=3
        )
        assert g.g_values[0] == 1.0 + 0.0j

    def test_null_quench(self, geom_mod):
        pot0 = QuenchPotential(xi_f=0.0)
        u = np.arange(8) * 0.3
        g = shell_characteristic(
            2.0**-8, u, 1.0, geom_mod, pot0, [2.0, 4.0], samples_per_shell=64, seed=3
        )
        assert np.array_equal(g.g_values, np.ones(8, dtype=complex))

    def test_energies_must_increase(self, geom_mod, pot_mod):
        with pytest.raises(ValueError):
            shell_characteristic(
                1.0, np.array([0.0, 0.1]), 1.0, geom_mod, pot_mod, [3.0, 2.0], 16, 1
            )

    def test_consistent_with_boltzmann_estimator(self, geom_mod, pot_mod):
        # Dense shells spanning the Boltzmann support against the direct
        # estimator; the coarse-grained energy average must agree pointwise
        # within combined statistical error.
        beta = 2.0**-10
        base = plan_u_grid(geom_mod, pot_mod, seed=12345, n_u=512)
        u = base.u_values[:96]
        e_max = 14.0 / beta
        n_shells = 96
        de = e_max / n_shells
        energies = (np.arange(n_shells) + 0.5) * de
        g_shell = shell_characteristic(
            beta, u, 1.0, geom_mod, pot_mod, energies, samples_per_shell=256, seed=17
        )
        ens = sampler.sample_ensemble(geom_mod, beta, 16_384, seed=18)
        [g_direct] = semiclassical_characteristic([Request(ens, u, 1.0)], geom_mod, pot_mod)
        diff = np.abs(g_shell.g_values - g_direct.g_values)
        combined = np.hypot(g_shell.stderr, g_direct.stderr)
        # Small floor absorbs the finite shell-spacing bias of the energy sum.
        assert (diff[1:] < 3.0 * combined[1:] + 3e-3).all()


class TestSharedTraces:
    """One call traces rays once for every request that shares them."""

    @pytest.fixture(scope="class")
    def requests(self, geom_mod, pot_mod):
        # beta = 2^-8, 2^-10, 2^-12 at one seed share rays (momenta 2^k apart);
        # 2^-11 (ratio sqrt 2) gets its own trace.
        plan_a = plan_u_grid(geom_mod, pot_mod, seed=12345, n_u=64)
        plan_b = plan_from_window(-150.0, 120.0, n_u=48)
        ens = {k: sampler.sample_ensemble(geom_mod, 2.0**-k, 1000, 7) for k in (8, 10, 11, 12)}
        reqs = [
            Request(ens[k], plan, hbar, collect_covariance=plan is plan_a)
            for k in (8, 10, 12)
            for hbar in (0.5, 1.0)
            for plan in (plan_a, plan_b)
        ]
        return reqs + [Request(ens[11], plan_a, 1.0, collect_covariance=True)]

    @pytest.mark.parametrize("workers,chunk_size", [(1, characteristic.CHUNK_SIZE), (2, 256)])
    def test_batch_matches_one_request_calls(
        self, geom_mod, pot_mod, requests, workers, chunk_size
    ):
        kw = {"workers": workers, "chunk_size": chunk_size}
        grids = semiclassical_characteristic(requests, geom_mod, pot_mod, **kw)
        assert len(grids) == len(requests)
        for req, g in zip(requests, grids):
            [one] = semiclassical_characteristic([req], geom_mod, pot_mod, **kw)
            assert np.array_equal(g.u_values, one.u_values)
            assert np.array_equal(g.g_values, one.g_values)
            assert np.array_equal(g.stderr_re, one.stderr_re)
            assert np.array_equal(g.stderr_im, one.stderr_im)
            assert (g.n_samples, g.n_failed) == (one.n_samples, one.n_failed)
            assert (g.beta, g.hbar, g.w_center) == (one.beta, one.hbar, one.w_center)
            if req.collect_covariance:
                assert np.array_equal(g.second_moment, one.second_moment)
            else:
                assert g.second_moment is None and one.second_moment is None

    def test_grouping_follows_the_arrays(self, geom_mod):
        ens = [sampler.sample_ensemble(geom_mod, 2.0**-k, 50, seed=7) for k in (8, 11, 12, 10)]
        other_seed = sampler.sample_ensemble(geom_mod, 2.0**-8, 50, seed=8)
        groups = characteristic._share_traces([*ens, other_seed, ens[0]])
        assert groups == [[(0, 0.25), (2, 1.0), (3, 0.5), (5, 0.25)], [(1, 1.0)], [(4, 1.0)]]

    def test_failures_count_per_request(self, geom_mod, pot_mod):
        # With a low bounce cap, rows that pass the cap only after the short
        # request's last checkpoint fail for the long request alone.
        ens = sampler.sample_ensemble(geom_mod, 2.0**-8, 400, seed=3)
        short, long = np.linspace(0.0, 0.05, 5), np.linspace(0.0, 0.5, 9)
        member = (1.0, pot_mod.delta_xi, False)

        def sums(times):
            args = (ens.qs, ens.ps, times, geom_mod, pot_mod, 2, [member] * len(times))
            return characteristic._chunk_phase_sums(args)

        s_short, s_long = sums([short, long])
        [alone] = sums([short])
        assert 0 < s_short[5] < s_long[5]
        assert s_short[4:6] == alone[4:6]
        for a, b in zip(s_short[:4], alone[:4]):
            assert np.array_equal(a, b)

    def test_bad_request_raises_before_tracing(self, geom_mod, pot_mod, plan, monkeypatch):
        traced = []
        monkeypatch.setattr(
            characteristic.trajectory,
            "checkpoint_action_integrals",
            lambda *args: traced.append(args),
        )
        ens = sampler.sample_ensemble(geom_mod, 1.0, 50, seed=6)
        good = Request(ens, plan, 1.0)
        two_sided = np.concatenate([-plan.u_values[:0:-1], plan.u_values])
        for bad in (
            Request(ens, plan, 0.0),
            Request(ens, np.array([0.1, 0.2, 0.3]), 1.0),
            Request(ens, np.array([0.0, 0.1, 0.3]), 1.0),
            Request(ens, two_sided, 1.0, collect_covariance=True),
        ):
            with pytest.raises(ValueError):
                semiclassical_characteristic([good, good, bad], geom_mod, pot_mod)
        assert traced == []
