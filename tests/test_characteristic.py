import sys
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from chaowork import (
    analysis,
    characteristic,
    geometry,
    native,
    potential,
    sampler,
    spectra,
    trajectory,
)
from chaowork.characteristic import (
    Request,
    UGridPlan,
    plan_from_window,
    plan_u_grid,
    semiclassical_characteristic,
)
from chaowork.potential import QuenchPotential

from reference import (
    covariance_stderr,
    engine_cos_sin,
    numpy_cos_sin,
    request_sums,
    shell_characteristic,
)

BETA_COLD = 2.0**-12


def jarzynski_request(beta, plan, hbar=1.0):
    """A request carrying the Jarzynski functional at two bins of broadening."""
    [c] = analysis.jarzynski_functionals(plan, [beta], 2.0 * plan.dw)
    return Request(beta, plan, hbar, functional=c)


def oracle_cos_sin():
    """The cos and sin ``request_sums`` takes for the engine ``native.load``
    gives: numpy's, whose bits glibc's sincos has, or on the four-lane path
    the engine's own libmvec values."""
    lib = native.load()
    return numpy_cos_sin if lib.math_lanes() == 1 else lambda x: engine_cos_sin(lib, x)


def chunk_sums(integrals, columns, coef, functional):
    """One request's ``_request_sums`` over a chunk's integrals."""
    c = None if functional is None else np.asarray(functional, dtype=float)
    return characteristic._request_sums(integrals, np.asarray(columns, dtype=np.int64), coef, c)


@pytest.fixture(scope="module")
def plan(geom_mod, pot_mod):
    return plan_u_grid(geom_mod, pot_mod, seed=12345, n_u=512)


@pytest.fixture(scope="module")
def geom_mod():
    return geometry.BilliardGeometry()


@pytest.fixture(scope="module")
def pot_mod():
    return potential.QuenchPotential()


@pytest.fixture(scope="module")
def small_grid(geom_mod, pot_mod, plan):
    ens = sampler.sample_ensemble(geom_mod, 1000, seed=12345)
    [g] = semiclassical_characteristic(ens, [Request(BETA_COLD, plan, 1.0)], geom_mod, pot_mod)
    return g


@pytest.fixture
def serial_pool(monkeypatch):
    """characteristic's ThreadPoolExecutor replaced by one that runs each
    task in the calling thread when its result is taken.  The record holds
    the pool sizes asked for and the most results submitted and not yet
    taken."""
    record = SimpleNamespace(workers=[], outstanding=0, most_outstanding=0)

    class Future:
        def __init__(self, func, args):
            self.call = lambda: func(*args)
            record.outstanding += 1
            record.most_outstanding = max(record.most_outstanding, record.outstanding)

        def result(self):
            record.outstanding -= 1
            return self.call()

    class SerialPool:
        def __init__(self, workers):
            record.workers.append(workers)

        def submit(self, func, *args):
            return Future(func, args)

        def shutdown(self, cancel_futures=False):
            pass

    monkeypatch.setattr(characteristic, "ThreadPoolExecutor", SerialPool)
    return record


class TestPlanner:
    def test_duality(self, plan, pot_mod):
        # du = 2 pi / padded span; the span covers the work support.
        span = 2.0 * np.pi / plan.du
        assert span > 2.0 * pot_mod.xi_f  # raw support is about [-85, 85]
        assert plan.u_values[0] == 0.0
        assert plan.n == 512
        np.testing.assert_allclose(np.diff(plan.u_values), plan.du, rtol=1e-12)

    def test_bad_plans_rejected(self):
        for du in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="du"):
                UGridPlan(du, 16)
        for n in (0, 1, 2.5):
            with pytest.raises(ValueError, match="n must"):
                UGridPlan(0.1, n)

    def test_plan_owns_the_dual_w_grid(self):
        # 2n - 1 bins of width 2 pi / ((2n - 1) du), the middle one on w_center.
        p = plan_from_window(-10.0, 30.0, n_u=64)
        w = p.w_values
        assert w.size == 127
        assert w[63] == p.w_center
        assert p.dw == 2.0 * np.pi / (127 * p.du)
        np.testing.assert_allclose(np.diff(w), p.dw, rtol=1e-12)
        grid = characteristic.CharacteristicGrid(p, np.ones(64), *np.zeros((2, 64)), 0, 1.0, 1.0)
        assert np.array_equal(grid.u_values, p.u_values)

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
        ens = sampler.sample_ensemble(geom_mod, 200, seed=4)
        [g] = semiclassical_characteristic(ens, [Request(1.0, plan, 1.0)], geom_mod, pot0)
        assert np.array_equal(g.g_values, np.ones(512, dtype=complex))

    def test_modulus_bounded(self, small_grid):
        assert (np.abs(small_grid.g_values) <= 1.0 + 1e-12).all()

    def test_regression_pinned_values(self, small_grid):
        # Frozen from a verified run (engine checked against the scalar
        # propagator and the estimator invariants above); re-pinned when rays
        # moved to unit-temperature momenta, which is statistically the same.
        expected = {
            1: 0.9756632990215492 - 0.01034206687778919j,
            8: 0.7954558927867035 - 0.0544013795274016j,
            64: 0.25997582269752373 - 0.09823258007650584j,
            256: -0.004479054313858708 - 0.03489757033103968j,
            511: -0.040806065248761327 + 0.016477482704834467j,
        }
        for k, val in expected.items():
            assert small_grid.g_values[k] == pytest.approx(val, abs=1e-12)

    def test_stderr_scaling(self, geom_mod, pot_mod):
        # stderr ~ N^(-1/2) within 20 percent across three decades.
        u = UGridPlan(0.3, 16)
        ses = {}
        for n in (1_000, 10_000, 100_000):
            ens = sampler.sample_ensemble(geom_mod, n, seed=31)
            [g] = semiclassical_characteristic(ens, [Request(2.0**-8, u, 1.0)], geom_mod, pot_mod)
            ses[n] = np.median(np.hypot(g.stderr_re, g.stderr_im)[4:])
        for a, b in ((1_000, 10_000), (10_000, 100_000)):
            ratio = ses[a] / ses[b]
            assert ratio == pytest.approx(np.sqrt(10.0), rel=0.2)

    def test_worker_count_invariance(self, geom_mod, pot_mod, plan, small_grid, monkeypatch):
        monkeypatch.setattr(characteristic, "CHUNK_SIZE", 256)
        ens = sampler.sample_ensemble(geom_mod, 1000, seed=12345)
        req = Request(BETA_COLD, plan, 1.0)
        [g2] = semiclassical_characteristic(ens, [req], geom_mod, pot_mod, workers=2)
        [g1] = semiclassical_characteristic(ens, [req], geom_mod, pot_mod, workers=1)
        # Three threads, more than a 2-vCPU runner's cores, switching every microsecond.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            [g3] = semiclassical_characteristic(ens, [req], geom_mod, pot_mod, workers=3)
        finally:
            sys.setswitchinterval(interval)
        for g in (g2, g3):
            assert np.array_equal(g1.g_values, g.g_values)
            assert np.array_equal(g1.stderr_re, g.stderr_re)
        # The four chunks' trace counts, merged, are the whole ensemble's.
        trace = g1.metadata["trace"]
        assert g2.metadata["trace"] == g3.metadata["trace"] == trace
        times = characteristic._prepare(req).times
        _, _, counts = trajectory.checkpoint_action_integrals(
            ens.qs, ens.z, times, geom_mod, pot_mod
        )
        assert trace["segments"] == counts.segments.sum()
        p50, p99 = np.quantile(counts.bounces, [0.5, 0.99], method="inverted_cdf")
        assert (trace["bounce_p50"], trace["bounce_p99"]) == (p50, p99)
        assert trace["bounce_max"] == counts.bounces.max()
        assert (trace["grazing"], trace["corner"]) == (counts.grazing, counts.corner)

    def test_pool_no_larger_than_chunk_count(
        self, geom_mod, pot_mod, plan, serial_pool, monkeypatch
    ):
        monkeypatch.setattr(characteristic, "CHUNK_SIZE", 256)
        ens = sampler.sample_ensemble(geom_mod, 600, seed=12345)
        req = Request(BETA_COLD, plan, 1.0)
        [g64] = semiclassical_characteristic(ens, [req], geom_mod, pot_mod, workers=64)
        [g1] = semiclassical_characteristic(ens, [req], geom_mod, pot_mod, workers=1)
        assert serial_pool.workers == [3]
        assert np.array_equal(g64.g_values, g1.g_values)
        assert np.array_equal(g64.stderr_re, g1.stderr_re)
        assert np.array_equal(g64.stderr_im, g1.stderr_im)

    def test_pool_results_taken_in_a_window(self, geom_mod, pot_mod, serial_pool, monkeypatch):
        # 24 chunks on 2 workers: a straggler may leave later chunks' results
        # waiting, but never more than 2 x workers of them.
        plan = plan_u_grid(geom_mod, pot_mod, seed=12345, n_u=16)
        ens = sampler.sample_ensemble(geom_mod, 24 * 32, seed=12345)
        req = jarzynski_request(BETA_COLD, plan)
        monkeypatch.setattr(characteristic, "CHUNK_SIZE", 32)
        [g2] = semiclassical_characteristic(ens, [req], geom_mod, pot_mod, workers=2)
        [g1] = semiclassical_characteristic(ens, [req], geom_mod, pot_mod, workers=1)
        assert serial_pool.workers == [2]
        assert serial_pool.most_outstanding == 4
        assert serial_pool.outstanding == 0
        assert np.array_equal(g2.g_values, g1.g_values)
        assert g2.functional_stderr == g1.functional_stderr

    def test_failure_budget_enforced(self, geom_mod, pot_mod, plan):
        ens = sampler.sample_ensemble(geom_mod, 100, seed=5)
        with pytest.raises(characteristic.ExcessiveFailures):
            semiclassical_characteristic(
                ens, [Request(BETA_COLD, plan, 1.0)], geom_mod, pot_mod, max_bounces=2
            )

    def test_depends_on_beta_and_hbar_through_their_ratio(self, geom_mod, pot_mod):
        # G depends on (beta, hbar) only through hbar / sqrt(beta): 8 at both
        # (2^-6, 1) and (2^-10, 0.25), to the bit.
        plan = plan_u_grid(geom_mod, pot_mod, seed=12345, n_u=64)
        ens = sampler.sample_ensemble(geom_mod, 1000, seed=5)
        [a] = semiclassical_characteristic(ens, [Request(2.0**-6, plan, 1.0)], geom_mod, pot_mod)
        [b] = semiclassical_characteristic(ens, [Request(2.0**-10, plan, 0.25)], geom_mod, pot_mod)
        assert np.array_equal(a.g_values, b.g_values)
        assert np.array_equal(a.stderr_re, b.stderr_re)
        assert np.array_equal(a.stderr_im, b.stderr_im)

    def test_hbar_must_be_positive(self, geom_mod, pot_mod, plan):
        ens = sampler.sample_ensemble(geom_mod, 50, seed=6)
        with pytest.raises(ValueError):
            semiclassical_characteristic(ens, [Request(1.0, plan, 0.0)], geom_mod, pot_mod)


class TestKernelCut:
    """A request that names its broadening traces only the leading u points
    whose kernel is at least KERNEL_TOL; at the tests' tiny config (64 u,
    1,200 samples, beta 2^-8, hbar 0.5, two bins of broadening)."""

    @pytest.fixture(scope="class")
    def tiny(self, geom_mod, pot_mod):
        plan = plan_u_grid(geom_mod, pot_mod, seed=777, n_u=64)
        ens = sampler.sample_ensemble(geom_mod, 1200, seed=777)
        eps = 2.0 * plan.dw
        [c] = analysis.jarzynski_functionals(plan, [2.0**-8], eps)
        k = plan.kept(eps)
        # The same functional with the coefficients of the cut u points zeroed.
        c0 = c.copy()
        c0[k : plan.n] = c0[plan.n + k :] = 0.0
        cut = Request(2.0**-8, plan, 0.5, c, eps)
        [g_cut] = semiclassical_characteristic(ens, [cut], geom_mod, pot_mod)
        [g_all] = semiclassical_characteristic(
            ens, [Request(2.0**-8, plan, 0.5, c0)], geom_mod, pot_mod
        )
        return plan, eps, g_cut, g_all

    def test_kept_prefix_has_the_uncut_bits(self, tiny):
        plan, eps, g_cut, g_all = tiny
        k = g_cut.metadata["u_traced"]
        kernel = plan.kernel(eps)
        assert kernel[k - 1] >= characteristic.KERNEL_TOL > kernel[k]
        assert 1 < k < plan.n
        assert g_cut.n_failed == g_all.n_failed == 0
        for name in ("g_values", "stderr_re", "stderr_im"):
            cut, full = getattr(g_cut, name), getattr(g_all, name)
            assert cut[:k].tobytes() == full[:k].tobytes(), name
            assert not cut[k:].any(), name
        # f takes the kept coefficients only, as if the others were 0.
        assert g_cut.functional_stderr == g_all.functional_stderr
        assert g_cut.metadata["kernel_tol"] == characteristic.KERNEL_TOL
        assert g_all.metadata["kernel_tol"] is None
        assert g_all.metadata["u_traced"] == plan.n

    def test_density_moves_within_the_kernel_bound(self, tiny):
        # |G| <= 1 and (2n - 1) dw du = 2 pi: the L1 change is at most twice
        # the sum of the dropped kernel values.
        plan, eps, g_cut, g_all = tiny
        k = g_cut.metadata["u_traced"]
        cut, full = spectra.invert(g_cut, eps), spectra.invert(g_all, eps)
        bound = 2.0 * plan.kernel(eps)[k:].sum()
        assert 0.0 < analysis.l1_distance(cut, full) <= bound < 1e-5

    def test_trace_segments_fall(self, tiny):
        _, _, g_cut, g_all = tiny
        assert g_cut.metadata["trace"]["segments"] < g_all.metadata["trace"]["segments"]

    def test_aliasing_fires_where_nothing_is_cut(self, geom_mod, plan):
        # Half a bin of broadening leaves the kernel at u_max near 0.3, far
        # above KERNEL_TOL, so every u is traced and the null quench's
        # G = 1 there trips the guard.
        pot0 = QuenchPotential(xi_f=0.0, xi_0=0.0)
        ens = sampler.sample_ensemble(geom_mod, 200, seed=4)
        eps = 0.5 * plan.dw
        req = Request(1.0, plan, 1.0, broadening=eps)
        assert req.u_traced == plan.n
        [g] = semiclassical_characteristic(ens, [req], geom_mod, pot0)
        assert g.metadata["u_traced"] == plan.n
        with pytest.raises(spectra.AliasingSuspect):
            spectra.invert(g, eps)


class TestShellEstimator:
    def test_single_shell_at_zero(self, geom_mod, pot_mod):
        u = UGridPlan(0.3, 8)
        g = shell_characteristic(
            2.0**-8, u, 1.0, geom_mod, pot_mod, [5.0], samples_per_shell=128, seed=3
        )
        assert g.g_values[0] == 1.0 + 0.0j

    def test_null_quench(self, geom_mod):
        pot0 = QuenchPotential(xi_f=0.0)
        u = UGridPlan(0.3, 8)
        g = shell_characteristic(
            2.0**-8, u, 1.0, geom_mod, pot0, [2.0, 4.0], samples_per_shell=64, seed=3
        )
        assert np.array_equal(g.g_values, np.ones(8, dtype=complex))

    def test_energies_must_increase(self, geom_mod, pot_mod):
        with pytest.raises(ValueError):
            shell_characteristic(
                1.0, UGridPlan(0.1, 2), 1.0, geom_mod, pot_mod, [3.0, 2.0], 16, 1
            )

    def test_consistent_with_boltzmann_estimator(self, geom_mod, pot_mod):
        # Dense shells spanning the Boltzmann support against the direct
        # estimator; the coarse-grained energy average must agree pointwise
        # within combined statistical error.
        beta = 2.0**-10
        base = plan_u_grid(geom_mod, pot_mod, seed=12345, n_u=512)
        u = UGridPlan(base.du, 96, base.w_center)
        e_max = 14.0 / beta
        n_shells = 96
        de = e_max / n_shells
        energies = (np.arange(n_shells) + 0.5) * de
        g_shell = shell_characteristic(
            beta, u, 1.0, geom_mod, pot_mod, energies, samples_per_shell=256, seed=17
        )
        ens = sampler.sample_ensemble(geom_mod, 16_384, seed=18)
        [g_direct] = semiclassical_characteristic(ens, [Request(beta, u, 1.0)], geom_mod, pot_mod)
        diff = np.abs(g_shell.g_values - g_direct.g_values)
        combined = np.hypot(
            np.hypot(g_shell.stderr_re, g_shell.stderr_im),
            np.hypot(g_direct.stderr_re, g_direct.stderr_im),
        )
        # Small floor absorbs the finite shell-spacing bias of the energy sum.
        assert (diff[1:] < 3.0 * combined[1:] + 3e-3).all()


class TestSharedTraces:
    """One call traces each ray of the ensemble once for every request."""

    @pytest.fixture(scope="module")
    def ens(self, geom_mod):
        return sampler.sample_ensemble(geom_mod, 1000, 7)

    @pytest.fixture(scope="class")
    def requests(self, geom_mod, pot_mod):
        plan_a = plan_u_grid(geom_mod, pot_mod, seed=12345, n_u=64)
        plan_b = plan_from_window(-150.0, 120.0, n_u=48)
        # Requests on plan_a carry a functional, those on plan_b none.
        reqs = [
            (jarzynski_request if plan is plan_a else Request)(2.0**-k, plan, hbar)
            for k in (8, 10, 12)
            for hbar in (0.5, 1.0)
            for plan in (plan_a, plan_b)
        ]
        # Two requests traced only where their kernel is at least KERNEL_TOL.
        reqs += [
            Request(2.0**-9, plan_b, 1.0, broadening=2.0 * plan_b.dw),
            replace(jarzynski_request(2.0**-10, plan_a, 0.5), broadening=2.0 * plan_a.dw),
        ]
        # Momenta sqrt 2 apart from the others: inside the same trace too.
        return reqs + [jarzynski_request(2.0**-11, plan_a)]

    @pytest.mark.parametrize("workers,chunk_size", [(1, characteristic.CHUNK_SIZE), (2, 256)])
    def test_batch_matches_one_request_calls(
        self, geom_mod, pot_mod, ens, requests, workers, chunk_size, monkeypatch
    ):
        monkeypatch.setattr(characteristic, "CHUNK_SIZE", chunk_size)
        grids = semiclassical_characteristic(ens, requests, geom_mod, pot_mod, workers=workers)
        assert len(grids) == len(requests)
        for req, g in zip(requests, grids):
            [one] = semiclassical_characteristic(ens, [req], geom_mod, pot_mod, workers=workers)
            assert np.array_equal(g.u_values, one.u_values)
            assert np.array_equal(g.g_values, one.g_values)
            assert np.array_equal(g.stderr_re, one.stderr_re)
            assert np.array_equal(g.stderr_im, one.stderr_im)
            assert (g.n_samples, g.n_failed) == (one.n_samples, one.n_failed)
            assert (g.beta, g.hbar, g.plan) == (one.beta, one.hbar, one.plan)
            if req.functional is not None:
                assert np.array_equal(g.functional, req.functional)
                assert g.functional_stderr == one.functional_stderr
            else:
                assert g.functional is None and one.functional is None
                assert g.functional_stderr is None and one.functional_stderr is None

    def test_one_trace_per_chunk_for_any_beta(self, geom_mod, pot_mod, monkeypatch):
        # fig3-sweep's betas on a 64-point plan: one engine call per chunk,
        # on the ensemble's unit-temperature momenta, with one array of the
        # 128 distinct checkpoint times of the three requests' 192.
        ens = sampler.sample_ensemble(geom_mod, 600, seed=11)
        plan = plan_u_grid(geom_mod, pot_mod, seed=11, n_u=64)
        engine = characteristic.trajectory.checkpoint_action_integrals
        calls = []

        def counted(qs, ps, times, *rest):
            calls.append((qs, ps, times))
            return engine(qs, ps, times, *rest)

        monkeypatch.setattr(characteristic.trajectory, "checkpoint_action_integrals", counted)
        monkeypatch.setattr(characteristic, "CHUNK_SIZE", 256)
        requests = [Request(2.0**-k, plan, 1.0) for k in (8, 10, 12)]
        semiclassical_characteristic(ens, requests, geom_mod, pot_mod)
        own = [characteristic._prepare(req).times for req in requests]
        assert sum(t.size for t in own) == 192
        assert len(calls) == 3
        for (qs, ps, times), lo in zip(calls, (0, 256, 512)):
            assert np.array_equal(qs, ens.qs[lo : lo + 256])
            assert np.array_equal(ps, ens.z[lo : lo + 256])
            assert times.shape == (128,)
            assert np.array_equal(times, np.unique(np.concatenate(own)))

    def test_failures_count_per_request(self, geom_mod, pot_mod):
        # With a low bounce cap, rows that pass the cap only after the short
        # request's last checkpoint fail for the long request alone.
        ens = sampler.sample_ensemble(geom_mod, 400, seed=3)
        short, long = np.linspace(0.0, 0.05, 5), np.linspace(0.0, 0.5, 9)

        def sums(requests):
            times = np.unique(np.concatenate(requests))
            spec = [(np.searchsorted(times, t), pot_mod.delta_xi, None) for t in requests]
            args = (ens.qs, ens.momenta(2.0**-8), times, geom_mod, pot_mod, 2, spec)
            return characteristic._chunk_phase_sums(args)[0]

        s_short, s_long = sums([short, long])
        assert 0 < s_short[2] < s_long[2]
        for shared, [alone] in ((s_short, sums([short])), (s_long, sums([long]))):
            assert shared[1:3] == alone[1:3]
            assert np.array_equal(shared[0], alone[0])

    def test_reduction_holds_one_chunk_at_a_time(self, geom_mod, pot_mod, monkeypatch):
        # Seven requests with a functional over 128 chunks: each chunk brings
        # (4, 128) sums per request, 3.7 MB over all chunks.  The fold peaks
        # at 0.5 MB (1.6 MB in a fresh process); keeping every chunk's sums
        # until the last one is traced peaks at 4.3 MB.
        plan = plan_u_grid(geom_mod, pot_mod, seed=12345, n_u=128)
        requests = [jarzynski_request(2.0**-k, plan) for k in range(7, 14)]
        ens = sampler.sample_ensemble(geom_mod, 2048, seed=12345)
        monkeypatch.setattr(characteristic, "CHUNK_SIZE", 16)
        tracemalloc.start()
        try:
            grids = semiclassical_characteristic(ens, requests, geom_mod, pot_mod, workers=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(grids) == 7
        assert peak < 3e6

    def test_bad_request_raises_before_tracing(self, geom_mod, pot_mod, plan, monkeypatch):
        traced = []
        monkeypatch.setattr(
            characteristic.trajectory,
            "checkpoint_action_integrals",
            lambda *args: traced.append(args),
        )
        ens = sampler.sample_ensemble(geom_mod, 50, seed=6)
        good = Request(1.0, plan, 1.0)
        short = np.ones(plan.n)  # the cos coefficients only
        nan = np.full(2 * plan.n, np.nan)
        for bad in (
            Request(0.0, plan, 1.0),
            Request(1.0, plan, 0.0),
            Request(1.0, plan, 1.0, functional=short),
            Request(1.0, plan, 1.0, functional=nan),
            Request(1.0, plan, 1.0, broadening=-1.0),
            Request(1.0, plan, 1.0, broadening=float("nan")),
        ):
            with pytest.raises(ValueError):
                semiclassical_characteristic(ens, [good, good, bad], geom_mod, pot_mod)
        raw = Request(1.0, plan.u_values, 1.0)
        with pytest.raises(TypeError, match="ndarray"):
            semiclassical_characteristic(ens, [good, good, raw], geom_mod, pot_mod)
        assert traced == []


class TestChunkSums:
    """One traced chunk's sums: taken by the engine's phase_sums with the
    bits of numpy's one-shot sums, in the memory the trace guard counts.
    On the four-lane path the one-shot sums take the engine's own cos and
    sin, so row order and -0.0 are still held to the bit."""

    def test_sums_match_one_shot_sums(self, rng):
        rows, times = 2565, 40
        integrals = np.cumsum(rng.standard_normal((rows, times)) * 30.0, axis=1)
        # Rays that stop early read NaN from their last checkpoint on.
        for i, j in zip(rng.choice(rows, 61, replace=False), rng.integers(1, times, 61)):
            integrals[i, j:] = np.nan
        columns = np.arange(3, times, 2)
        good = np.count_nonzero(~np.isnan(integrals[:, columns[-1]]))
        assert good == rows - 61
        c = rng.standard_normal(2 * columns.size)
        for functional in (None, c):
            for coef in (0.7, -1.9):
                got = chunk_sums(integrals.copy(), columns, coef, functional)
                ref = request_sums(integrals.copy(), columns, coef, True, oracle_cos_sin())
                assert got[1:3] == ref[1:3]
                assert got[0].tobytes() == ref[0].tobytes()
                if functional is None:
                    assert got[3] == (0, 0.0, 0.0)
                    continue
                # n mean = c . sum v, and the squared deviations of f are
                # c^T (v^T v) c - n mean^2, for v = [cos; sin].
                n, mean, dev = got[3]
                assert n == ref[1]
                assert n * mean == pytest.approx(c @ np.concatenate(ref[0][:2]), rel=1e-12)
                assert dev == pytest.approx(c @ ref[3] @ c - n * mean**2, rel=1e-12)

    # Rows that fail (NaN at the request's last column) with each case's good
    # rows: gaps between them, one alone, none, and good rows whose integrals
    # at t = 0 take a negative coef to phases of -0.0, the first good row's
    # among them: numpy's sum(axis=0) starts from +0.0, so their sin sums to
    # +0.0, where a sum started from the first good row gives -0.0.
    GOOD_ROWS = {
        "gaps": [0, 1, 4, 5, 6, 11, 17, 18],
        "one": [9],
        "none": [],
        "minus zero first": [2, 3, 7, 12],
    }

    @pytest.mark.parametrize("case", list(GOOD_ROWS))
    @pytest.mark.parametrize("coef", [0.7, -1.9])
    def test_engine_sums_have_the_numpy_bits(self, rng, case, coef):
        rows, times = 19, 12
        integrals = np.cumsum(rng.standard_normal((rows, times)) * 30.0, axis=1)
        good = self.GOOD_ROWS[case]
        for i in set(range(rows)) - set(good):
            integrals[i, rng.integers(1, times) :] = np.nan
        if case == "minus zero first":
            integrals[good, :3] = 0.0
        columns = np.array([0, 1, 2, 4, 7, 8, 11])
        functional = rng.standard_normal(2 * columns.size)
        for c in (None, functional):
            sums, ok, failed, f_moments = chunk_sums(integrals, columns, coef, c)
            ref = request_sums(integrals, columns, coef, False, oracle_cos_sin())
            assert (ok, failed) == (len(good), rows - len(good)) == ref[1:3]
            assert sums.tobytes() == ref[0].tobytes()
            if c is None or not good:
                assert f_moments == (0, 0.0, 0.0)
            else:
                phases = integrals[np.ix_(good, columns)] * coef
                f = np.concatenate(oracle_cos_sin()(phases), axis=1) @ c
                assert f_moments[0] == len(good)
                assert f_moments[1] == pytest.approx(f.mean(), rel=1e-12)
                assert f_moments[2] == pytest.approx(np.var(f) * f.size, rel=1e-9, abs=1e-12)
        if case == "minus zero first":
            assert (sums[1, :3] == 0.0).all() and not np.signbit(sums[1, :3]).any()

    def test_functional_error_of_a_narrow_spread(self, rng):
        # f = cos(phi) for phases of 1e-4: a spread of ~1e-8 on a mean of 1,
        # where sum f^2 - (sum f)^2 / n keeps no digit of the variance.
        rows = 2565
        integrals = 1e-4 * rng.standard_normal((rows, 2))
        columns, functional = np.arange(2), np.array([1.0, 0.0, 0.0, 0.0])
        total = characteristic._Total(Request(1.0, UGridPlan(1.0, 2), 1.0, functional))
        for chunk in (integrals[:700], integrals[700:]):
            total.add(*chunk_sums(chunk.copy(), columns, 1.0, functional))
        f = oracle_cos_sin()(integrals[:, :1])[0][:, 0]
        assert total.f_moments[0] == rows
        assert total.f_moments[1] == pytest.approx(f.mean(), rel=1e-15)
        assert total.f_moments[2] == pytest.approx(((f - f.mean()) ** 2).sum(), rel=1e-9, abs=0.0)

    def test_baseline_build_sums_have_the_numpy_bits(self, baseline, monkeypatch):
        # The three tests above on the build without the four-lane path,
        # whose glibc sincos gives numpy's cos and sin: the oracle takes
        # numpy's, as it did before the engine took libmvec's.
        monkeypatch.setattr(native, "load", lambda: baseline)
        assert oracle_cos_sin() is numpy_cos_sin

        def rng():
            return np.random.default_rng(20240817)

        self.test_sums_match_one_shot_sums(rng())
        for case in self.GOOD_ROWS:
            for coef in (0.7, -1.9):
                self.test_engine_sums_have_the_numpy_bits(rng(), case, coef)
        self.test_functional_error_of_a_narrow_spread(rng())

    @pytest.mark.parametrize("functional", [False, True])
    def test_chunk_peak_within_the_guard(self, geom_mod, pot_mod, functional):
        plan = plan_u_grid(geom_mod, pot_mod, seed=12345, n_u=64)
        rows = characteristic.CHUNK_SIZE
        ens = sampler.sample_ensemble(geom_mod, rows, seed=12345)
        req = jarzynski_request(BETA_COLD, plan)
        grid = characteristic._prepare(req)
        c = req.functional if functional else None
        spec = [(np.arange(plan.n), pot_mod.delta_xi / grid.scale, c)]
        args = (ens.qs, ens.z, grid.times, geom_mod, pot_mod, trajectory.MAX_BOUNCES_DEFAULT, spec)
        # Build the engine and import what its first call imports, untraced.
        characteristic._chunk_phase_sums((ens.qs[:4], ens.z[:4], *args[2:]))
        tracemalloc.start()
        try:
            characteristic._chunk_phase_sums(args)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # The chunk's integrals and its vectors of rows: 1.07 (1.10 with the
        # functional) times its integrals; 5.0 when numpy took its phases
        # and 7.0 with their second moment.
        assert peak < 2 * 8 * rows * plan.n
        assert peak <= characteristic._chunk_bytes(rows, plan.n, int(functional))


class TestFunctionalError:
    """The standard error of a request's functional, from two running sums,
    against the full phase covariance contracted with it."""

    @pytest.mark.parametrize("beta", [2.0**-8, BETA_COLD])
    def test_matches_the_covariance_oracle(self, geom_mod, pot_mod, beta, monkeypatch):
        plan = plan_u_grid(geom_mod, pot_mod, seed=12345, n_u=64)
        req = jarzynski_request(beta, plan)
        rows = 3372
        ens = sampler.sample_ensemble(geom_mod, rows, seed=23)
        # Three rays stop early, inside the failure budget: 3,369 good rows.
        lost = [5, 1500, 3000]
        engine = characteristic.trajectory.checkpoint_action_integrals

        def lossy(qs, *rest):
            integrals, failed, counts = engine(qs, *rest)
            for i in lost:
                at = np.flatnonzero(np.all(qs == ens.qs[i], axis=1))
                integrals[at, 40:] = np.nan
            return integrals, failed, counts

        monkeypatch.setattr(characteristic.trajectory, "checkpoint_action_integrals", lossy)
        monkeypatch.setattr(characteristic, "CHUNK_SIZE", 1024)
        [g1] = semiclassical_characteristic(ens, [req], geom_mod, pot_mod, workers=1)
        [g2] = semiclassical_characteristic(ens, [req], geom_mod, pot_mod, workers=2)
        assert g1.n_samples == rows - len(lost) and g1.n_samples % 1024

        grid = characteristic._prepare(req)
        integrals, _, _ = lossy(
            ens.qs, ens.z, grid.times, geom_mod, pot_mod, trajectory.MAX_BOUNCES_DEFAULT
        )
        coef = pot_mod.delta_xi / (req.hbar * grid.scale)
        sums, ok, _, moment = request_sums(integrals, np.arange(plan.n), coef, True)
        expected = covariance_stderr(sums, ok, moment, req.functional)
        assert g1.functional_stderr == pytest.approx(expected, rel=1e-9, abs=0.0)
        assert g2.functional_stderr == g1.functional_stderr
        assert 0.0 < g1.functional_stderr
