import numpy as np
import pytest

from chaowork import geometry, potential, sampler
from chaowork.trajectory import checkpoint_action_integrals

import reference
from reference import PhasePoint, action_difference, propagate


def random_interior_state(geom, rng, pscale=1.0):
    while True:
        q = rng.random(2) * geom.bounding_box
        if geometry.contains(geom, q):
            break
    return PhasePoint(q=q, p=rng.normal(scale=pscale, size=2))


def march_endpoint(geom, x0, t, step=1e-5):
    """Small-step reference propagator: march, reflect on exit."""
    q = x0.q.copy()
    p = x0.p.copy()
    pmag = np.hypot(p[0], p[1])
    if pmag == 0.0:
        return q, p
    d = p / pmag
    speed = 2.0 * pmag
    n_steps = int(round(t * speed / step))
    for _ in range(n_steps):
        nq = q + d * step
        if not geometry.contains(geom, nq):
            hit = reference.first_hit(geom, q, d)
            d = reference.reflect(d, hit.inward_normal)
            d /= np.hypot(d[0], d[1])
            nq = q + d * step
        q = nq
    return q, d * pmag


class TestPropagate:
    def test_stationary_particle(self, geom):
        x0 = PhasePoint(q=np.array([0.4, 0.6]), p=np.zeros(2))
        end, segs = propagate(x0, 3.0, geom)
        np.testing.assert_array_equal(end.q, x0.q)
        np.testing.assert_array_equal(end.p, x0.p)
        assert len(segs) == 1
        assert segs[0].speed == 0.0
        assert segs[0].duration == 3.0

    def test_single_bounce_off_top_wall(self, geom):
        # Vertical launch; speed 2p, so the wall at distance 0.5 is reached at
        # t = 0.25/p and the momentum flips sign.
        p = 0.8
        x0 = PhasePoint(q=np.array([0.5, 0.5]), p=np.array([0.0, p]))
        t = 0.5 / (2.0 * p) + 0.1
        end, segs = propagate(x0, t, geom)
        np.testing.assert_allclose(end.p, [0.0, -p], atol=1e-12)
        np.testing.assert_allclose(end.q, [0.5, 1.0 - 2.0 * p * 0.1], atol=1e-9)
        assert len(segs) == 2

    def test_momentum_magnitude_conserved(self, geom, rng):
        for _ in range(20):
            x0 = random_interior_state(geom, rng, pscale=4.0)
            end, _ = propagate(x0, 2.0, geom)
            assert np.hypot(*end.p) == pytest.approx(np.hypot(*x0.p), rel=1e-12)

    def test_against_ray_marching(self, geom, rng):
        for _ in range(5):
            x0 = random_interior_state(geom, rng, pscale=1.0)
            t = 0.4
            end, _ = propagate(x0, t, geom)
            q_ref, _ = march_endpoint(geom, x0, t)
            assert np.abs(end.q - q_ref).max() < 1e-3

    def test_segment_durations_sum_to_t(self, geom, rng):
        x0 = random_interior_state(geom, rng, pscale=10.0)
        t = 1.7
        _, segs = propagate(x0, t, geom)
        assert sum(s.duration for s in segs) == pytest.approx(t, rel=1e-12)

    def test_segment_endpoints_inside(self, geom, rng):
        x0 = random_interior_state(geom, rng, pscale=8.0)
        _, segs = propagate(x0, 1.0, geom)
        for s in segs:
            assert reference.contains_with_tol(geom, s.start)
            endpt = s.start + s.direction * s.speed * s.duration
            assert reference.contains_with_tol(geom, endpt)

    def test_reversibility_short_times(self, geom, rng):
        # Forward t, flip momentum, forward t again returns to the start
        # while the bounce count stays small.
        for _ in range(5):
            x0 = random_interior_state(geom, rng, pscale=2.0)
            t = 0.6
            mid, segs = propagate(x0, t, geom)
            assert len(segs) <= 11
            back, _ = propagate(PhasePoint(q=mid.q, p=-mid.p), t, geom)
            assert np.abs(back.q - x0.q).max() < 1e-6

    def test_bounce_limit(self, geom):
        x0 = PhasePoint(q=np.array([0.5, 0.5]), p=np.array([0.0, 50.0]))
        with pytest.raises(reference.BounceLimitExceeded):
            propagate(x0, 10.0, geom, max_bounces=5)


class TestActionDifference:
    def test_zero_time(self, geom, pot):
        x0 = PhasePoint(q=np.array([0.3, 0.4]), p=np.array([1.0, 0.5]))
        assert action_difference(x0, 0.0, geom, pot) == 0.0

    def test_null_quench(self, geom, rng):
        pot0 = potential.QuenchPotential(xi_f=0.0, xi_0=0.0)
        x0 = random_interior_state(geom, rng, pscale=3.0)
        assert action_difference(x0, 1.3, geom, pot0) == 0.0

    def test_against_path_quadrature(self, geom, pot, rng):
        # Simpson along the exact piecewise path at step sigma/50.
        for _ in range(5):
            x0 = random_interior_state(geom, rng, pscale=3.0)
            t = 0.9
            got = action_difference(x0, t, geom, pot)
            _, segs = propagate(x0, t, geom)
            ref = 0.0
            for s in segs:
                ref += reference._segment_simpson(
                    pot, s.start, s.direction, s.speed, s.duration, step=pot.sigma / 50.0
                )
            ref *= pot.delta_xi
            assert got == pytest.approx(ref, rel=1e-6, abs=1e-6)

    def test_additivity(self, geom, pot, rng):
        for _ in range(5):
            x0 = random_interior_state(geom, rng, pscale=3.0)
            t1, t2 = 0.37, 0.55
            whole = action_difference(x0, t1 + t2, geom, pot)
            mid, _ = propagate(x0, t1, geom)
            parts = action_difference(x0, t1, geom, pot) + action_difference(mid, t2, geom, pot)
            assert whole == pytest.approx(parts, rel=1e-10, abs=1e-10)


class TestCheckpointEngine:
    def test_matches_scalar_reference(self, geom, pot):
        ens = sampler.sample_ensemble(geom, 2.0**-6, 40, seed=21)
        times = np.linspace(0.0, 0.5, 7)
        [integrals], failed = checkpoint_action_integrals(ens.qs, ens.ps, [times], geom, pot)
        assert not failed.any()
        for i in range(len(ens)):
            for k, t in enumerate(times):
                x0 = reference.phase_point(ens, i)
                ref = action_difference(x0, float(t), geom, pot) / pot.delta_xi
                assert integrals[i, k] == pytest.approx(ref, abs=1e-10)

    @pytest.mark.parametrize(
        "q0,p0,t",
        [
            ((1.9, 0.1), (0.0, 0.05), 0.3),
            ((0.3, 0.3), (0.5, 0.2), 0.2),
            ((1.2, 0.9), (0.3, -0.1), 0.4),
        ],
    )
    def test_no_bounce_flight_is_the_closed_form(self, geom, pot, q0, p0, t):
        # No wall within t: the engine's value is exactly one closed-form call.
        qs, ps = np.array([q0]), np.array([p0])
        pmag = np.hypot(ps[:, 0], ps[:, 1])
        assert reference.first_hit(geom, q0, ps[0] / pmag[0]).path_length > 2.0 * pmag[0] * t
        [integrals], failed = checkpoint_action_integrals(qs, ps, [np.array([t])], geom, pot)
        assert not failed.any()
        cst = potential.segment_constants(pot, qs, ps / pmag[:, None], 2.0 * pmag)
        assert integrals[0, 0] == cst.integral(np.array([t]))[0]

    def test_zero_column_at_time_zero(self, geom, pot):
        ens = sampler.sample_ensemble(geom, 1.0, 16, seed=2)
        [integrals], _ = checkpoint_action_integrals(
            ens.qs, ens.ps, [np.array([0.0, 0.2])], geom, pot
        )
        assert np.array_equal(integrals[:, 0], np.zeros(16))

    def test_stationary_rows(self, geom, pot):
        qs = np.array([[0.2, 0.4], [1.5, 0.3]])
        ps = np.zeros((2, 2))
        times = np.array([0.0, 1.0, 2.0])
        [integrals], failed = checkpoint_action_integrals(qs, ps, [times], geom, pot)
        assert not failed.any()
        v = potential.evaluate(pot, qs)
        np.testing.assert_allclose(integrals, np.outer(v, times), rtol=1e-12, atol=1e-15)

    def test_fast_particles_many_bounces(self, geom, pot):
        # Production-cold momenta: thousands of bounces, still contained and finite.
        ens = sampler.sample_ensemble(geom, 2.0**-12, 64, seed=5)
        times = np.array([0.0, 1.0, 2.0])
        [integrals], failed = checkpoint_action_integrals(ens.qs, ens.ps, [times], geom, pot)
        assert not failed.any()
        assert np.isfinite(integrals).all()
        # The running average of V along an ergodic path stays bounded by max|V|.
        assert (np.abs(integrals[:, 1:]) <= 4.0 * times[1:]).all()

    def test_bounce_cap_marks_failed(self, geom, pot):
        ens = sampler.sample_ensemble(geom, 2.0**-12, 8, seed=6)
        _, failed = checkpoint_action_integrals(
            ens.qs, ens.ps, [np.array([0.0, 5.0])], geom, pot, max_bounces=3
        )
        assert failed.all()

    def test_monotone_time_grid_required(self, geom, pot):
        ens = sampler.sample_ensemble(geom, 1.0, 4, seed=7)
        with pytest.raises(ValueError):
            checkpoint_action_integrals(ens.qs, ens.ps, [np.array([0.5, 0.1])], geom, pot)
