import logging

import numpy as np
import pytest

from chaowork import geometry, native, potential, sampler, trajectory
from chaowork.trajectory import checkpoint_action_integrals

import reference
from reference import PhasePoint, action_difference, propagate


def random_interior_state(geom, rng, pscale=1.0):
    while True:
        q = rng.random(2) * geom.bounding_box
        if reference.contains(geom, q):
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
        if not reference.contains(geom, nq):
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
        ens = sampler.sample_ensemble(geom, 40, seed=21)
        beta = 2.0**-6
        times = np.linspace(0.0, 0.5, 7)
        ps = ens.momenta(beta)
        integrals, failed, _ = checkpoint_action_integrals(ens.qs, ps, times, geom, pot)
        assert not failed.any()
        for i in range(len(ens)):
            for k, t in enumerate(times):
                x0 = reference.phase_point(ens, beta, i)
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
    def test_no_bounce_flight_is_the_closed_form(self, geom, q0, p0, t):
        # No wall within t: the engine's value is exactly one closed-form call.
        # The checkpoint takes erf over n bumps, which with 1, 3 and 5 bumps
        # ends in a padded four-lane block; the closed form takes it over
        # the 8n set-up arguments of four flights, which never pad.
        qs, ps = np.array([q0]), np.array([p0])
        pmag = np.hypot(ps[:, 0], ps[:, 1])
        assert reference.first_hit(geom, q0, ps[0] / pmag[0]).path_length > 2.0 * pmag[0] * t
        for n_bumps in (1, 3, 4, 5):
            centers = np.array([*potential.DEFAULT_CENTERS, (0.9, 0.3)])[:n_bumps]
            pot = potential.QuenchPotential(centers=centers, signs=(-1.0) ** np.arange(n_bumps))
            integrals, failed, _ = checkpoint_action_integrals(qs, ps, np.array([t]), geom, pot)
            assert not failed.any()
            cst = potential.segment_constants(pot, qs, ps / pmag[:, None], 2.0 * pmag)
            assert integrals[0, 0] == cst.integral(np.array([t]))[0], n_bumps

    def test_zero_column_at_time_zero(self, geom, pot):
        ens = sampler.sample_ensemble(geom, 16, seed=2)
        integrals, _, _ = checkpoint_action_integrals(
            ens.qs, ens.momenta(1.0), np.array([0.0, 0.2]), geom, pot
        )
        assert np.array_equal(integrals[:, 0], np.zeros(16))
        integrals, failed, _ = checkpoint_action_integrals(
            ens.qs, ens.momenta(1.0), np.zeros(2), geom, pot
        )
        assert np.array_equal(integrals, np.zeros((16, 2)))
        assert not failed.any()

    def test_stationary_rows(self, geom, pot):
        qs = np.array([[0.2, 0.4], [1.5, 0.3]])
        ps = np.zeros((2, 2))
        times = np.array([0.0, 1.0, 2.0])
        integrals, failed, _ = checkpoint_action_integrals(qs, ps, times, geom, pot)
        assert not failed.any()
        v = potential.evaluate(pot, qs)
        np.testing.assert_allclose(integrals, np.outer(v, times), rtol=1e-12, atol=1e-15)

    def test_fast_particles_many_bounces(self, geom, pot):
        # Production-cold momenta: thousands of bounces, still contained and finite.
        ens = sampler.sample_ensemble(geom, 64, seed=5)
        times = np.array([0.0, 1.0, 2.0])
        ps = ens.momenta(2.0**-12)
        integrals, failed, _ = checkpoint_action_integrals(ens.qs, ps, times, geom, pot)
        assert not failed.any()
        assert np.isfinite(integrals).all()
        # The running average of V along an ergodic path stays bounded by max|V|.
        assert (np.abs(integrals[:, 1:]) <= 4.0 * times[1:]).all()

    def test_bounce_cap_marks_failed(self, geom, pot):
        ens = sampler.sample_ensemble(geom, 8, seed=6)
        integrals, failed, _ = checkpoint_action_integrals(
            ens.qs, ens.momenta(2.0**-12), np.array([0.0, 5.0]), geom, pot, max_bounces=3
        )
        assert failed.all()
        assert np.array_equal(integrals[:, 0], np.zeros(8))
        assert np.isnan(integrals[:, 1]).all()

    def test_monotone_time_grid_required(self, geom, pot):
        ens = sampler.sample_ensemble(geom, 4, seed=7)
        with pytest.raises(ValueError):
            checkpoint_action_integrals(ens.qs, ens.z, np.array([0.5, 0.1]), geom, pot)

    @pytest.mark.parametrize(
        "qs,ps,max_bounces",
        [
            (np.full((2, 3), 0.5), np.ones((2, 2)), 10),
            (np.full((2, 2), 0.5), np.ones((3, 2)), 10),
            (np.full((2, 2), 0.5), np.ones((2, 2)), -1),
            (np.full((2, 2), 0.5), np.ones((2, 2)), 2**63),
            (np.full((2, 2), 0.5), np.ones((2, 2)), 2.5),
        ],
    )
    def test_malformed_input_never_reaches_the_engine(
        self, geom, pot, monkeypatch, qs, ps, max_bounces
    ):
        def refuse():
            raise AssertionError("the engine was loaded")

        monkeypatch.setattr(native, "load", refuse)
        with pytest.raises(ValueError):
            checkpoint_action_integrals(
                qs, ps, np.array([0.0, 0.1]), geom, pot, max_bounces=max_bounces
            )

    def test_grazing_reflection_is_logged(self, geom, pot, caplog):
        # Along the top wall into the arc's apex: d . n is exactly 0 there.
        qs, ps = np.array([[0.5, 1.0]]), np.array([[1.0, 0.0]])
        times = np.array([0.0, 0.2, 0.2500005])
        with caplog.at_level(logging.WARNING, logger="chaowork.trajectory"):
            _, _, counts = checkpoint_action_integrals(qs, ps, times, geom, pot, 100)
        assert "1 grazing reflections encountered; reflected anyway" in caplog.text
        _, _, ref = reference.checkpoint_action_integrals_numpy(qs, ps, times, geom, pot, 100)
        assert counts.grazing == ref.grazing == 1
        assert np.array_equal(counts.segments, ref.segments)


class TestAgainstNumpyEngine:
    """The compiled engine against the numpy engine in reference.py.

    The geometry is the same arithmetic in the same order, so flight and
    bounce counts, event totals, failure flags and the checkpoints each ray
    reached agree exactly; the integrals differ only in how the bump sum and
    exp round.
    """

    @pytest.mark.parametrize("max_bounces", [trajectory.MAX_BOUNCES_DEFAULT, 40])
    @pytest.mark.parametrize("log2_beta", [-4, -8, -12])
    @pytest.mark.parametrize("seed", [3, 11, 29])
    def test_bitwise_geometry(self, geom, pot, seed, log2_beta, max_bounces):
        beta = 2.0**log2_beta
        ens = sampler.sample_ensemble(geom, 40, seed)
        # Two stationary rows and one ray into the corner at the origin.
        qs = np.vstack([ens.qs, [[0.5, 0.5]]])
        ps = np.vstack([ens.momenta(beta), [[-1.0, -1.0]]])
        ps[:2] = 0.0
        end = 60.0 * np.sqrt(beta)  # about 70 bounces at every beta
        times = np.union1d(np.linspace(0.0, end, 17), np.linspace(0.0, end / 4, 9))
        quarter = np.searchsorted(times, end / 4)

        got, failed, counts = checkpoint_action_integrals(qs, ps, times, geom, pot, max_bounces)
        want, want_failed, ref = reference.checkpoint_action_integrals_numpy(
            qs, ps, times, geom, pot, max_bounces
        )
        assert np.array_equal(failed, want_failed)
        assert np.array_equal(failed, np.isnan(got[:, -1]))
        assert np.array_equal(np.isnan(got), np.isnan(want))
        assert np.array_equal(counts.segments, ref.segments)
        assert np.array_equal(counts.bounces, ref.bounces)
        assert (counts.grazing, counts.corner) == (ref.grazing, ref.corner)
        assert counts.corner >= 1
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)
        assert np.array_equal(got[:, 0], np.zeros(len(qs)))
        assert not failed[:2].any()
        if max_bounces == 40:
            # Some rays pass the cap before end / 4, more only after it.
            assert 0 < np.isnan(got[:, quarter]).sum() < failed.sum() < len(qs)
        else:
            assert not failed.any()


class TestLanes:
    """The engine traces four rays at a time, one per vector lane, and a lane
    whose ray stops takes the next one.  No lane may see another's ray: in
    every batch each ray has the bits it has when traced alone."""

    # Still rays, rays into three corners and thermal rays of several
    # speeds, so that rays end at different steps and lanes refill mid-batch.
    CORNERS = (((0.5, 0.5), (-1.0, -1.0)), ((0.5, 0.5), (-1.0, 1.0)), ((1.5, 0.5), (1.0, -1.0)))
    # Rays straight down and straight left: each reflection at normal
    # incidence leaves an exact 0 component, whose lane takes the C library's
    # hypot beside lanes that take the four-lane one.
    AXES = (((0.5, 0.5), (0.0, -1.0)), ((0.5, 0.5), (-1.0, 0.0)))

    @pytest.fixture(scope="class")
    def rays(self, geom):
        ens = sampler.sample_ensemble(geom, 6, seed=13)
        ps = ens.momenta(2.0**-6) * np.array([0.0, 0.1, 1.0, 0.0, 3.0, 10.0])[:, None]
        qs = np.vstack([ens.qs, [q for q, _ in self.CORNERS + self.AXES]])
        ps = np.vstack([ps, [p for _, p in self.CORNERS + self.AXES]])
        return qs, ps

    TIMES = {
        "all at zero": np.zeros(3),
        "first few at zero": np.array([0.0, 0.0, 0.0, 0.05, 0.2, 0.35, 0.5]),
    }

    @pytest.mark.parametrize("times_case", list(TIMES))
    @pytest.mark.parametrize("max_bounces", [0, 1, 3, trajectory.MAX_BOUNCES_DEFAULT])
    def test_each_ray_has_its_bits_alone(self, geom, pot, rays, max_bounces, times_case):
        qs, ps = rays
        times = self.TIMES[times_case]
        alone = [
            checkpoint_action_integrals(qs[i : i + 1], ps[i : i + 1], times, geom, pot, max_bounces)
            for i in range(len(qs))
        ]
        rng = np.random.default_rng(max_bounces % 1000)
        corners = 0
        for size in range(1, len(qs) + 1):
            pick = rng.permutation(len(qs))[:size]
            got, failed, counts = checkpoint_action_integrals(
                qs[pick], ps[pick], times, geom, pot, max_bounces
            )
            for row, i in enumerate(pick):
                integrals, one_failed, one = alone[i]
                assert np.array_equal(got[row], integrals[0], equal_nan=True), (size, i)
                assert failed[row] == one_failed[0]
                assert counts.segments[row] == one.segments[0]
                assert counts.bounces[row] == one.bounces[0]
            assert counts.grazing == sum(alone[i][2].grazing for i in pick)
            assert counts.corner == sum(alone[i][2].corner for i in pick)
            corners = max(corners, counts.corner)

            want, want_failed, ref = reference.checkpoint_action_integrals_numpy(
                qs[pick], ps[pick], times, geom, pot, max_bounces
            )
            assert np.array_equal(failed, want_failed)
            assert np.array_equal(np.isnan(got), np.isnan(want))
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)
            assert np.array_equal(counts.segments, ref.segments)
            assert np.array_equal(counts.bounces, ref.bounces)
            assert (counts.grazing, counts.corner) == (ref.grazing, ref.corner)
        if times[-1] > 0.0:
            assert corners >= 1
        else:
            assert corners == 0
