import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from chaowork import potential
from chaowork.potential import QuenchPotential, evaluate

from reference import _segment_simpson, evaluate_whole, segment_integral


def direct_eval_longdouble(pot, q):
    """Independent extended-precision evaluation of the bump sum."""
    total = np.longdouble(0.0)
    for c, s in zip(pot.centers, pot.signs):
        dx = np.longdouble(q[0]) - np.longdouble(c[0])
        dy = np.longdouble(q[1]) - np.longdouble(c[1])
        total += np.longdouble(s) * np.exp(-(dx * dx + dy * dy) / (2 * np.longdouble(pot.sigma) ** 2))
    return total


class TestEvaluate:
    def test_far_from_all_bumps(self, pot):
        # 10 sigma away from everything: bounded by 4 exp(-50).
        q = (1.9, 0.1)
        for c in pot.centers:
            assert np.hypot(q[0] - c[0], q[1] - c[1]) >= 10 * pot.sigma
        assert abs(evaluate(pot, q)) < 4 * math.exp(-50)

    def test_at_first_center_against_direct_arithmetic(self, pot):
        v = evaluate(pot, (0.2, 0.4))
        ref = direct_eval_longdouble(pot, (0.2, 0.4))
        assert v == pytest.approx(float(ref), abs=1e-15)
        # first bump contributes exactly 1 there
        assert abs(v - 1.0) < 0.005

    def test_sign_flip_negates(self, pot, rng):
        flipped = QuenchPotential(
            centers=pot.centers, signs=-pot.signs, sigma=pot.sigma, xi_f=pot.xi_f
        )
        qs = rng.random((50, 2)) * [2.0, 1.0]
        np.testing.assert_allclose(evaluate(flipped, qs), -evaluate(pot, qs), atol=1e-15)

    @given(x=st.floats(-1.0, 3.0), y=st.floats(-1.0, 2.0))
    def test_bounded_by_bump_count(self, x, y):
        pot = QuenchPotential()
        assert abs(evaluate(pot, (x, y))) <= 4.0

    def test_batch_matches_scalar(self, pot, rng):
        qs = rng.random((20, 2))
        batch = evaluate(pot, qs)
        for i, q in enumerate(qs):
            assert batch[i] == pytest.approx(evaluate(pot, q), rel=1e-14, abs=1e-15)

    @pytest.mark.parametrize("rows", [65537, 131075])
    def test_blocks_keep_the_bits_of_one_pass(self, pot, rng, rows):
        # A one-row tail is never cut off (a one-row ``@`` sums in another
        # order); full blocks and a three-row tail are.
        assert rows % potential._BLOCK_ROWS == (1 if rows == 65537 else 3)
        qs = rng.random((rows, 2)) * [2.0, 1.0]
        # End on a point whose value alone differs from its value among
        # others, where this BLAS has one, so a cut one-row tail would show.
        alone = np.array([evaluate_whole(pot, q[None])[0] for q in qs[:64]])
        differs = np.flatnonzero(alone != evaluate_whole(pot, qs[:64]))
        if differs.size:
            qs[-1] = qs[differs[0]]
        assert evaluate(pot, qs).tobytes() == evaluate_whole(pot, qs).tobytes()

    @pytest.mark.parametrize("rows", [1, 2, 8191, 8192, 8193, 65537, 1_000_000])
    def test_long_axis_keeps_the_bits_of_the_row_major_formula(self, pot, rng, rows):
        # The offsets and exponentials are formed along the rows; the sum
        # over the bumps sees the same C-ordered (rows, bumps) bytes.
        qs = rng.random((rows, 2)) * [2.0, 1.0]
        assert evaluate(pot, qs).tobytes() == evaluate_whole(pot, qs).tobytes()

    def test_lone_point_keeps_the_bits_of_the_row_major_formula(self, pot, rng):
        for q in rng.random((50, 2)) * [2.0, 1.0]:
            got = evaluate(pot, q)
            assert isinstance(got, float)
            assert np.float64(got).tobytes() == np.float64(evaluate_whole(pot, q)).tobytes()

    def test_stacked_points_keep_their_shape(self, pot, rng):
        qs = rng.random((3, 5, 2))
        got = evaluate(pot, qs)
        assert got.shape == (3, 5)
        np.testing.assert_allclose(got, evaluate_whole(pot, qs), rtol=1e-15, atol=1e-16)

    def test_default_parameters(self, pot):
        np.testing.assert_array_equal(
            pot.centers, [[0.2, 0.4], [0.67, 0.5], [0.5, 0.15], [0.3, 0.75]]
        )
        np.testing.assert_array_equal(pot.signs, [1.0, -1.0, 1.0, -1.0])
        assert pot.sigma == 0.1
        assert pot.xi_0 == 0.0
        assert pot.xi_f == 85.0


class TestSegmentIntegral:
    def test_zero_duration(self, pot):
        assert segment_integral(pot, (0.3, 0.3), (1.0, 0.0), 2.0, 0.0) == 0.0

    @given(
        x=st.floats(0.05, 0.9),
        y=st.floats(0.05, 0.9),
        theta=st.floats(0.0, 2.0 * math.pi),
        speed=st.floats(0.1, 50.0),
        t1=st.floats(0.0, 1.0),
        t2=st.floats(0.0, 1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_additivity(self, x, y, theta, speed, t1, t2):
        pot = QuenchPotential()
        q0 = np.array([x, y])
        d = np.array([math.cos(theta), math.sin(theta)])
        whole = segment_integral(pot, q0, d, speed, t1 + t2)
        first = segment_integral(pot, q0, d, speed, t1)
        second = segment_integral(pot, q0 + d * speed * t1, d, speed, t2)
        assert whole == pytest.approx(first + second, abs=1e-12)

    def test_against_adaptive_quadrature(self, pot, rng):
        # Random segments through the bump region vs scipy adaptive quadrature.
        for _ in range(40):
            q0 = rng.random(2) * [1.0, 1.0]
            theta = rng.random() * 2 * math.pi
            d = np.array([math.cos(theta), math.sin(theta)])
            speed = 0.2 + rng.random() * 30.0
            duration = rng.random() * 1.5
            got = segment_integral(pot, q0, d, speed, duration)
            ref = quad(
                lambda t: evaluate(pot, q0 + d * speed * t),
                0.0,
                duration,
                epsabs=1e-12,
                epsrel=1e-12,
                limit=400,
            )[0]
            assert got == pytest.approx(ref, abs=1e-10)

    @given(
        x=st.floats(0.1, 0.9),
        y=st.floats(0.1, 0.9),
        theta=st.floats(0.0, 2.0 * math.pi),
        speed=st.floats(0.5, 20.0),
        duration=st.floats(0.0, 1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_time_reversal_symmetry(self, x, y, theta, speed, duration):
        pot = QuenchPotential()
        q0 = np.array([x, y])
        d = np.array([math.cos(theta), math.sin(theta)])
        q_end = q0 + d * speed * duration
        fwd = segment_integral(pot, q0, d, speed, duration)
        back = segment_integral(pot, q_end, -d, speed, duration)
        assert fwd == pytest.approx(back, abs=1e-12)

    def test_stationary_segment(self, pot):
        q0 = (0.2, 0.4)
        got = segment_integral(pot, q0, (1.0, 0.0), 0.0, 2.5)
        assert got == pytest.approx(evaluate(pot, q0) * 2.5, rel=1e-14)

    def test_closed_form_vs_simpson_thousand_segments(self, pot, rng):
        # The two methods agree to 1e-8 relative over 10^3 random segments.
        n = 1000
        q0 = rng.random((n, 2)) * [1.2, 1.0]
        theta = rng.random(n) * 2 * math.pi
        speeds = 0.2 + rng.random(n) * 40.0
        durations = rng.random(n) * 1.0
        worst = 0.0
        for i in range(n):
            d = np.array([math.cos(theta[i]), math.sin(theta[i])])
            a = segment_integral(pot, q0[i], d, speeds[i], durations[i])
            b = _segment_simpson(pot, q0[i], d, speeds[i], durations[i])
            # Relative with an absolute floor: bump-cancelling segments have
            # integrals near zero where a pure ratio is meaningless.
            worst = max(worst, abs(a - b) / max(abs(a), 1e-4))
        assert worst < 1e-8

    def test_negative_duration_rejected(self, pot):
        with pytest.raises(ValueError):
            segment_integral(pot, (0.3, 0.3), (1.0, 0.0), 1.0, -0.1)


class TestValidation:
    def test_sigma_must_be_positive(self):
        with pytest.raises(ValueError):
            QuenchPotential(sigma=0.0)

    def test_signs_length_checked(self):
        with pytest.raises(ValueError):
            QuenchPotential(signs=np.array([1.0, -1.0]))
