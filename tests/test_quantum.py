import math

import numpy as np
import pytest

from chaowork import characteristic, geometry, quantum, spectra
from chaowork.potential import QuenchPotential, default_potential
from chaowork.quantum import (
    GridTooCoarse,
    DimensionMismatch,
    TruncationDominates,
    build_hamiltonians,
    eigensolve,
    quantum_characteristic,
    quantum_jarzynski,
    quantum_work_distribution,
    solve_quench,
    transition_matrix,
)


class Rectangle:
    """Dirichlet box test hook with an analytic spectrum."""

    def __init__(self, a, b):
        self.a = a
        self.b = b

    @property
    def bounding_box(self):
        return (self.a, self.b)

    def contains(self, q):
        return 0.0 < q[0] < self.a and 0.0 < q[1] < self.b

    def analytic_levels(self, hbar, count):
        vals = sorted(
            hbar**2 * math.pi**2 * (m**2 / self.a**2 + n**2 / self.b**2)
            for m in range(1, 25)
            for n in range(1, 25)
        )
        return np.array(vals[:count])


@pytest.fixture(scope="module")
def small_spec():
    geom = geometry.BilliardGeometry()
    pot = default_potential()
    return solve_quench(geom, pot, hbar=1.0, h=0.055)


class TestGridAndHamiltonians:
    def test_rectangle_lowest_eigenvalue(self):
        rect = Rectangle(1.0, 0.8)
        pot0 = QuenchPotential(xi_f=0.0)
        h0, _, _ = build_hamiltonians(rect, pot0, hbar=1.0, h=0.02)
        vals, _ = eigensolve(h0, 3)
        analytic = rect.analytic_levels(1.0, 3)
        # O(h^2) envelope: at h=0.02 the lowest level sits within ~0.1%.
        assert vals[0] == pytest.approx(analytic[0], rel=2e-3)

    def test_rectangle_h_squared_scaling(self):
        # Halving h cuts each of the lowest-10 eigenvalue errors by ~4.
        rect = Rectangle(1.0, 0.8)
        pot0 = QuenchPotential(xi_f=0.0)
        analytic = rect.analytic_levels(1.0, 10)
        errs = {}
        for h in (0.05, 0.025):
            ham, _, _ = build_hamiltonians(rect, pot0, hbar=1.0, h=h)
            vals, _ = eigensolve(ham, 10)
            errs[h] = np.abs(vals - analytic)
        ratio = errs[0.05] / errs[0.025]
        assert ((ratio > 3.5) & (ratio < 4.5)).all()

    def test_null_quench_identical_matrices(self, geom):
        pot0 = QuenchPotential(xi_f=0.0)
        h0, hf, _ = build_hamiltonians(geom, pot0, hbar=1.0, h=0.06)
        assert (h0 != hf).nnz == 0
        assert np.array_equal(h0.data, hf.data)

    def test_exact_symmetry(self, geom, pot):
        h0, hf, _ = build_hamiltonians(geom, pot, hbar=1.0, h=0.06)
        for ham in (h0, hf):
            assert (ham != ham.T).nnz == 0

    def test_grid_too_coarse(self, geom, pot):
        with pytest.raises(GridTooCoarse):
            build_hamiltonians(geom, pot, hbar=1.0, h=0.4)

    def test_sites_strictly_inside(self, geom, pot):
        _, _, grid = build_hamiltonians(geom, pot, hbar=1.0, h=0.05)
        assert geometry.contains_many(geom, grid.coords).all()
        # no site on the straight walls
        assert (grid.coords > 0.0).all()
        assert (grid.coords[:, 1] < geom.r).all()


class TestEigensolve:
    def test_partial_matches_dense(self, geom, pot):
        h0, _, _ = build_hamiltonians(geom, pot, hbar=1.0, h=0.08)
        dim = h0.shape[0]
        dense_vals, _ = eigensolve(h0, dim)
        part_vals, part_vecs = eigensolve(h0, 12)
        np.testing.assert_allclose(part_vals, dense_vals[:12], rtol=1e-9)
        assert part_vecs.shape == (dim, 12)

    def test_trace_identity_full_spectrum(self, small_spec, geom, pot):
        h0, _, _ = build_hamiltonians(geom, pot, hbar=1.0, h=0.055)
        vals, _ = eigensolve(h0, h0.shape[0])
        trace = float(h0.diagonal().sum())
        assert vals.sum() == pytest.approx(trace, rel=1e-6)

    def test_rejects_oversized_request(self, geom, pot):
        h0, _, _ = build_hamiltonians(geom, pot, hbar=1.0, h=0.08)
        with pytest.raises(ValueError):
            eigensolve(h0, h0.shape[0] + 1)


class TestTransitionMatrix:
    def test_null_quench_identity_via_projectors(self, geom):
        pot0 = QuenchPotential(xi_f=0.0)
        spec = solve_quench(geom, pot0, hbar=1.0, h=0.08, n_initial=40, n_final=40)
        # Compare through degenerate-subspace projector traces: group levels
        # within a tolerance and sum the transition weight inside each block.
        groups = []
        current = [0]
        for i in range(1, 40):
            if spec.e0[i] - spec.e0[i - 1] < 1e-6:
                current.append(i)
            else:
                groups.append(current)
                current = [i]
        groups.append(current)
        for grp in groups:
            block = spec.transition[np.ix_(grp, grp)]
            assert block.sum() == pytest.approx(len(grp), abs=1e-10)

    def test_rows_and_columns_stochastic_at_full_spectrum(self, small_spec):
        rows = small_spec.transition.sum(axis=1)
        cols = small_spec.transition.sum(axis=0)
        assert np.abs(rows - 1.0).max() < 1e-8
        assert np.abs(cols - 1.0).max() < 1e-8

    def test_entries_are_probabilities(self, small_spec):
        t = small_spec.transition
        assert t.min() >= 0.0
        assert t.max() <= 1.0 + 1e-12

    def test_dimension_mismatch(self, rng):
        with pytest.raises(DimensionMismatch):
            transition_matrix(rng.normal(size=(10, 3)), rng.normal(size=(12, 3)))


class TestWorkDistribution:
    def grid_for(self, spec, beta, n_u=256):
        lo, hi = quantum.spike_support(spec, beta, mass_tol=1e-12)
        plan = characteristic.plan_from_window(lo, hi, n_u=n_u, pad_frac=0.2)
        w_values, dw = spectra.dual_w_grid(plan.u_values, plan.w_center)
        return plan, w_values, 2.0 * dw

    def test_null_quench_mass_at_zero(self, geom):
        pot0 = QuenchPotential(xi_f=0.0)
        spec = solve_quench(geom, pot0, hbar=1.0, h=0.08)
        plan = characteristic.plan_from_window(-5.0, 5.0, n_u=64)
        w_values, dw = spectra.dual_w_grid(plan.u_values, plan.w_center)
        h = quantum_work_distribution(spec, beta=0.05, w_values=w_values, broadening=2 * dw)
        j = int(np.argmax(h.density))
        assert abs(h.w_values[j]) < h.bin_width
        assert h.total_mass == pytest.approx(1.0, abs=1e-9)

    def test_ground_state_projection_at_low_temperature(self, small_spec):
        plan, w_values, eps = self.grid_for(small_spec, beta=2.0)
        h = quantum_work_distribution(small_spec, 2.0, w_values, eps)
        row0 = spectra.spikes_to_histogram(
            small_spec.ef - small_spec.e0[0],
            small_spec.transition[0],
            w_values,
            eps,
        )
        np.testing.assert_allclose(h.density, row0.density, atol=1e-8)

    def test_mean_against_trace_formula(self, small_spec, geom, pot):
        # <W> from the spikes equals Tr[dH exp(-beta H0)] / Z computed in the
        # initial eigenbasis, independent of the transition matrix.
        beta = 0.02
        w8 = quantum.boltzmann_weights(small_spec.e0, beta)
        spike_mean = float(
            (
                w8[:, None]
                * small_spec.transition
                * (small_spec.ef[None, :] - small_spec.e0[:, None])
            ).sum()
        )
        h0, hf, grid = build_hamiltonians(geom, pot, hbar=1.0, h=0.055)
        vals, vecs = eigensolve(h0, h0.shape[0])
        dv = (hf - h0).diagonal()
        diag_means = ((vecs * vecs) * dv[:, None]).sum(axis=0)
        trace_mean = float((quantum.boltzmann_weights(vals, beta) * diag_means).sum())
        assert spike_mean == pytest.approx(trace_mean, abs=1e-8)

    def test_truncation_guard(self, geom, pot):
        spec = solve_quench(geom, pot, hbar=1.0, h=0.08, n_initial=30, n_final=60)
        with pytest.raises(TruncationDominates):
            quantum_work_distribution(
                spec, beta=2.0**-6, w_values=np.linspace(-100, 100, 101), broadening=1.0
            )


class TestQuantumCharacteristic:
    def test_value_at_zero(self, small_spec):
        g = quantum_characteristic(small_spec, beta=0.02, u_grid=np.array([0.0, 0.1]))
        assert abs(g.g_values[0] - 1.0) < 1e-12

    def test_null_quench_unity(self, geom):
        pot0 = QuenchPotential(xi_f=0.0)
        spec = solve_quench(geom, pot0, hbar=1.0, h=0.08)
        u = np.arange(16) * 0.2
        g = quantum_characteristic(spec, beta=0.05, u_grid=u)
        np.testing.assert_allclose(g.g_values, 1.0, atol=1e-10)

    def test_fourier_pair_consistency(self, small_spec):
        # Inverting the exact characteristic function reproduces the directly
        # binned spike distribution bin for bin.
        beta = 0.02
        lo, hi = quantum.spike_support(small_spec, beta, mass_tol=1e-13)
        plan = characteristic.plan_from_window(lo, hi, n_u=512, pad_frac=0.2)
        w_values, dw = spectra.dual_w_grid(plan.u_values, plan.w_center)
        eps = 2.0 * dw
        direct = quantum_work_distribution(small_spec, beta, w_values, eps)
        g = quantum_characteristic(small_spec, beta, plan)
        inverted = spectra.invert(g, broadening=eps, check_aliasing=False)
        assert np.abs(direct.density - inverted.density).max() < 1e-9


class TestQuantumJarzynski:
    def test_exact_identity_at_full_spectrum(self, small_spec):
        for beta in (0.005, 0.02, 0.1):
            lhs, rhs = quantum_jarzynski(small_spec, beta)
            assert abs(lhs - rhs) / rhs < 1e-10

    def test_null_quench_unity(self, geom):
        pot0 = QuenchPotential(xi_f=0.0)
        spec = solve_quench(geom, pot0, hbar=1.0, h=0.08)
        lhs, rhs = quantum_jarzynski(spec, 0.05)
        assert lhs == pytest.approx(1.0, rel=1e-12)
        assert rhs == pytest.approx(1.0, rel=1e-12)

    def test_truncated_deviation_recorded(self, geom, pot):
        # Truncation gap grows with temperature; record, do not assert values.
        spec_t = solve_quench(geom, pot, hbar=1.0, h=0.07, n_initial=120, n_final=260)
        rows = spec_t.transition.sum(axis=1)
        assert rows.max() <= 1.0 + 1e-12  # truncated rows can only lose mass
        gaps = []
        for beta in (0.5, 0.1, 0.05):
            lhs, rhs = quantum_jarzynski(spec_t, beta)
            gaps.append(abs(lhs - rhs) / rhs)
        assert all(np.isfinite(gaps))


class TestPlanningHelpers:
    def test_level_spacing_area_law(self, geom):
        # 4 pi hbar^2 / A; about 7.04 energy units at hbar = 1 for this domain.
        d = quantum.weyl_level_spacing(geom, 1.0)
        assert d == pytest.approx(4.0 * math.pi / geometry.area(geom), rel=1e-12)
        assert quantum.weyl_level_spacing(geom, 0.5) == pytest.approx(d / 4.0, rel=1e-12)

    def test_supported_states_consistent_with_plan(self, geom):
        n = 300
        h = quantum.plan_step_for_states(geom, n)
        assert quantum.supported_states(geom, h) >= int(2.2 * n)

    def test_spectrum_matches_area_law_density(self, small_spec, geom):
        # Count of levels below E grows like A E / (4 pi hbar^2) in the
        # resolved part of the spectrum.
        e = small_spec.e0[80]
        weyl = geometry.area(geom) * e / (4.0 * math.pi)
        assert weyl == pytest.approx(81, rel=0.15)


class TestPersistence:
    def test_binary_roundtrip(self, small_spec, tmp_path):
        p = tmp_path / "spec.bin"
        quantum.save_spectra(p, small_spec)
        back = quantum.load_spectra(p)
        assert np.array_equal(back.e0, small_spec.e0)
        assert np.array_equal(back.ef, small_spec.ef)
        assert np.array_equal(back.transition, small_spec.transition)
        assert back.hbar == small_spec.hbar
        assert back.h == small_spec.h
        assert back.n_sites == small_spec.n_sites

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "junk.bin"
        p.write_bytes(b"NOTSPECS" + b"\x00" * 64)
        with pytest.raises(ValueError):
            quantum.load_spectra(p)

    def test_csv_export(self, geom, tmp_path):
        pot0 = QuenchPotential(xi_f=0.0)
        spec = solve_quench(geom, pot0, hbar=1.0, h=0.08, n_initial=12, n_final=12)
        paths = quantum.export_spectra_csv(tmp_path, spec, "abc")
        assert len(paths) == 3
        data = np.genfromtxt(paths[0], delimiter=",", names=True, skip_header=1)
        np.testing.assert_allclose(data["energy"], spec.e0)
