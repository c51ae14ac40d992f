import math
import os
import struct

import numpy as np
import pytest

from chaowork import characteristic, geometry, quantum, spectra
from chaowork.potential import QuenchPotential
from chaowork.quantum import (
    GridTooCoarse,
    DimensionMismatch,
    TruncationDominates,
    build_hamiltonians,
    eigensolve,
    quantum_characteristic,
    quantum_jarzynski,
    solve_quench,
    transition_matrix,
)

from reference import (
    area,
    bin_weighted_spikes,
    load_spectra,
    plan_step_for_states,
    quantum_spike_density,
    sparse_hamiltonians,
    supported_states,
    weyl_level_spacing,
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
    pot = QuenchPotential()
    return solve_quench(geom, pot, hbar=1.0, h=0.055)


class TestGridAndHamiltonians:
    def test_rectangle_lowest_eigenvalue(self):
        rect = Rectangle(1.0, 0.8)
        pot0 = QuenchPotential(xi_f=0.0)
        h0, _, _ = build_hamiltonians(rect, pot0, hbar=1.0, h=0.02)
        vals, _, _ = eigensolve(h0, 3)
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
            vals, _, _ = eigensolve(ham, 10)
            errs[h] = np.abs(vals - analytic)
        ratio = errs[0.05] / errs[0.025]
        assert ((ratio > 3.5) & (ratio < 4.5)).all()

    def test_null_quench_identical_matrices(self, geom):
        pot0 = QuenchPotential(xi_f=0.0)
        h0, hf, _ = build_hamiltonians(geom, pot0, hbar=1.0, h=0.06)
        assert np.array_equal(h0.toarray(), hf.toarray())
        assert np.array_equal(h0.diag, hf.diag)

    def test_exact_symmetry(self, geom, pot):
        h0, hf, _ = build_hamiltonians(geom, pot, hbar=1.0, h=0.06)
        for ham in (h0, hf):
            dense = ham.toarray()
            assert np.array_equal(dense, dense.T)

    def test_grid_too_coarse(self, geom, pot):
        with pytest.raises(GridTooCoarse):
            build_hamiltonians(geom, pot, hbar=1.0, h=0.4)

    def test_sites_strictly_inside(self, geom, pot):
        _, _, grid = build_hamiltonians(geom, pot, hbar=1.0, h=0.05)
        assert geometry.contains_many(geom, grid.coords).all()
        # no site on the straight walls
        assert (grid.coords > 0.0).all()
        assert (grid.coords[:, 1] < geom.r).all()

    @pytest.mark.parametrize("h", [0.1, 0.05, 0.04, 0.025])
    def test_no_holes_where_the_circle_crosses_the_rectangle(self, geom, h):
        # The circle about (l, 0) is a wall only at x >= l.  At these steps
        # it meets lattice points inside the rectangle, (0.4, 0.8) among
        # them, and each is a site.
        grid = quantum.build_grid(geom, h)
        sites = {(round(x / h), round(y / h)) for x, y in grid.coords}
        nx, ny = round(geom.l / h), round(geom.r / h)
        assert {(i, j) for i in range(1, nx) for j in range(1, ny)} <= sites


class TestStencilAgainstSparseOracle:
    """The 5-point stencil is the CSR matrix of ``reference.sparse_hamiltonians``
    bit for bit: its dense form, its products and its |H| row sums."""

    @pytest.fixture(params=[(85.0, 0.06), (0.0, 0.06), (85.0, 0.04)], ids=["quench", "null", "fine"])
    def pairs(self, request, geom):
        xi_f, h = request.param
        pot = QuenchPotential(xi_f=xi_f)
        stencils = build_hamiltonians(geom, pot, hbar=1.3, h=h)
        oracles = sparse_hamiltonians(geom, pot, hbar=1.3, h=h)
        return list(zip(stencils[:2], oracles[:2]))

    def test_dense_matrix(self, pairs):
        for stencil, csr in pairs:
            assert np.array_equal(stencil.toarray(), csr.toarray())

    def test_csr_arrays(self, pairs):
        # The Lanczos branch factors the matrix built from these arrays.
        for stencil, csr in pairs:
            data, indices, indptr = stencil.csr_arrays()
            assert np.array_equal(data, csr.data)
            assert np.array_equal(indices, csr.indices)
            assert np.array_equal(indptr, csr.indptr)

    def test_product(self, pairs, rng):
        for stencil, csr in pairs:
            x = rng.normal(size=(stencil.shape[0], 9))
            expect = csr @ x
            assert np.array_equal(stencil @ x, expect)
            assert np.array_equal(stencil @ np.asfortranarray(x), expect)

    def test_row_sum_bound(self, pairs):
        for stencil, csr in pairs:
            expect = np.asarray(np.abs(csr).sum(axis=1)).ravel()
            assert np.array_equal(stencil.abs_row_sums(), expect)


class TestEigensolve:
    def test_partial_matches_dense(self, geom, pot):
        h0, _, _ = build_hamiltonians(geom, pot, hbar=1.0, h=0.08)
        dim = h0.shape[0]
        dense_vals, _, dense = eigensolve(h0, dim)
        part_vals, part_vecs, part = eigensolve(h0, 12)
        np.testing.assert_allclose(part_vals, dense_vals[:12], rtol=1e-9)
        assert part_vecs.shape == (dim, 12)
        assert (dense["solver"], part["solver"]) == ("dense evd", "shift-invert lanczos")

    def test_trace_identity_full_spectrum(self, small_spec, geom, pot):
        h0, _, _ = build_hamiltonians(geom, pot, hbar=1.0, h=0.055)
        vals, _, _ = eigensolve(h0, h0.shape[0])
        trace = float(h0.diag.sum())
        assert vals.sum() == pytest.approx(trace, rel=1e-6)

    def test_rejects_oversized_request(self, geom, pot):
        h0, _, _ = build_hamiltonians(geom, pot, hbar=1.0, h=0.08)
        with pytest.raises(ValueError):
            eigensolve(h0, h0.shape[0] + 1)


class TestInPlaceDenseSolve:
    """The full spectrum keeps numpy.linalg.eigh's bits, in place or not."""

    @pytest.fixture(scope="class")
    def hamiltonians(self):
        h0, hf, _ = build_hamiltonians(
            geometry.BilliardGeometry(), QuenchPotential(), hbar=1.0, h=0.055
        )
        # The square of test_dense_path_on_exactly_degenerate_spectrum: its
        # kinetic spectrum has exact (m, n)/(n, m) pairs.
        square, _, _ = build_hamiltonians(
            Rectangle(1.0, 1.0), QuenchPotential(xi_f=0.0), hbar=1.0, h=0.05
        )
        return {"billiard initial": h0, "billiard final": hf, "degenerate square": square}

    @pytest.mark.parametrize("fallback", [False, True], ids=["syevd", "eigh"])
    @pytest.mark.parametrize("name", ["billiard initial", "billiard final", "degenerate square"])
    def test_bits_of_numpy_eigh(self, hamiltonians, name, fallback, monkeypatch):
        ham = hamiltonians[name]
        if fallback:
            monkeypatch.setattr(quantum, "_DSYEVD", None)
        elif quantum._DSYEVD is None:
            pytest.skip("this numpy exports no LAPACKE dsyevd")
        vals, vecs, info = eigensolve(ham, ham.shape[0])
        expect_vals, expect_vecs = np.linalg.eigh(ham.toarray())
        assert vals.tobytes() == expect_vals.tobytes()
        assert vecs.tobytes() == expect_vecs.tobytes()
        assert vecs.flags.c_contiguous
        assert info["solver"] == "dense evd"


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

    def test_dense_path_on_exactly_degenerate_spectrum(self):
        # The square's kinetic spectrum has exact (m, n)/(n, m) pairs, where
        # the eigenvectors are any orthonormal basis of each pair.
        square = Rectangle(1.0, 1.0)
        null = solve_quench(square, QuenchPotential(xi_f=0.0), hbar=1.0, h=0.05)
        assert null.metadata["eigensolve"]["initial"]["solver"] == "dense evd"
        groups = np.split(np.arange(null.e0.size), np.flatnonzero(np.diff(null.e0) >= 1e-6) + 1)
        assert max(len(grp) for grp in groups) >= 2
        for grp in groups:
            block = null.transition[np.ix_(grp, grp)]
            assert block.sum() == pytest.approx(len(grp), abs=1e-10)

        spec = solve_quench(square, QuenchPotential(), hbar=1.0, h=0.05)
        assert np.abs(spec.transition.sum(axis=1) - 1.0).max() < 1e-12
        assert np.abs(spec.transition.sum(axis=0) - 1.0).max() < 1e-12
        for beta in (0.005, 0.02, 0.1):
            lhs, rhs = quantum_jarzynski(spec, beta)
            assert abs(lhs - rhs) < 1e-12

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
        return plan, plan.w_values, 2.0 * plan.dw

    def test_null_quench_mass_at_zero(self, geom):
        pot0 = QuenchPotential(xi_f=0.0)
        spec = solve_quench(geom, pot0, hbar=1.0, h=0.08)
        plan = characteristic.plan_from_window(-5.0, 5.0, n_u=64)
        h = spectra.invert(
            quantum_characteristic(spec, beta=0.05, plan=plan), broadening=2 * plan.dw
        )
        j = int(np.argmax(h.density))
        assert abs(h.w_values[j]) < h.bin_width
        assert h.total_mass == pytest.approx(1.0, abs=1e-9)

    def test_ground_state_projection_at_low_temperature(self, small_spec):
        plan, w_values, eps = self.grid_for(small_spec, beta=2.0)
        h = spectra.invert(quantum_characteristic(small_spec, 2.0, plan), broadening=eps)
        row0 = bin_weighted_spikes(
            small_spec.ef - small_spec.e0[0], small_spec.transition[0], w_values, eps
        )
        np.testing.assert_allclose(h.density, row0, atol=1e-8)

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
        vals, vecs, _ = eigensolve(h0, h0.shape[0])
        dv = hf.diag - h0.diag
        diag_means = ((vecs * vecs) * dv[:, None]).sum(axis=0)
        trace_mean = float((quantum.boltzmann_weights(vals, beta) * diag_means).sum())
        assert spike_mean == pytest.approx(trace_mean, abs=1e-8)

    def test_truncation_guard(self, geom, pot):
        spec = solve_quench(geom, pot, hbar=1.0, h=0.08, n_initial=30, n_final=60)
        plan = characteristic.plan_from_window(-100.0, 100.0, n_u=51)
        with pytest.raises(TruncationDominates):
            spectra.invert(quantum_characteristic(spec, 2.0**-6, plan), broadening=1.0)


class TestQuantumCharacteristic:
    def test_value_at_zero(self, small_spec):
        g = quantum_characteristic(small_spec, beta=0.02, plan=characteristic.UGridPlan(0.1, 2))
        assert abs(g.g_values[0] - 1.0) < 1e-12

    def test_null_quench_unity(self, geom):
        pot0 = QuenchPotential(xi_f=0.0)
        spec = solve_quench(geom, pot0, hbar=1.0, h=0.08)
        u = characteristic.UGridPlan(0.2, 16)
        g = quantum_characteristic(spec, beta=0.05, plan=u)
        np.testing.assert_allclose(g.g_values, 1.0, atol=1e-10)

    def test_fourier_pair_consistency(self, small_spec, monkeypatch):
        # Inverting the exact characteristic function reproduces the directly
        # binned spike distribution bin for bin.
        beta = 0.02
        lo, hi = quantum.spike_support(small_spec, beta, mass_tol=1e-13)
        plan = characteristic.plan_from_window(lo, hi, n_u=512, pad_frac=0.2)
        eps = 2.0 * plan.dw
        direct = quantum_spike_density(small_spec, beta, plan.w_values, eps)
        g = quantum_characteristic(small_spec, beta, plan)
        monkeypatch.setattr(spectra, "ALIAS_TOLERANCE", math.inf)
        inverted = spectra.invert(g, broadening=eps)
        assert np.abs(direct - inverted.density).max() < 1e-9


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
        d = weyl_level_spacing(geom, 1.0)
        assert d == pytest.approx(4.0 * math.pi / area(geom), rel=1e-12)
        assert weyl_level_spacing(geom, 0.5) == pytest.approx(d / 4.0, rel=1e-12)

    def test_supported_states_consistent_with_plan(self, geom):
        n = 300
        h = plan_step_for_states(geom, n)
        assert supported_states(geom, h) >= int(2.2 * n)

    def test_spectrum_matches_area_law_density(self, small_spec, geom):
        # Count of levels below E grows like A E / (4 pi hbar^2) in the
        # resolved part of the spectrum.
        e = small_spec.e0[80]
        weyl = area(geom) * e / (4.0 * math.pi)
        assert weyl == pytest.approx(81, rel=0.15)


class TestPersistence:
    def test_binary_roundtrip(self, small_spec, tmp_path):
        p = tmp_path / "spec.bin"
        quantum.save_spectra(p, small_spec)
        back = load_spectra(p)
        assert np.array_equal(back.e0, small_spec.e0)
        assert np.array_equal(back.ef, small_spec.ef)
        assert np.array_equal(back.transition, small_spec.transition)
        assert back.hbar == small_spec.hbar
        assert back.h == small_spec.h
        assert back.n_sites == small_spec.n_sites
        # The payload is each array's little-endian float64 bytes in turn.
        data = p.read_bytes()
        start = len(quantum._MAGIC) + 4
        (hlen,) = struct.unpack("<I", data[start - 4 : start])
        arrays = (small_spec.e0, small_spec.ef, small_spec.transition)
        assert data[start + hlen :] == b"".join(a.astype("<f8").tobytes() for a in arrays)

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "junk.bin"
        p.write_bytes(b"NOTSPECS" + b"\x00" * 64)
        with pytest.raises(ValueError):
            load_spectra(p)

    def test_csv_export(self, geom, tmp_path):
        pot0 = QuenchPotential(xi_f=0.0)
        spec = solve_quench(geom, pot0, hbar=1.0, h=0.08, n_initial=12, n_final=12)
        paths = quantum.export_spectra_csv(tmp_path, spec, "abc")
        assert len(paths) == 2
        assert sorted(os.listdir(tmp_path)) == ["eigenvalues_final.csv", "eigenvalues_initial.csv"]
        data = np.genfromtxt(paths[0], delimiter=",", names=True, skip_header=1)
        np.testing.assert_allclose(data["energy"], spec.e0)
