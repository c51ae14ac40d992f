"""Acceptance suite: one test per criterion, printing one PASS/FAIL line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the summary lines and
per-criterion runtimes.  Statistical thresholds were pinned from the
pre-registered calibration pilot (scripts/pilot_classical_limit.py); runtime
targets assume a multi-core laptop and are reported, not asserted.
"""

import math
import os
import time

import numpy as np
import pytest

from chaowork import (
    analysis,
    characteristic,
    classical,
    cli,
    geometry,
    potential,
    quantum,
    sampler,
    spectra,
)
from chaowork.characteristic import (
    Request,
    plan_from_window,
    plan_u_grid,
    semiclassical_characteristic,
)

from reference import phase_point, propagate

SEED = 20250808

# Criterion 1: upper bound on L1(P_sc, P_classical) at the smallest hbar.
# Pre-registered pilot at the production sizes measured 0.0238; 0.05 keeps
# headroom for seed variation while staying at the expected order.
L1_SMALLEST_HBAR_MAX = 0.05

# Criterion 6 basis plan: initial states kept and the thermal-coverage pad
# (in energy units) that the final basis must reach beyond them.
CRIT6_N_INITIAL = 340
CRIT6_W_PAD = 135.0


def report(criterion: str, ok: bool, detail: str, t0: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {criterion}: {detail} ({time.time() - t0:.0f}s)")


@pytest.fixture(scope="module")
def geom():
    return geometry.BilliardGeometry()


@pytest.fixture(scope="module")
def pot():
    return potential.default_potential()


def test_criterion_1_classical_limit_convergence(geom, pot):
    """L1 to the classical work distribution falls strictly as hbar shrinks."""
    t0 = time.time()
    beta = 2.0**-12
    plan = plan_u_grid(geom, pot, SEED, n_u=32)
    w_values, dw = spectra.dual_w_grid(plan.u_values, plan.w_center)
    eps = 2.0 * dw

    cs = classical.sample_classical_work(geom, pot, beta, 4_000_000, SEED)
    ch = spectra.spikes_to_histogram(
        cs.values, np.full(cs.n, 1.0 / cs.n), w_values, eps, sample_count=cs.n
    )

    ens = sampler.sample_ensemble(geom, beta, 90_000, SEED)
    assert len(ens) >= 90_000
    hbars = (1.0, 0.5, 0.1, 0.01)
    grids = semiclassical_characteristic([Request(ens, plan, h) for h in hbars], geom, pot)
    table = []
    for hbar, g in zip(hbars, grids):
        hist = spectra.invert(g, broadening=eps)
        table.append(
            (hbar, analysis.l1_distance(hist, ch), analysis.l1_distance_error(hist, ch))
        )

    ok = True
    gaps = []
    for (h1, l1, e1), (h2, l2, e2) in zip(table, table[1:]):
        gap = l1 - l2
        bar = 3.0 * math.hypot(e1, e2)
        gaps.append(f"{h1}->{h2}: {gap:+.4f} (3sig {bar:.4f})")
        ok &= gap > bar
    final_l1 = table[-1][1]
    ok &= final_l1 < L1_SMALLEST_HBAR_MAX
    detail = (
        f"L1 = {', '.join(f'{h}:{l:.4f}' for h, l, _ in table)}; "
        f"decreases {', '.join(gaps)}; smallest-hbar L1 {final_l1:.4f} < {L1_SMALLEST_HBAR_MAX}"
    )
    report("criterion 1 (classical-limit convergence)", ok, detail, t0)
    assert ok, detail


def test_criterion_2_classical_jarzynski_exactness(geom, pot):
    """Sample Jarzynski estimate matches the quadrature free energy at 3 sigma."""
    t0 = time.time()
    rows = []
    ok = True
    for k in (7, 9, 11, 13):
        beta = 2.0**-k
        ref = classical.classical_free_energy_difference(geom, pot, beta)
        s = classical.sample_classical_work(geom, pot, beta, 1_000_000, SEED + k)
        est, se = analysis.jarzynski_from_samples(s.values, beta)
        rows.append(f"2^-{k}: |{est - ref:+.5f}| vs 3se {3 * se:.5f}")
        ok &= abs(est - ref) < 3.0 * se
    detail = "; ".join(rows)
    report("criterion 2 (classical Jarzynski exactness)", ok, detail, t0)
    assert ok, detail


def test_criterion_3_semiclassical_jarzynski_trend(geom, pot):
    """Semiclassical free-energy deviation shrinks as temperature grows."""
    t0 = time.time()
    plan = plan_u_grid(geom, pot, SEED, n_u=64)
    betas = [2.0**-k for k in (7, 9, 11, 13)]
    requests = [
        Request(
            sampler.sample_ensemble(geom, beta, 90_000, SEED), plan, 1.0, collect_covariance=True
        )
        for beta in betas
    ]
    grids = semiclassical_characteristic(requests, geom, pot)
    devs = []
    ses = []
    for beta, g in zip(betas, grids):
        ref = classical.classical_free_energy_difference(geom, pot, beta)
        est, se = analysis.jarzynski_from_characteristic(g, beta)
        devs.append(abs(est - ref))
        ses.append(se)

    ok = True
    notes = []
    # No significant increase anywhere along the sweep ...
    for i in range(len(devs) - 1):
        bar = 3.0 * math.hypot(ses[i], ses[i + 1])
        notes.append(f"step {i}: {devs[i + 1] - devs[i]:+.4f} (bar {bar:.4f})")
        ok &= devs[i + 1] < devs[i] + bar
    # ... and a significant overall decrease across the sweep.
    overall_bar = 3.0 * math.hypot(ses[0], ses[-1])
    overall = devs[0] - devs[-1]
    ok &= overall > overall_bar
    detail = (
        f"deviations {', '.join(f'{d:.4f}' for d in devs)}; "
        f"overall drop {overall:.4f} > {overall_bar:.4f}; {'; '.join(notes)}"
    )
    report("criterion 3 (semiclassical Jarzynski trend)", ok, detail, t0)
    assert ok, detail


def test_criterion_4_quantum_exact_identities(geom, pot):
    """Full-spectrum oracle: stochasticity, free-energy identity, Fourier pair."""
    t0 = time.time()
    spec = quantum.solve_quench(geom, pot, hbar=1.0, h=0.04)
    assert spec.n_sites <= 2000

    rows = spec.transition.sum(axis=1)
    cols = spec.transition.sum(axis=0)
    row_dev = float(np.abs(rows - 1.0).max())
    col_dev = float(np.abs(cols - 1.0).max())
    ok = row_dev < 1e-8 and col_dev < 1e-8

    jz_dev = 0.0
    for beta in (0.005, 0.02, 0.1):
        lhs, rhs = quantum.quantum_jarzynski(spec, beta)
        jz_dev = max(jz_dev, abs(lhs - rhs) / rhs)
    ok &= jz_dev < 1e-10

    beta = 0.02
    lo, hi = quantum.spike_support(spec, beta, mass_tol=1e-13)
    plan = plan_from_window(lo, hi, n_u=512, pad_frac=0.2)
    w_values, dw = spectra.dual_w_grid(plan.u_values, plan.w_center)
    eps = 2.0 * dw
    direct = quantum.quantum_work_distribution(spec, beta, w_values, eps)
    g = quantum.quantum_characteristic(spec, beta, plan)
    inverted = spectra.invert(g, broadening=eps, check_aliasing=False)
    fp_dev = float(np.abs(direct.density - inverted.density).max())
    ok &= fp_dev < 1e-9

    detail = (
        f"dim {spec.n_sites}; row/col sum dev {row_dev:.2e}/{col_dev:.2e} < 1e-8; "
        f"free-energy identity dev {jz_dev:.2e} < 1e-10; Fourier pair dev {fp_dev:.2e} < 1e-9"
    )
    report("criterion 4 (quantum exact identities)", ok, detail, t0)
    assert ok, detail


def test_criterion_5_discretization_convergence():
    """Rectangle eigenvalues gain a factor ~4 in accuracy when h halves."""
    t0 = time.time()

    class Rect:
        a, b = 1.0, 0.8
        bounding_box = (1.0, 0.8)

        def contains(self, q):
            return 0.0 < q[0] < self.a and 0.0 < q[1] < self.b

    rect = Rect()
    analytic = np.sort(
        np.array(
            [
                math.pi**2 * (m**2 / rect.a**2 + n**2 / rect.b**2)
                for m in range(1, 20)
                for n in range(1, 20)
            ]
        )
    )[:10]
    pot0 = potential.QuenchPotential(xi_f=0.0)
    errs = {}
    for h in (0.05, 0.025):
        ham, _, _ = quantum.build_hamiltonians(rect, pot0, hbar=1.0, h=h)
        vals, _ = quantum.eigensolve(ham, 10)
        errs[h] = np.abs(vals - analytic)
    ratios = errs[0.05] / errs[0.025]
    ok = bool(((ratios > 3.5) & (ratios < 4.5)).all())
    detail = f"error ratios lowest 10 states: {np.array2string(ratios, precision=2)}"
    report("criterion 5 (h^2 discretization convergence)", ok, detail, t0)
    assert ok, detail


def test_criterion_6_quantum_vs_semiclassical_trend(geom, pot):
    """L1 between quantum and semiclassical distributions falls with temperature.

    Desk-scale stand-in for the production-temperature comparison: reduced
    hbar = 0.5, a grid resolving well over 300 states, and temperatures
    chosen by the state-count planner so truncation never dominates.
    """
    t0 = time.time()
    hbar = 0.5
    h = quantum.plan_step_for_states(geom, CRIT6_N_INITIAL)
    supported = quantum.supported_states(geom, h)
    assert supported >= 300
    assert supported >= 2.2 * CRIT6_N_INITIAL
    spacing = quantum.weyl_level_spacing(geom, hbar)
    e0_top = CRIT6_N_INITIAL * spacing
    n_final = quantum.final_state_count(geom, pot, hbar, e0_top + CRIT6_W_PAD)
    spec = quantum.solve_quench(
        geom, pot, hbar, h, n_initial=CRIT6_N_INITIAL, n_final=n_final
    )

    betas = (2.0**-3, 2.0**-4, 2.0**-5)
    tops = [quantum.check_truncation(spec.e0, beta) for beta in betas]  # raise if dominated
    plans = []
    for beta in betas:
        lo_q, hi_q = quantum.spike_support(spec, beta, mass_tol=1e-9)
        plans.append(
            plan_from_window(min(lo_q, -110.0), max(hi_q, 110.0), n_u=64, pad_frac=0.1)
        )
    requests = [
        Request(sampler.sample_ensemble(geom, beta, 90_000, SEED), plan, hbar)
        for beta, plan in zip(betas, plans)
    ]
    grids = semiclassical_characteristic(requests, geom, pot)
    table = []
    ok = True
    for beta, top, plan, g in zip(betas, tops, plans, grids):
        w_values, dw = spectra.dual_w_grid(plan.u_values, plan.w_center)
        eps = 2.0 * dw
        hq = quantum.quantum_work_distribution(spec, beta, w_values, eps)
        ok &= abs(hq.total_mass - 1.0) < 1e-6
        hsc = spectra.invert(g, broadening=eps)
        table.append(
            (beta, analysis.l1_distance(hq, hsc), analysis.l1_distance_error(hq, hsc), top)
        )

    gaps = []
    for (b1, l1, e1, _), (b2, l2, e2, _) in zip(table, table[1:]):
        gap = l1 - l2
        bar = 3.0 * math.hypot(e1, e2)
        gaps.append(f"{gap:+.4f} (3sig {bar:.4f})")
        ok &= gap > bar
    detail = (
        f"grid h={h:.4f} supports {supported} states, kept {CRIT6_N_INITIAL}/{n_final}; "
        f"L1 = {', '.join(f'2^{int(math.log2(b))}:{l:.4f}' for b, l, _, _ in table)}; "
        f"decreases {', '.join(gaps)}"
    )
    report("criterion 6 (quantum vs semiclassical trend)", ok, detail, t0)
    assert ok, detail


def test_criterion_7_universal_invariants(geom, pot, tmp_path):
    """G(0)=1, |G| bounded, unit histogram mass, energy conservation,
    bit-identical reruns."""
    t0 = time.time()
    ok = True
    notes = []

    beta = 2.0**-8
    plan = plan_u_grid(geom, pot, SEED, n_u=64)
    ens = sampler.sample_ensemble(geom, beta, 5_000, SEED)
    [g_mc] = semiclassical_characteristic([Request(ens, plan, 1.0)], geom, pot)
    ok &= g_mc.g_values[0] == 1.0 + 0.0j
    ok &= bool((np.abs(g_mc.g_values) <= 1.0 + 1e-12).all())
    notes.append("MC G(0)=1 exact")

    energies = (np.arange(24) + 0.5) * (12.0 / beta / 24)
    g_shell = characteristic.shell_characteristic(
        beta, plan, 1.0, geom, pot, energies, samples_per_shell=200, seed=SEED
    )
    ok &= g_shell.g_values[0] == 1.0 + 0.0j
    notes.append("shell G(0)=1 exact")

    spec = quantum.solve_quench(geom, pot, hbar=1.0, h=0.055)
    g_q = quantum.quantum_characteristic(spec, 0.02, np.array([0.0, 0.5]))
    ok &= abs(g_q.g_values[0] - 1.0) < 1e-12
    notes.append(f"quantum |G(0)-1| = {abs(g_q.g_values[0] - 1.0):.1e}")

    hist_mc = spectra.invert(g_mc)
    lo, hi = quantum.spike_support(spec, 0.02, mass_tol=1e-13)
    plan_q = plan_from_window(lo, hi, n_u=256, pad_frac=0.2)
    wq, dwq = spectra.dual_w_grid(plan_q.u_values, plan_q.w_center)
    hist_q = quantum.quantum_work_distribution(spec, 0.02, wq, 2 * dwq)
    cs = classical.sample_classical_work(geom, pot, beta, 100_000, SEED)
    w_values, dw = spectra.dual_w_grid(plan.u_values, plan.w_center)
    hist_c = spectra.spikes_to_histogram(
        cs.values, np.full(cs.n, 1.0 / cs.n), w_values, 2 * dw, sample_count=cs.n
    )
    for name, hst in (("semiclassical", hist_mc), ("quantum", hist_q), ("classical", hist_c)):
        ok &= abs(hst.total_mass - 1.0) < 1e-6
        floor = 1e-9 * float(hst.density.max())
        ok &= bool((hst.density >= -3.0 * hst.error - floor).all())
        notes.append(f"{name} mass {hst.total_mass:.8f}")

    # Energy conservation along real trajectories.
    worst = 0.0
    for i in range(50):
        x0 = phase_point(ens, i)
        end, _ = propagate(x0, 2.0, geom)
        p0 = math.hypot(*x0.p)
        p1 = math.hypot(*end.p)
        worst = max(worst, abs(p1 - p0) / p0)
    ok &= worst < 1e-12
    notes.append(f"energy drift {worst:.1e}")

    # Bit-identical rerun of a small scenario under fixed config/seed/workers.
    base = (
        "beta_list = 2^-8\nhbar_list = 0.5,1.0\nn_samples = 1000\n"
        "n_classical = 20000\nu_points = 32\nworkers = 1\nseed = 777\n"
    )
    cfg1 = cli.validate_config(base + f"out_dir = {tmp_path}/a")
    cfg2 = cli.validate_config(base + f"out_dir = {tmp_path}/b")
    r1 = cli.run_scenario(cfg1, "fig4")
    r2 = cli.run_scenario(cfg2, "fig4")
    identical = True
    for p1, p2 in zip(sorted(r1["files"]), sorted(r2["files"])):
        if p1.endswith("manifest.json"):
            continue
        with open(p1, "rb") as f1, open(p2, "rb") as f2:
            identical &= f1.read() == f2.read()
    ok &= identical
    notes.append(f"bit-identical rerun: {identical}")

    detail = "; ".join(notes)
    report("criterion 7 (universal invariants)", ok, detail, t0)
    assert ok, detail
