#!/usr/bin/env python3
"""Calibration pilot for the classical-limit acceptance threshold.

Runs the hbar sweep at beta = 2^-12 against the classical baseline and prints
the L1 table.  The acceptance suite pins its smallest-hbar threshold from the
production-size run of this script (L1 measured 0.0238 on 2025-08-08 at seed
20250808; threshold pinned at 0.05).

Usage:
    python scripts/pilot_classical_limit.py            # reduced, fast
    python scripts/pilot_classical_limit.py --full     # production sizes
"""

import argparse
import math
import time

import numpy as np

from chaowork import analysis, characteristic, classical, geometry, potential, sampler, spectra


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--full", action="store_true", help="production sample sizes")
    ap.add_argument("--seed", type=int, default=20250808)
    ap.add_argument("--u-points", type=int, default=32)
    args = ap.parse_args()

    n_sc = 90_000 if args.full else 20_000
    n_cl = 4_000_000 if args.full else 500_000

    geom = geometry.BilliardGeometry()
    pot = potential.default_potential()
    beta = 2.0**-12

    t0 = time.time()
    plan = characteristic.plan_u_grid(geom, pot, args.seed, n_u=args.u_points)
    w_values, dw = spectra.dual_w_grid(plan.u_values, plan.w_center)
    eps = 2.0 * dw
    print(f"u_max={plan.u_values[-1]:.3f}  dW={dw:.3f}  eps={eps:.3f}")

    cs = classical.sample_classical_work(geom, pot, beta, n_cl, args.seed)
    ch = spectra.spikes_to_histogram(
        cs.values, np.full(cs.n, 1.0 / cs.n), w_values, eps, sample_count=cs.n
    )
    ens = sampler.sample_ensemble(geom, beta, n_sc, args.seed)

    hbars = (1.0, 0.5, 0.1, 0.01)
    grids = characteristic.semiclassical_characteristic(
        [characteristic.Request(ens, plan, h) for h in hbars], geom, pot
    )
    prev = None
    for hbar, g in zip(hbars, grids):
        h = spectra.invert(g, broadening=eps)
        l1 = analysis.l1_distance(h, ch)
        err = analysis.l1_distance_error(h, ch)
        note = ""
        if prev is not None:
            gap = prev - l1
            note = f"  decrease {gap:+.4f} ({gap / (3 * math.hypot(err, prev_err)):.0f}x the 3-sigma bar)"
        print(f"hbar={hbar:<5}: L1 = {l1:.4f} +- {err:.4f}{note}")
        prev, prev_err = l1, err
    print(f"total {time.time() - t0:.0f}s (n_sc={n_sc}, n_cl={n_cl})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
