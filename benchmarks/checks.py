"""Output checks behind ``failed_frac``: every check reads the CLI's own files.

``check_outputs`` returns the list of failed checks (empty when the run is
correct).  ``output_digest`` hashes a run's files so reruns can be compared
byte for byte and two commits can be compared by their output bytes.
"""

from __future__ import annotations

import glob
import hashlib
import json
import math
import os

MASS_TOL = 1e-6
MODULUS_TOL = 1e-12
FAILURE_BUDGET = 1e-3  # share of samples the engine may drop
MC_SIGMAS = 4.0
JARZYNSKI_RTOL = 1e-10

# manifest.json embeds out_dir and library versions, so it is not compared.
DIGEST_EXCLUDE = {"manifest.json"}


def _load_json(path):
    with open(path) as fh:
        return json.load(fh)


def _read_characteristic(path):
    rows = []
    with open(path) as fh:
        for line in fh:
            if line.startswith("#") or line.startswith("u,"):
                continue
            rows.append([float(x) for x in line.split(",")])
    return rows


def _check_histogram_masses(out_dir):
    errors = []
    metas = sorted(glob.glob(os.path.join(out_dir, "*.meta.json")))
    for path in metas:
        meta = _load_json(path)
        if "total_mass" in meta and not abs(meta["total_mass"] - 1.0) <= MASS_TOL:
            errors.append(f"{os.path.basename(path)}: total_mass {meta['total_mass']!r}")
    return errors


def _check_sc_single(out_dir, settings):
    errors = []
    g_path = os.path.join(out_dir, "semiclassical_g.csv")
    rows = _read_characteristic(g_path)
    zero = [r for r in rows if r[0] == 0.0]
    if len(zero) != 1 or zero[0][1] != 1.0 or zero[0][2] != 0.0:
        errors.append(f"G(0) is not exactly 1+0j: {zero}")
    worst = max(math.hypot(r[1], r[2]) for r in rows)
    if not worst <= 1.0 + MODULUS_TOL:
        errors.append(f"|G| reaches {worst!r}")
    meta = _load_json(g_path + ".meta.json")
    n_cfg = int(settings["n_samples"])
    if meta["n_failed"] > FAILURE_BUDGET * n_cfg:
        errors.append(f"{meta['n_failed']} of {n_cfg} trajectories failed")
    if meta["n_samples"] + meta["n_failed"] != n_cfg:
        errors.append(
            f"n_samples {meta['n_samples']} + n_failed {meta['n_failed']} != {n_cfg}"
        )
    return errors


def _check_fig3_sweep(out_dir, settings):
    errors = []
    rows = _load_json(os.path.join(out_dir, "fig3_report.json"))["rows"]
    n_beta = len(str(settings["beta_list"]).split(","))
    if len(rows) != n_beta:
        errors.append(f"{len(rows)} rows for {n_beta} temperatures")
    for row in rows:
        beta = row["beta"]
        gap = abs(row["delta_f_classical_mc"] - row["delta_f_reference"])
        se = row["stderr_classical_mc"]
        if not gap <= MC_SIGMAS * se:
            errors.append(f"beta={beta!r}: classical MC off the reference by {gap!r} (se {se!r})")
        est, se_sc = row["delta_f_semiclassical"], row["stderr_semiclassical"]
        if not (math.isfinite(est) and math.isfinite(se_sc) and se_sc > 0.0):
            errors.append(f"beta={beta!r}: semiclassical estimate {est!r} +- {se_sc!r}")
    return errors


def _check_quantum_full(out_dir, settings):
    report = _load_json(os.path.join(out_dir, "quantum_report.json"))
    lhs, rhs = report["jarzynski_lhs"], report["jarzynski_rhs"]
    if not abs(lhs - rhs) <= JARZYNSKI_RTOL * abs(rhs):
        return [f"Jarzynski lhs {lhs!r} != rhs {rhs!r}"]
    return []


_CHECKS = {
    "sc-single": _check_sc_single,
    "fig3-sweep": _check_fig3_sweep,
    "quantum-full": _check_quantum_full,
}


def check_outputs(workload: str, out_dir: str, settings: dict) -> list[str]:
    """Failed checks for one run's output directory; empty means correct."""
    try:
        return _check_histogram_masses(out_dir) + _CHECKS[workload](out_dir, settings)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]


def output_digest(out_dir: str) -> str:
    """sha256 over every output file (name and bytes) except the manifest."""
    h = hashlib.sha256()
    for root, _, files in sorted(os.walk(out_dir)):
        for name in sorted(files):
            if name in DIGEST_EXCLUDE:
                continue
            path = os.path.join(root, name)
            h.update(os.path.relpath(path, out_dir).encode() + b"\0")
            with open(path, "rb") as fh:
                for block in iter(lambda: fh.read(1 << 20), b""):
                    h.update(block)
            h.update(b"\0")
    return h.hexdigest()
