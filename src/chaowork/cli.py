"""Command-line orchestration: configuration, scenario runners, persistence.

Configuration is a flat ``key = value`` text file (see KEYS below); CLI flags
override environment variables (prefix CHAOWORK_), which override the file,
which overrides the built-in defaults (the default system of the study:
r = l = 1 billiard, four bumps of width 0.1, quench strength 0 -> 85).

Every run writes a manifest JSON recording the canonical configuration, its
SHA-256 hash, the seed and library versions; each CSV embeds that hash in a
leading comment line so outputs can be audited after the fact.  Outputs are
a pure function of (config, seed, workers): reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass, fields, replace

import numpy as np

from . import __version__, analysis, classical, quantum, sampler, spectra
from .characteristic import (
    CharacteristicGrid,
    Request,
    plan_from_window,
    plan_u_grid,
    semiclassical_characteristic,
)
from .geometry import BilliardGeometry
from .potential import QuenchPotential
from .spectra import WorkHistogram

ENV_PREFIX = "CHAOWORK_"


class ParseError(ValueError):
    def __init__(self, line: int, column: int, message: str):
        self.line = line
        self.column = column
        super().__init__(f"line {line}, column {column}: {message}")


class RangeError(ValueError):
    def __init__(self, key: str, message: str):
        self.key = key
        super().__init__(f"{key}: {message}")


def _parse_number(token: str) -> float:
    """Plain float or an exact power like 2^-12."""
    token = token.strip()
    if "^" in token:
        base, _, exp = token.partition("^")
        return float(base) ** int(exp)
    return float(token)


def _parse_float_list(token: str) -> tuple[float, ...]:
    return tuple(_parse_number(t) for t in token.split(",") if t.strip())


def _parse_int(token: str) -> int:
    """Integer literal exactly (any size), or an integral number like 2^10, 1e6."""
    try:
        return int(token)
    except ValueError:
        pass
    value = _parse_number(token)
    if not value.is_integer():
        raise ValueError(f"not an integer: {token.strip()!r}")
    return int(value)


def _parse_bool(token: str) -> bool:
    t = token.strip().lower()
    if t in ("true", "yes", "1", "on"):
        return True
    if t in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"not a boolean: {token!r}")


@dataclass(frozen=True)
class RunConfig:
    geometry_r: float = 1.0
    geometry_l: float = 1.0
    sigma: float = 0.1
    xi_f: float = 85.0
    xi_0: float = 0.0
    centers: tuple[float, ...] = (0.2, 0.4, 0.67, 0.5, 0.5, 0.15, 0.3, 0.75)
    signs: tuple[float, ...] = (1.0, -1.0, 1.0, -1.0)
    beta_list: tuple[float, ...] = (2.0**-12,)
    hbar_list: tuple[float, ...] = (1.0,)
    n_samples: int = 90_000
    n_classical: int = 4_000_000
    u_points: int = 512
    pad_frac: float = 0.2
    broadening_bins: float = 2.0
    seed: int = 12345
    workers: int = 0  # 0 means "logical CPU count", resolved at run time
    out_dir: str = "out"
    max_bounces: int = 10_000_000
    quantum_h: float = 0.04
    quantum_n_initial: int = 0  # 0 keeps the full grid spectrum
    quantum_n_final: int = 0
    dump_ensemble: bool = False
    # Keys the user set explicitly (file, env or flag); scenarios fall back to
    # their canonical sweeps only for keys left at the defaults.
    explicit_keys: tuple[str, ...] = ()

    def geometry(self) -> BilliardGeometry:
        return BilliardGeometry(r=self.geometry_r, l=self.geometry_l)

    def potential(self) -> QuenchPotential:
        centers = np.asarray(self.centers, dtype=float).reshape(-1, 2)
        return QuenchPotential(
            centers=centers,
            signs=np.asarray(self.signs, dtype=float),
            sigma=self.sigma,
            xi_f=self.xi_f,
            xi_0=self.xi_0,
        )

    def resolved_workers(self) -> int:
        return self.workers if self.workers > 0 else (os.cpu_count() or 1)


_CONVERTERS = {
    "geometry_r": _parse_number,
    "geometry_l": _parse_number,
    "sigma": _parse_number,
    "xi_f": _parse_number,
    "xi_0": _parse_number,
    "centers": _parse_float_list,
    "signs": _parse_float_list,
    "beta_list": _parse_float_list,
    "hbar_list": _parse_float_list,
    "n_samples": _parse_int,
    "n_classical": _parse_int,
    "u_points": _parse_int,
    "pad_frac": _parse_number,
    "broadening_bins": _parse_number,
    "seed": _parse_int,
    "workers": _parse_int,
    "out_dir": str,
    "max_bounces": _parse_int,
    "quantum_h": _parse_number,
    "quantum_n_initial": _parse_int,
    "quantum_n_final": _parse_int,
    "dump_ensemble": _parse_bool,
}


def _check_ranges(cfg: RunConfig) -> RunConfig:
    def positive(key, value):
        if not (math.isfinite(value) and value > 0):
            raise RangeError(key, f"must be positive and finite, got {value}")

    def nonneg(key, value):
        if not (math.isfinite(value) and value >= 0):
            raise RangeError(key, f"must be nonnegative and finite, got {value}")

    positive("geometry_r", cfg.geometry_r)
    nonneg("geometry_l", cfg.geometry_l)
    positive("sigma", cfg.sigma)
    for key in ("xi_f", "xi_0"):
        v = getattr(cfg, key)
        if not math.isfinite(v):
            raise RangeError(key, f"must be finite, got {v}")
    if len(cfg.centers) % 2 or not cfg.centers:
        raise RangeError("centers", "needs an even, positive number of coordinates")
    if len(cfg.signs) != len(cfg.centers) // 2:
        raise RangeError("signs", "must list one sign per center")
    if not cfg.beta_list:
        raise RangeError("beta_list", "must not be empty")
    for b in cfg.beta_list:
        positive("beta_list", b)
    if not cfg.hbar_list:
        raise RangeError("hbar_list", "must not be empty")
    for h in cfg.hbar_list:
        positive("hbar_list", h)
    for key in ("n_samples", "n_classical", "u_points", "max_bounces"):
        if getattr(cfg, key) < 1:
            raise RangeError(key, f"must be >= 1, got {getattr(cfg, key)}")
    if cfg.u_points < 2:
        raise RangeError("u_points", "need at least two u points")
    nonneg("pad_frac", cfg.pad_frac)
    nonneg("broadening_bins", cfg.broadening_bins)
    if cfg.seed < 0:
        raise RangeError("seed", f"must be nonnegative, got {cfg.seed}")
    if cfg.workers < 0:
        raise RangeError("workers", f"must be nonnegative, got {cfg.workers}")
    positive("quantum_h", cfg.quantum_h)
    for key in ("quantum_n_initial", "quantum_n_final"):
        if getattr(cfg, key) < 0:
            raise RangeError(key, f"must be nonnegative, got {getattr(cfg, key)}")
    return cfg


def validate_config(text: str) -> RunConfig:
    """Parse, default and range-check a flat key = value configuration.

    Unknown keys are hard errors; an empty file yields the built-in default
    system.
    """
    data: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParseError(lineno, 1, f"expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.split("#", 1)[0].strip()
        column = raw.find(key) + 1
        if key not in _CONVERTERS:
            raise ParseError(lineno, column, f"unknown key {key!r}")
        if key in data:
            raise ParseError(lineno, column, f"duplicate key {key!r}")
        try:
            data[key] = _CONVERTERS[key](value)
        except RangeError:
            raise
        except Exception as exc:
            raise ParseError(lineno, column, f"bad value for {key!r}: {exc}") from exc
    return _check_ranges(RunConfig(**data, explicit_keys=tuple(sorted(data))))


def _convert(conv, raw: str, source: str):
    """Apply a converter to a value from outside the file, naming its source."""
    try:
        return conv(raw)
    except (ValueError, OverflowError) as exc:
        raise ValueError(f"{source}: bad value {raw!r}: {exc}") from exc


def apply_env_overrides(cfg: RunConfig, environ=None) -> RunConfig:
    environ = os.environ if environ is None else environ
    updates = {}
    for name, conv in _CONVERTERS.items():
        var = ENV_PREFIX + name.upper()
        if var in environ:
            updates[name] = _convert(conv, environ[var], var)
    if not updates:
        return cfg
    explicit = tuple(sorted(set(cfg.explicit_keys) | set(updates)))
    return _check_ranges(replace(cfg, explicit_keys=explicit, **updates))


def config_manifest(cfg: RunConfig, scenario: str) -> dict:
    body = {f.name: getattr(cfg, f.name) for f in fields(RunConfig)}
    # out_dir and workers cannot change any output byte, so they stay out of
    # the hash: reruns to another directory remain verifiably identical.
    hashed = {k: v for k, v in body.items() if k not in ("out_dir", "workers")}
    canonical = json.dumps(hashed, sort_keys=True)
    digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
    return {
        "scenario": scenario,
        "config": body,
        "config_sha256": digest,
        "seed": cfg.seed,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "chaowork": __version__,
        },
    }


# ---------------------------------------------------------------------------
# Output writers


def _fmt(x: float) -> str:
    return repr(float(x))


def _write_table(path, manifest_hash: str, columns: dict, meta: dict | None = None) -> None:
    """CSV of equal-length numeric columns under the manifest-hash line.

    Cells are ``repr(float)``, so values round-trip exactly; ``meta``, when
    given, is written to the ``<path>.meta.json`` sidecar.
    """
    with open(path, "w") as fh:
        fh.write(f"# manifest_sha256={manifest_hash}\n")
        fh.write(",".join(columns) + "\n")
        rows = zip(*(map(_fmt, col) for col in columns.values()))
        fh.writelines(",".join(row) + "\n" for row in rows)
    if meta is not None:
        with open(str(path) + ".meta.json", "w") as fh:
            json.dump(meta, fh, indent=2, sort_keys=True)


def _write_ensemble_csv(path, ens, manifest_hash: str) -> None:
    columns = {"qx": ens.qs[:, 0], "qy": ens.qs[:, 1], "px": ens.ps[:, 0], "py": ens.ps[:, 1]}
    _write_table(path, manifest_hash, columns)


def write_characteristic_csv(path, grid: CharacteristicGrid, manifest_hash: str) -> None:
    u = grid.u_values
    columns = {
        "u": u,
        "re_g": grid.g_values.real,
        "im_g": grid.g_values.imag,
        "stderr_re": grid.stderr_re,
        "stderr_im": grid.stderr_im,
    }
    meta = {
        "n_samples": grid.n_samples,
        "n_failed": grid.n_failed,
        "beta": grid.beta,
        "hbar": grid.hbar,
        "w_center": grid.w_center,
        "du": float(u[1] - u[0]) if u.size > 1 else 0.0,
        "n_u": int(u.size),
        "manifest_sha256": manifest_hash,
        **grid.metadata,
    }
    _write_table(path, manifest_hash, columns, meta)


def write_histogram_csv(path, hist: WorkHistogram, manifest_hash: str) -> None:
    columns = {"w": hist.w_values, "density": hist.density, "error": hist.error}
    meta = {
        "broadening": hist.broadening,
        "bin_width": hist.bin_width,
        "total_mass": hist.total_mass,
        "imag_residue": hist.imag_residue,
        "manifest_sha256": manifest_hash,
        "provenance": hist.metadata,
    }
    _write_table(path, manifest_hash, columns, meta)


def read_histogram_csv(path) -> WorkHistogram:
    rows = []
    with open(path) as fh:
        for line in fh:
            if line.startswith("#") or line.startswith("w,"):
                continue
            parts = line.strip().split(",")
            if len(parts) == 3:
                rows.append([float(p) for p in parts])
    arr = np.asarray(rows)
    with open(str(path) + ".meta.json") as fh:
        meta = json.load(fh)
    return WorkHistogram(
        w_values=arr[:, 0],
        density=arr[:, 1],
        error=arr[:, 2],
        bin_width=meta["bin_width"],
        broadening=meta["broadening"],
        total_mass=meta["total_mass"],
        imag_residue=meta.get("imag_residue", 0.0),
        metadata=meta.get("provenance", {}),
    )


def _write_json(path, payload) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# Runners: each takes (cfg, out_dir, manifest_hash), writes its files into
# out_dir and returns {"files": [...]} plus an optional "report".


def _beta_tag(beta: float) -> str:
    e = math.log2(beta)
    if abs(e - round(e)) < 1e-12:
        return f"2e{int(round(e))}"
    return f"{beta:g}".replace(".", "p")


def _hbar_tag(hbar: float) -> str:
    return f"{hbar:g}".replace(".", "p")


def _path_in(out_dir: str, files: list):
    """Path maker for one runner: joins a name onto out_dir and records it."""

    def path(name: str) -> str:
        p = os.path.join(out_dir, name)
        files.append(p)
        return p

    return path


def _broadened_grid(cfg, grid):
    """Dual W grid of a u plan (or grid) and the broadening_bins smoothing width."""
    w_values, dw = spectra.dual_w_grid(grid.u_values, grid.w_center)
    return w_values, cfg.broadening_bins * dw


def _solve_quench(cfg, geom, pot, hbar):
    """Quantum spectra on the configured grid; a state count of 0 keeps all."""
    n0 = cfg.quantum_n_initial or None
    nf = cfg.quantum_n_final or None
    return quantum.solve_quench(geom, pot, hbar, cfg.quantum_h, n0, nf)


def _semiclassical_grids(cfg, geom, pot, requests):
    """Every request in one engine call, so requests that share rays share traces."""
    return semiclassical_characteristic(
        requests, geom, pot, workers=cfg.resolved_workers(), max_bounces=cfg.max_bounces
    )


def _scenario_u_points(cfg, fallback):
    return cfg.u_points if "u_points" in cfg.explicit_keys else fallback


def _classical_histogram(cfg, geom, pot, plan, beta):
    sample = classical.sample_classical_work(geom, pot, beta, cfg.n_classical, cfg.seed)
    w_values, eps = _broadened_grid(cfg, plan)
    hist = spectra.spikes_to_histogram(
        sample.values,
        np.full(sample.n, 1.0 / sample.n),
        w_values,
        eps,
        sample_count=sample.n,
        metadata={"beta": beta, "source": "classical_mc"},
    )
    return sample, hist


def run_semiclassical(cfg: RunConfig, out_dir: str, manifest_hash: str) -> dict:
    """One (beta, hbar): semiclassical G(u) and its inverted work distribution."""
    geom, pot = cfg.geometry(), cfg.potential()
    plan = plan_u_grid(geom, pot, cfg.seed, n_u=cfg.u_points, pad_frac=cfg.pad_frac)
    ens = sampler.sample_ensemble(geom, cfg.beta_list[0], cfg.n_samples, cfg.seed)
    [grid] = _semiclassical_grids(cfg, geom, pot, [Request(ens, plan, cfg.hbar_list[0])])
    _, eps = _broadened_grid(cfg, grid)
    hist = spectra.invert(grid, broadening=eps)
    files = []
    path = _path_in(out_dir, files)
    if cfg.dump_ensemble:
        _write_ensemble_csv(path("ensemble.csv"), ens, manifest_hash)
    write_characteristic_csv(path("semiclassical_g.csv"), grid, manifest_hash)
    write_histogram_csv(path("semiclassical_workdist.csv"), hist, manifest_hash)
    return {"files": files}


def run_classical(cfg: RunConfig, out_dir: str, manifest_hash: str) -> dict:
    """One beta: classical work sample, its histogram and the free energy."""
    geom, pot = cfg.geometry(), cfg.potential()
    beta = cfg.beta_list[0]
    plan = plan_u_grid(geom, pot, cfg.seed, n_u=cfg.u_points, pad_frac=cfg.pad_frac)
    sample, hist = _classical_histogram(cfg, geom, pot, plan, beta)
    files = []
    path = _path_in(out_dir, files)
    write_histogram_csv(path("classical_workdist.csv"), hist, manifest_hash)
    if cfg.dump_ensemble:
        _write_table(path("work_samples.csv"), manifest_hash, {"w": sample.values})
    ref = classical.classical_free_energy_difference(geom, pot, beta)
    est, se = analysis.jarzynski_from_samples(sample.values, beta)
    report = {
        "beta": beta,
        "delta_f_quadrature": ref,
        "delta_f_mc": est,
        "stderr_mc": se,
        "manifest_sha256": manifest_hash,
    }
    _write_json(path("classical_report.json"), report)
    return {"files": files, "report": report}


def run_quantum(cfg: RunConfig, out_dir: str, manifest_hash: str) -> dict:
    """One (beta, hbar): grid spectra, quantum P(W), G(u) and the free-energy identity."""
    geom, pot = cfg.geometry(), cfg.potential()
    beta, hbar = cfg.beta_list[0], cfg.hbar_list[0]
    files = []
    path = _path_in(out_dir, files)
    spec = _solve_quench(cfg, geom, pot, hbar)
    quantum.save_spectra(path("spectra.bin"), spec)
    files.extend(quantum.export_spectra_csv(out_dir, spec, manifest_hash))
    lo, hi = quantum.spike_support(spec, beta, mass_tol=1e-10)
    plan = plan_from_window(lo, hi, n_u=cfg.u_points, pad_frac=cfg.pad_frac)
    w_values, eps = _broadened_grid(cfg, plan)
    hist = quantum.quantum_work_distribution(spec, beta, w_values, eps)
    grid = quantum.quantum_characteristic(spec, beta, plan)
    write_histogram_csv(path("quantum_workdist.csv"), hist, manifest_hash)
    write_characteristic_csv(path("quantum_g.csv"), grid, manifest_hash)
    lhs, rhs = quantum.quantum_jarzynski(spec, beta)
    report = {
        "beta": beta,
        "jarzynski_lhs": lhs,
        "jarzynski_rhs": rhs,
        "manifest_sha256": manifest_hash,
    }
    _write_json(path("quantum_report.json"), report)
    return {"files": files, "report": report}


def run_fig4(cfg: RunConfig, out_dir: str, manifest_hash: str) -> dict:
    """Classical-limit sweep: fixed beta, shrinking hbar, L1 against classical."""
    geom = cfg.geometry()
    pot = cfg.potential()
    beta = cfg.beta_list[0]
    hbars = cfg.hbar_list if "hbar_list" in cfg.explicit_keys else (0.01, 0.1, 0.5, 1.0)
    # Distribution-level comparison: a coarse dual grid (work resolution of a
    # few energy units) probes the classical limit rather than the dephasing
    # crossover that dominates at fine u resolution.
    plan = plan_u_grid(
        geom, pot, cfg.seed, n_u=_scenario_u_points(cfg, 32), pad_frac=cfg.pad_frac
    )

    files = []
    path = _path_in(out_dir, files)
    _, clhist = _classical_histogram(cfg, geom, pot, plan, beta)
    write_histogram_csv(path("classical_workdist.csv"), clhist, manifest_hash)

    ens = sampler.sample_ensemble(geom, beta, cfg.n_samples, cfg.seed)
    if cfg.dump_ensemble:
        _write_ensemble_csv(path("ensemble.csv"), ens, manifest_hash)
    grids = _semiclassical_grids(cfg, geom, pot, [Request(ens, plan, h) for h in hbars])
    table = []
    for hbar, grid in zip(hbars, grids):
        hist = spectra.invert(grid, broadening=clhist.broadening)
        tag = _hbar_tag(hbar)
        write_characteristic_csv(path(f"semiclassical_g_hbar{tag}.csv"), grid, manifest_hash)
        write_histogram_csv(path(f"semiclassical_workdist_hbar{tag}.csv"), hist, manifest_hash)
        cmp = analysis.compare_histograms(hist, clhist)
        table.append({"hbar": hbar, **cmp})

    report = {
        "beta": beta,
        "comparisons": table,
        "broadening": clhist.broadening,
        "manifest_sha256": manifest_hash,
    }
    _write_json(path("fig4_report.json"), report)
    return {"files": files, "report": report}


def run_fig3(cfg: RunConfig, out_dir: str, manifest_hash: str) -> dict:
    """Free-energy sweep: quadrature reference vs classical MC vs semiclassical."""
    geom = cfg.geometry()
    pot = cfg.potential()
    betas = (
        cfg.beta_list
        if "beta_list" in cfg.explicit_keys
        else tuple(2.0**-k for k in range(7, 14))
    )
    hbar = cfg.hbar_list[0]
    plan = plan_u_grid(
        geom, pot, cfg.seed, n_u=_scenario_u_points(cfg, 64), pad_frac=cfg.pad_frac
    )

    # The classical work does not depend on beta, so one sample serves every row.
    sample = classical.sample_classical_work(geom, pot, betas[0], cfg.n_classical, cfg.seed)
    requests = [
        Request(
            sampler.sample_ensemble(geom, beta, cfg.n_samples, cfg.seed),
            plan,
            hbar,
            collect_covariance=True,
        )
        for beta in betas
    ]
    grids = _semiclassical_grids(cfg, geom, pot, requests)
    rows = []
    for beta, grid in zip(betas, grids):
        ref = classical.classical_free_energy_difference(geom, pot, beta)
        est_mc, se_mc = analysis.jarzynski_from_samples(sample.values, beta)
        est_sc, se_sc = analysis.jarzynski_from_characteristic(grid, beta)
        rows.append(
            {
                "beta": beta,
                "delta_f_reference": ref,
                "delta_f_classical_mc": est_mc,
                "stderr_classical_mc": se_mc,
                "delta_f_semiclassical": est_sc,
                "stderr_semiclassical": se_sc,
            }
        )

    files = []
    path = _path_in(out_dir, files)
    columns = {c: [row[c] for row in rows] for c in rows[0]}
    _write_table(path("jarzynski_sweep.csv"), manifest_hash, columns)
    report = {"hbar": hbar, "rows": rows, "manifest_sha256": manifest_hash}
    _write_json(path("fig3_report.json"), report)
    return {"files": files, "report": report}


_TRUNCATION_CAVEAT = (
    "only a handful of low-lying levels carry Boltzmann weight at this "
    "temperature, so the retained basis distorts the distribution; treat the "
    "quantum curve as unavailable here"
)


def run_fig2(cfg: RunConfig, out_dir: str, manifest_hash: str) -> dict:
    """Quantum vs semiclassical work distributions across temperatures."""
    geom = cfg.geometry()
    pot = cfg.potential()
    betas = (
        cfg.beta_list
        if "beta_list" in cfg.explicit_keys
        else (2.0**-6, 2.0**-8, 2.0**-10, 2.0**-12)
    )
    hbar = cfg.hbar_list[0]
    files = []
    path = _path_in(out_dir, files)
    spec = _solve_quench(cfg, geom, pot, hbar)
    quantum.save_spectra(path("spectra.bin"), spec)

    base_plan = plan_u_grid(geom, pot, cfg.seed, n_u=cfg.u_points, pad_frac=cfg.pad_frac)
    w_all, _ = _broadened_grid(cfg, base_plan)

    requests = []
    for beta in betas:
        ens = sampler.sample_ensemble(geom, beta, cfg.n_samples, cfg.seed)
        try:
            lo_q, hi_q = quantum.spike_support(spec, beta, mass_tol=1e-10)
        except quantum.TruncationDominates:
            lo_q, hi_q = w_all[0], w_all[-1]
        lo = min(w_all[0], lo_q)
        hi = max(w_all[-1], hi_q)
        plan = plan_from_window(lo, hi, n_u=cfg.u_points, pad_frac=0.05)
        requests.append(Request(ens, plan, hbar))
    grids = _semiclassical_grids(cfg, geom, pot, requests)

    rows = []
    warnings = []
    for beta, req, grid_sc in zip(betas, requests, grids):
        tag = _beta_tag(beta)
        plan = req.u_grid
        w_values, eps = _broadened_grid(cfg, plan)
        hist_sc = spectra.invert(grid_sc, broadening=eps)
        write_characteristic_csv(path(f"semiclassical_g_beta{tag}.csv"), grid_sc, manifest_hash)
        write_histogram_csv(path(f"semiclassical_workdist_beta{tag}.csv"), hist_sc, manifest_hash)

        row = {"beta": beta}
        try:
            hist_q = quantum.quantum_work_distribution(spec, beta, w_values, eps)
            grid_q = quantum.quantum_characteristic(spec, beta, plan)
            write_characteristic_csv(path(f"quantum_g_beta{tag}.csv"), grid_q, manifest_hash)
            write_histogram_csv(path(f"quantum_workdist_beta{tag}.csv"), hist_q, manifest_hash)
            row.update(analysis.compare_histograms(hist_q, hist_sc))
        except quantum.TruncationDominates as exc:
            msg = f"beta={beta:g}: {exc}; {_TRUNCATION_CAVEAT}"
            warnings.append(msg)
            row["quantum"] = "unavailable"
        rows.append(row)

    report = {
        "hbar": hbar,
        "rows": rows,
        "warnings": warnings,
        "manifest_sha256": manifest_hash,
    }
    _write_json(path("fig2_report.json"), report)
    return {"files": files, "report": report}


_SCENARIOS = {"fig2": run_fig2, "fig3": run_fig3, "fig4": run_fig4}
# Run subcommands that write straight into out_dir; jarzynski is fig3 there.
_COMMANDS = {
    "semiclassical": run_semiclassical,
    "classical": run_classical,
    "quantum": run_quantum,
    "jarzynski": run_fig3,
}


def _execute(cfg: RunConfig, name: str, runner, out_dir: str) -> dict:
    """The one run path: manifest, output directory, runner, manifest.json."""
    manifest = config_manifest(cfg, name)
    os.makedirs(out_dir, exist_ok=True)
    result = runner(cfg, out_dir, manifest["config_sha256"])
    mp = os.path.join(out_dir, "manifest.json")
    _write_json(mp, manifest)
    result["files"].append(mp)
    return {"out_dir": out_dir, "manifest": manifest, **result}


def run_scenario(cfg: RunConfig, scenario: str) -> dict:
    """Execute one named scenario into out_dir/<scenario>, manifest included."""
    if scenario not in _SCENARIOS:
        raise ValueError(f"unknown scenario {scenario!r}; pick one of {sorted(_SCENARIOS)}")
    return _execute(cfg, scenario, _SCENARIOS[scenario], os.path.join(cfg.out_dir, scenario))


# ---------------------------------------------------------------------------
# Entry point


def _load_config(args) -> RunConfig:
    if args.config:
        with open(args.config) as fh:
            cfg = validate_config(fh.read())
    else:
        cfg = RunConfig()
    cfg = apply_env_overrides(cfg)
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.workers is not None:
        overrides["workers"] = args.workers
    if args.out is not None:
        overrides["out_dir"] = args.out
    for flag in ("beta", "hbar"):
        raw = getattr(args, flag)
        if raw is not None:
            overrides[f"{flag}_list"] = (_convert(_parse_number, raw, f"--{flag}"),)
    if not overrides:
        return cfg
    explicit = tuple(sorted(set(cfg.explicit_keys) | set(overrides)))
    return _check_ranges(replace(cfg, explicit_keys=explicit, **overrides))


def _cmd_run(args) -> dict:
    cfg = _load_config(args)
    if args.command == "scenario":
        result = run_scenario(cfg, args.name)
    else:
        result = _execute(cfg, args.command, _COMMANDS[args.command], cfg.out_dir)
    del result["manifest"]
    return result


def _cmd_compare(args) -> dict:
    a = read_histogram_csv(args.first)
    b = read_histogram_csv(args.second)
    report = analysis.compare_histograms(a, b)
    report["first"] = args.first
    report["second"] = args.second
    out = args.out or "comparison.json"
    _write_json(out, report)
    return report


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chaowork",
        description="Work statistics of a sudden quench in a chaotic billiard",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="path to a key = value configuration file")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--workers", type=int, default=None)
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--beta", default=None, help="inverse temperature (accepts 2^-12)")
        p.add_argument("--hbar", default=None)
        p.set_defaults(func=_cmd_run)

    for name, help_text in (
        ("semiclassical", "characteristic function + work distribution"),
        ("classical", "classical work sample and free energy"),
        ("quantum", "grid oracle: spectra and work distribution"),
        ("jarzynski", "free-energy sweep over temperatures (scenario fig3 into --out)"),
    ):
        common(sub.add_parser(name, help=help_text))

    p = sub.add_parser("compare", help="L1 distance between two histogram CSVs")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("scenario", help="run a canned experiment")
    p.add_argument("name", choices=sorted(_SCENARIOS))
    common(p)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        result = args.func(args)
    except Exception as exc:  # noqa: BLE001 - single choke point for error JSON
        payload = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(payload), file=sys.stderr)
        return 1
    print(json.dumps(result, indent=2, sort_keys=True, default=str))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
