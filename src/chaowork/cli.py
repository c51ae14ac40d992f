"""Command-line orchestration: configuration, scenario runners, persistence.

Configuration is a flat ``key = value`` text file whose keys are the fields
of RunConfig; CLI flags override environment variables (prefix CHAOWORK_),
which override the file, which overrides a scenario's own sweep
(``_SCENARIO_DEFAULTS``), which overrides the built-in defaults (the default
system of the study: r = l = 1 billiard, four bumps of width 0.1, quench
strength 0 -> 85).  File, environment and flags share one grammar: a key
parses by the type of its default.

Every run writes a manifest JSON recording the configuration that ran, its
SHA-256 hash, the seed, library versions, the platform and C library, the CPU count and
the compiled engine's cache key; each CSV embeds that hash in a
leading comment line so outputs can be audited after the fact.  Outputs are
a pure function of the configuration's values: reruns are byte-identical
whatever the worker count or output directory.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import sys
from dataclasses import dataclass, fields, replace

import numpy as np

from . import __version__, analysis, classical, native, quantum, sampler, spectra
from .characteristic import (
    CharacteristicGrid,
    InsufficientMemory,
    Request,
    plan_from_window,
    plan_u_grid,
    semiclassical_characteristic,
)
from .geometry import BilliardGeometry
from .potential import DEFAULT_CENTERS, DEFAULT_SIGNS, QuenchPotential
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
        if float(base) == 0.0 and int(exp) < 0:
            raise ValueError(f"0 has no negative power: {token!r}")
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
    geometry_r: float = BilliardGeometry.r
    geometry_l: float = BilliardGeometry.l
    sigma: float = QuenchPotential.sigma
    xi_f: float = QuenchPotential.xi_f
    xi_0: float = QuenchPotential.xi_0
    centers: tuple[float, ...] = tuple(c for center in DEFAULT_CENTERS for c in center)
    signs: tuple[float, ...] = DEFAULT_SIGNS
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


# Every key parses by the type of its default.
_PARSERS = {
    bool: _parse_bool,
    int: _parse_int,
    float: _parse_number,
    tuple: _parse_float_list,
    str: str,
}
_CONVERTERS = {f.name: _PARSERS[type(f.default)] for f in fields(RunConfig)}


def _beta_tag(beta: float) -> str:
    e = math.log2(beta)
    if abs(e - round(e)) < 1e-12:
        return f"2e{int(round(e))}"
    return f"{beta:g}".replace(".", "p")


def _hbar_tag(hbar: float) -> str:
    return f"{hbar:g}".replace(".", "p")


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
    # Scenarios name their per-beta and per-hbar files by these tags.
    for key, tag in (("beta_list", _beta_tag), ("hbar_list", _hbar_tag)):
        values = getattr(cfg, key)
        if not values:
            raise RangeError(key, "must not be empty")
        for v in values:
            positive(key, v)
        tags = [tag(v) for v in values]
        if len(set(tags)) < len(tags):
            raise RangeError(key, f"entries must have distinct file tags, got {tags}")
    if cfg.max_bounces < 1:
        raise RangeError("max_bounces", f"must be >= 1, got {cfg.max_bounces}")
    # A standard error needs two samples.
    for key in ("n_samples", "n_classical"):
        if getattr(cfg, key) < 2:
            raise RangeError(key, f"must be >= 2, got {getattr(cfg, key)}")
    if cfg.u_points < 2:
        raise RangeError("u_points", "need at least two u points")
    nonneg("pad_frac", cfg.pad_frac)
    # Unbroadened inversion always trips the aliasing guard, and only after the trace.
    positive("broadening_bins", cfg.broadening_bins)
    if cfg.seed < 0:
        raise RangeError("seed", f"must be nonnegative, got {cfg.seed}")
    if cfg.workers < 0:
        raise RangeError("workers", f"must be nonnegative, got {cfg.workers}")
    positive("quantum_h", cfg.quantum_h)
    for key in ("quantum_n_initial", "quantum_n_final"):
        if getattr(cfg, key) < 0:
            raise RangeError(key, f"must be nonnegative, got {getattr(cfg, key)}")
    return cfg


def validate_config(text: str, defaults: dict | None = None) -> RunConfig:
    """Parse, default and range-check a flat key = value configuration.

    Unknown keys are hard errors; an empty file yields the built-in default
    system, with ``defaults`` (a command's own values) in place of its keys.
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
    return _check_ranges(RunConfig(**{**(defaults or {}), **data}))


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
    return _check_ranges(replace(cfg, **updates))


def config_manifest(cfg: RunConfig, scenario: str) -> dict:
    body = {f.name: getattr(cfg, f.name) for f in fields(RunConfig)}
    # out_dir and workers cannot change any output byte, so they stay out of
    # the hash: reruns to another directory remain verifiably identical.
    hashed = {k: v for k, v in body.items() if k not in ("out_dir", "workers")}
    canonical = json.dumps(hashed, sort_keys=True)
    digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
    # Read without importing scipy, which only a partial quantum spectrum needs.
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "scenario": scenario,
        "config": body,
        "config_sha256": digest,
        "seed": cfg.seed,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": scipy_version,
            "chaowork": __version__,
            # The engine's erf and exp come from the C library (libmvec on
            # x86_64 glibc >= 2.35 with AVX2), so its name and version are
            # recorded.
            "platform": "-".join(
                filter(
                    None,
                    [platform.system(), platform.release(), platform.machine(), *platform.libc_ver()],
                )
            ),
            "cpu_count": os.cpu_count(),
            "engine": _engine_key(),
        },
    }


def _engine_key() -> str | None:
    """Cache key of the compiled engine (none without a compiler); builds nothing."""
    try:
        return native.library_key()
    except native.BuildError:
        return None


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


def _write_ensemble_csv(path, ens, beta: float, manifest_hash: str) -> None:
    ps = ens.momenta(beta)
    columns = {"qx": ens.qs[:, 0], "qy": ens.qs[:, 1], "px": ps[:, 0], "py": ps[:, 1]}
    _write_table(path, manifest_hash, columns)


def write_characteristic_csv(path, grid: CharacteristicGrid, manifest_hash: str) -> None:
    plan = grid.plan
    columns = {
        "u": plan.u_values,
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
        "w_center": plan.w_center,
        "du": plan.du,
        "n_u": int(plan.n),
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
    """A histogram written by ``write_histogram_csv``, with its sidecar.

    Every data row must be three numeric fields; ValueError names the file
    and line of the first that is not, or the sidecar and its parse error or missing key.
    """
    rows = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.startswith("#") or line.startswith("w,") or not line.strip():
                continue
            try:
                w, density, error = map(float, line.split(","))
            except ValueError:
                raise ValueError(
                    f"{path}, line {lineno}: expected three numeric fields w,density,error,"
                    f" got {line.strip()!r}"
                ) from None
            rows.append((w, density, error))
    if not rows:
        raise ValueError(f"{path}: no histogram rows")
    arr = np.asarray(rows)
    meta_path = f"{path}.meta.json"
    with open(meta_path) as fh:
        try:
            meta = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{meta_path}: {exc}") from None
    for key in ("bin_width", "broadening", "total_mass"):
        if key not in (meta if isinstance(meta, dict) else {}):
            raise ValueError(f"{meta_path}: needs a JSON object with {key!r}")
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
    """Strict JSON: a NaN or infinity in ``payload`` raises ValueError."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)


# ---------------------------------------------------------------------------
# Runners: each takes (cfg, out), computes, writes its data files at
# out.path(name) under out.hash, and returns None or (report file name,
# report body).  _execute stamps the body with the manifest hash and writes
# it, then manifest.json.


class _Output:
    """One run's output directory, its manifest hash and the files written so far."""

    def __init__(self, directory: str, manifest_hash: str):
        self.dir = directory
        self.hash = manifest_hash
        self.files: list[str] = []

    def path(self, name: str) -> str:
        """Joins a name onto the directory and records it, in order."""
        p = os.path.join(self.dir, name)
        self.files.append(p)
        return p


def _broadening(cfg, plan):
    """The broadening_bins smoothing width on a u plan's W grid."""
    return cfg.broadening_bins * plan.dw


def _check_inversion(n_u):
    """Refuse, before any work, a u grid whose inversion would not fit in memory."""
    try:
        spectra.check_transform_memory(n_u)
    except InsufficientMemory as exc:
        raise InsufficientMemory(f"u_points = {n_u}: {exc}; lower u_points") from None


def _plan(cfg, geom, pot):
    """The pilot u plan on u_points, whose inversion is checked to fit in memory."""
    plan = plan_u_grid(geom, pot, cfg.seed, n_u=cfg.u_points, pad_frac=cfg.pad_frac)
    _check_inversion(plan.n)
    return plan


def _check_broadening_correction(cfg, plan, betas, eps):
    """Refuse, before any work, a beta whose free energy cannot take the
    broadening correction: exp((beta eps)^2 / 2) overflows, or the
    broadened spikes, tilted by exp(-beta W), sit beta eps^2 below their
    place, past the pad of the plan's window."""
    span = 2.0 * math.pi / plan.du
    pad = cfg.pad_frac * span / (1.0 + 2.0 * cfg.pad_frac)
    for beta in betas:
        tilt = beta * eps * eps
        if analysis.broadening_correction_overflows(beta, eps) or tilt > pad:
            raise RangeError(
                "beta_list",
                f"beta = {beta:g} with broadening_bins = {cfg.broadening_bins:g} is too cold"
                f" for the broadening correction: it tilts the spikes by beta eps^2 = {tilt:.4g}"
                f" in W against the plan's pad of {pad:.4g}, and exp((beta eps)^2 / 2) must be"
                f" finite (beta eps = {beta * eps:.4g}); lower beta or broadening_bins",
            )


def _solve_quench(cfg, geom, pot, hbar):
    """Quantum spectra on the configured grid; a state count of 0 keeps all."""
    _check_inversion(cfg.u_points)  # every run that solves inverts on u_points
    n0 = cfg.quantum_n_initial or None
    nf = cfg.quantum_n_final or None
    try:
        return quantum.solve_quench(geom, pot, hbar, cfg.quantum_h, n0, nf)
    except quantum.TooManyStates as exc:
        raise RangeError(f"quantum_{exc.count}", f"{exc} at quantum_h = {cfg.quantum_h:g}") from None
    except InsufficientMemory as exc:
        raise InsufficientMemory(
            f"quantum_h = {cfg.quantum_h:g}: {exc}; raise quantum_h, or set quantum_n_initial"
            " and quantum_n_final to keep part of the spectrum"
        ) from None


def _semiclassical_grids(cfg, geom, pot, requests):
    """Every request in one engine call on the run's ensemble, so all share one trace."""
    ens = sampler.sample_ensemble(geom, cfg.n_samples, cfg.seed)
    try:
        grids = semiclassical_characteristic(
            ens, requests, geom, pot, workers=cfg.resolved_workers(), max_bounces=cfg.max_bounces
        )
    except InsufficientMemory as exc:
        raise InsufficientMemory(
            f"{exc}; lower u_points or workers, or sweep fewer beta_list or hbar_list entries"
        ) from None
    return ens, grids


def _one(cfg, key):
    """The entry of a list key that the command reads one entry of; a longer
    list is refused rather than cut."""
    values = getattr(cfg, key)
    if len(values) != 1:
        raise RangeError(
            key,
            f"this command takes one entry, got {len(values)} ({', '.join(map(repr, values))});"
            " run them one at a time, or use a scenario that sweeps it",
        )
    return values[0]


def _classical_histogram(cfg, geom, pot, plan, beta):
    sample = classical.sample_classical_work(geom, pot, cfg.n_classical, cfg.seed)
    meta = {"beta": beta, "source": "classical_mc"}
    hist = spectra.bin_spikes(sample.values, plan, _broadening(cfg, plan), metadata=meta)
    return sample, hist


def run_semiclassical(cfg: RunConfig, out: _Output) -> None:
    """One (beta, hbar): semiclassical G(u) and its inverted work distribution."""
    beta, hbar = _one(cfg, "beta_list"), _one(cfg, "hbar_list")
    geom, pot = cfg.geometry(), cfg.potential()
    plan = _plan(cfg, geom, pot)
    ens, [grid] = _semiclassical_grids(cfg, geom, pot, [Request(beta, plan, hbar)])
    hist = spectra.invert(grid, broadening=_broadening(cfg, plan))
    if cfg.dump_ensemble:
        _write_ensemble_csv(out.path("ensemble.csv"), ens, beta, out.hash)
    write_characteristic_csv(out.path("semiclassical_g.csv"), grid, out.hash)
    write_histogram_csv(out.path("semiclassical_workdist.csv"), hist, out.hash)


def run_classical(cfg: RunConfig, out: _Output) -> tuple[str, dict]:
    """One beta: classical work sample, its histogram and the free energy."""
    beta = _one(cfg, "beta_list")
    geom, pot = cfg.geometry(), cfg.potential()
    plan = plan_u_grid(geom, pot, cfg.seed, n_u=cfg.u_points, pad_frac=cfg.pad_frac)
    sample, hist = _classical_histogram(cfg, geom, pot, plan, beta)
    ref = classical.classical_free_energy_difference(geom, pot, beta)
    est, se = analysis.jarzynski_from_samples(sample.values, beta)
    write_histogram_csv(out.path("classical_workdist.csv"), hist, out.hash)
    if cfg.dump_ensemble:
        _write_table(out.path("work_samples.csv"), out.hash, {"w": sample.values})
    report = {"beta": beta, "delta_f_quadrature": ref, "delta_f_mc": est, "stderr_mc": se}
    return "classical_report.json", report


def run_quantum(cfg: RunConfig, out: _Output) -> tuple[str, dict]:
    """One (beta, hbar): grid spectra, quantum P(W), G(u) and the free-energy identity."""
    beta, hbar = _one(cfg, "beta_list"), _one(cfg, "hbar_list")
    geom, pot = cfg.geometry(), cfg.potential()
    spec = _solve_quench(cfg, geom, pot, hbar)
    lo, hi = quantum.spike_support(spec, beta, mass_tol=1e-10)
    plan = plan_from_window(lo, hi, n_u=cfg.u_points, pad_frac=cfg.pad_frac)
    # Truncation and aliasing both raise here, before any file is written.
    grid = quantum.quantum_characteristic(spec, beta, plan)
    hist = spectra.invert(grid, broadening=_broadening(cfg, plan))
    lhs, rhs = quantum.quantum_jarzynski(spec, beta)
    if not (math.isfinite(lhs) and math.isfinite(rhs)):
        raise RangeError(
            "beta_list",
            f"beta = {beta:g}: the free-energy identity overflows (jarzynski_lhs = {lhs},"
            f" jarzynski_rhs = {rhs}); raise the temperature",
        )
    quantum.save_spectra(out.path("spectra.bin"), spec)
    out.files.extend(quantum.export_spectra_csv(out.dir, spec, out.hash))
    write_histogram_csv(out.path("quantum_workdist.csv"), hist, out.hash)
    write_characteristic_csv(out.path("quantum_g.csv"), grid, out.hash)
    report = {
        "beta": beta,
        "jarzynski_lhs": lhs,
        "jarzynski_rhs": rhs,
        "eigensolve": spec.metadata["eigensolve"],
    }
    return "quantum_report.json", report


def run_fig4(cfg: RunConfig, out: _Output) -> tuple[str, dict]:
    """Classical-limit sweep: fixed beta, shrinking hbar, L1 against classical."""
    beta, hbars = _one(cfg, "beta_list"), cfg.hbar_list
    geom = cfg.geometry()
    pot = cfg.potential()
    plan = _plan(cfg, geom, pot)

    _, clhist = _classical_histogram(cfg, geom, pot, plan, beta)
    ens, grids = _semiclassical_grids(cfg, geom, pot, [Request(beta, plan, h) for h in hbars])
    hists = [spectra.invert(grid, broadening=clhist.broadening) for grid in grids]
    table = [
        {"hbar": hbar, **analysis.compare_histograms(hist, clhist)}
        for hbar, hist in zip(hbars, hists)
    ]

    write_histogram_csv(out.path("classical_workdist.csv"), clhist, out.hash)
    if cfg.dump_ensemble:
        _write_ensemble_csv(out.path("ensemble.csv"), ens, beta, out.hash)
    for hbar, grid, hist in zip(hbars, grids, hists):
        tag = _hbar_tag(hbar)
        write_characteristic_csv(out.path(f"semiclassical_g_hbar{tag}.csv"), grid, out.hash)
        write_histogram_csv(out.path(f"semiclassical_workdist_hbar{tag}.csv"), hist, out.hash)

    report = {"beta": beta, "comparisons": table, "broadening": clhist.broadening}
    return "fig4_report.json", report


def run_fig3(cfg: RunConfig, out: _Output) -> tuple[str, dict]:
    """Free-energy sweep: quadrature reference vs classical MC vs semiclassical."""
    betas, hbar = cfg.beta_list, _one(cfg, "hbar_list")
    geom = cfg.geometry()
    pot = cfg.potential()
    plan = _plan(cfg, geom, pot)
    eps = _broadening(cfg, plan)
    _check_broadening_correction(cfg, plan, betas, eps)

    # The classical work does not depend on beta, so one sample serves every row.
    sample = classical.sample_classical_work(geom, pot, cfg.n_classical, cfg.seed)
    functionals = analysis.jarzynski_functionals(plan, betas, eps)
    requests = [Request(beta, plan, hbar, c) for beta, c in zip(betas, functionals)]
    _, grids = _semiclassical_grids(cfg, geom, pot, requests)
    rows = []
    for beta, grid in zip(betas, grids):
        ref = classical.classical_free_energy_difference(geom, pot, beta)
        est_mc, se_mc = analysis.jarzynski_from_samples(sample.values, beta)
        est_sc, se_sc = analysis.jarzynski_from_characteristic(grid, beta, eps)
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

    columns = {c: [row[c] for row in rows] for c in rows[0]}
    _write_table(out.path("jarzynski_sweep.csv"), out.hash, columns)
    return "fig3_report.json", {"hbar": hbar, "rows": rows}


_TRUNCATION_CAVEAT = (
    "only a handful of low-lying levels carry Boltzmann weight at this "
    "temperature, so the retained basis distorts the distribution; treat the "
    "quantum curve as unavailable here"
)


def run_fig2(cfg: RunConfig, out: _Output) -> tuple[str, dict]:
    """Quantum vs semiclassical work distributions across temperatures."""
    betas, hbar = cfg.beta_list, _one(cfg, "hbar_list")
    geom = cfg.geometry()
    pot = cfg.potential()
    spec = _solve_quench(cfg, geom, pot, hbar)

    base_plan = plan_u_grid(geom, pot, cfg.seed, n_u=cfg.u_points, pad_frac=cfg.pad_frac)
    w_all = base_plan.w_values

    requests = []
    for beta in betas:
        try:
            quantum.check_truncation(spec.e0, beta)
            lo_q, hi_q = quantum.spike_support(spec, beta, mass_tol=1e-10)
        except quantum.TruncationDominates:
            lo_q, hi_q = w_all[0], w_all[-1]
        lo = min(w_all[0], lo_q)
        hi = max(w_all[-1], hi_q)
        plan = plan_from_window(lo, hi, n_u=cfg.u_points, pad_frac=cfg.pad_frac)
        requests.append(Request(beta, plan, hbar))
    _, grids = _semiclassical_grids(cfg, geom, pot, requests)

    rows = []
    warnings = []
    curves = []  # per beta: the semiclassical and, when available, quantum (grid, hist)
    for beta, req, grid_sc in zip(betas, requests, grids):
        eps = _broadening(cfg, req.u_grid)
        hist_sc = spectra.invert(grid_sc, broadening=eps)
        curve = {"semiclassical": (grid_sc, hist_sc)}
        row = {"beta": beta}
        try:
            grid_q = quantum.quantum_characteristic(spec, beta, req.u_grid)
            hist_q = spectra.invert(grid_q, broadening=eps)
            curve["quantum"] = (grid_q, hist_q)
            row.update(analysis.compare_histograms(hist_q, hist_sc))
        except quantum.TruncationDominates as exc:
            msg = f"beta={beta:g}: {exc}; {_TRUNCATION_CAVEAT}"
            warnings.append(msg)
            row["quantum"] = "unavailable"
        rows.append(row)
        curves.append(curve)

    quantum.save_spectra(out.path("spectra.bin"), spec)
    for beta, curve in zip(betas, curves):
        tag = _beta_tag(beta)
        for route, (grid, hist) in curve.items():
            write_characteristic_csv(out.path(f"{route}_g_beta{tag}.csv"), grid, out.hash)
            write_histogram_csv(out.path(f"{route}_workdist_beta{tag}.csv"), hist, out.hash)

    return "fig2_report.json", {"hbar": hbar, "rows": rows, "warnings": warnings}


_SCENARIOS = {"fig2": run_fig2, "fig3": run_fig3, "fig4": run_fig4}
# Run subcommands that write straight into out_dir; jarzynski is fig3 there.
_COMMANDS = {
    "semiclassical": run_semiclassical,
    "classical": run_classical,
    "quantum": run_quantum,
    "jarzynski": run_fig3,
}
# Each sweeping command's own values for the keys a config leaves out: they
# sit under the file, the environment and the flags.  fig3 and fig4 compare
# distributions, so their coarse dual grids (a work resolution of a few
# energy units) probe the classical limit rather than the dephasing crossover
# that dominates at fine u resolution.
_FIG3_DEFAULTS = {"beta_list": tuple(2.0**-k for k in range(7, 14)), "u_points": 64}
_SCENARIO_DEFAULTS = {
    "fig2": {"beta_list": (2.0**-6, 2.0**-8, 2.0**-10, 2.0**-12)},
    "fig3": _FIG3_DEFAULTS,
    "jarzynski": _FIG3_DEFAULTS,
    "fig4": {"hbar_list": (0.01, 0.1, 0.5, 1.0), "u_points": 32},
}


def _execute(cfg: RunConfig, name: str, runner, out_dir: str) -> dict:
    """The one run path: manifest, output directory, runner, its report, manifest.json."""
    manifest = config_manifest(cfg, name)
    os.makedirs(out_dir, exist_ok=True)
    out = _Output(out_dir, manifest["config_sha256"])
    report = runner(cfg, out)
    result = {"out_dir": out_dir, "manifest": manifest, "files": out.files}
    if report is not None:
        report_name, body = report
        body["manifest_sha256"] = out.hash
        _write_json(out.path(report_name), body)
        result["report"] = body
    _write_json(out.path("manifest.json"), manifest)
    return result


def run_scenario(cfg: RunConfig, scenario: str) -> dict:
    """Execute one named scenario into out_dir/<scenario>, manifest included.

    cfg runs as given: the command line puts a scenario's own sweep
    (``_SCENARIO_DEFAULTS``) under the file when it builds cfg.
    """
    if scenario not in _SCENARIOS:
        raise ValueError(f"unknown scenario {scenario!r}; pick one of {sorted(_SCENARIOS)}")
    return _execute(cfg, scenario, _SCENARIOS[scenario], os.path.join(cfg.out_dir, scenario))


# ---------------------------------------------------------------------------
# Entry point


# Each run flag sets one key and parses with the same grammar as the file.
_FLAG_KEYS = {
    "seed": "seed",
    "workers": "workers",
    "out": "out_dir",
    "beta": "beta_list",
    "hbar": "hbar_list",
}


def _load_config(args) -> RunConfig:
    """Defaults, then the command's own, then the file, environment and flags."""
    text = ""
    if args.config:
        with open(args.config) as fh:
            text = fh.read()
    name = args.name if args.command == "scenario" else args.command
    cfg = apply_env_overrides(validate_config(text, _SCENARIO_DEFAULTS.get(name)))
    updates = {}
    for flag, key in _FLAG_KEYS.items():
        raw = getattr(args, flag)
        if raw is not None:
            updates[key] = _convert(_CONVERTERS[key], raw, f"--{flag}")
    return _check_ranges(replace(cfg, **updates))


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
        for flag, key in _FLAG_KEYS.items():
            p.add_argument(f"--{flag}", default=None, help=f"sets {key}, in the file's grammar")
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
