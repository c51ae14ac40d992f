"""Command-line orchestration: configuration, scenario runners, persistence.

Configuration is a flat ``key = value`` text file whose keys are the fields
of RunConfig; CLI flags override environment variables (prefix CHAOWORK_),
which override the file, which overrides a command's own defaults, which
override the built-in defaults (the default system of the study: r = l = 1
billiard, four bumps of width 0.1, quench strength 0 -> 85).  File,
environment and flags share one grammar: a key parses by the type of its
default.  ``_COMMANDS`` gives each command's defaults and the keys it reads.

Every run writes a manifest JSON recording the keys read, their SHA-256 hash,
the other keys set away from their defaults, the seed, library versions, the
platform and C library, the CPU count and the compiled engine's cache key;
each CSV embeds that hash in a leading comment line.  Outputs are a pure
function of the values of the keys read: reruns are byte-identical whatever
the worker count, the output directory or the keys the command ignores.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import sys
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import __version__, analysis, classical, native, quantum, sampler, spectra
from .characteristic import (
    CharacteristicGrid,
    InsufficientMemory,
    Request,
    check_trace_memory,
    plan_from_window,
    plan_trace,
    plan_u_grid,
    require_memory,
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


def config_manifest(cfg: RunConfig, name: str) -> dict:
    """The keys command ``name`` reads, their hash, and under ``ignored`` every
    other key whose value differs from the command's own default."""
    command = _COMMANDS[name]
    default = RunConfig(**command.defaults)
    body = {k: getattr(cfg, k) for k in _CONVERTERS if k in command.keys}
    ignored = [k for k in _CONVERTERS if k not in body and getattr(cfg, k) != getattr(default, k)]
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
    system = [platform.system(), platform.release(), platform.machine(), *platform.libc_ver()]
    return {
        "scenario": name,
        "config": body,
        "config_sha256": digest,
        "ignored": ignored,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": scipy_version,
            "chaowork": __version__,
            # The engine's erf and exp come from the C library (libmvec on
            # x86_64 glibc >= 2.35 with AVX2), so its name and version are
            # recorded.
            "platform": "-".join(filter(None, system)),
            "cpu_count": os.cpu_count(),
            "engine": _engine_key(),
            # The quantum route's bytes hold only at the same OpenBLAS core
            # and thread count.
            **quantum.numpy_blas(),
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
    """G(u) and its errors, up to the last traced u point when the grid
    records one (``u_traced``): the zeros past it were not measured."""
    plan = grid.plan
    k = grid.metadata.get("u_traced", plan.n)
    columns = {
        "u": plan.u_values[:k],
        "re_g": grid.g_values.real[:k],
        "im_g": grid.g_values.imag[:k],
        "stderr_re": grid.stderr_re[:k],
        "stderr_im": grid.stderr_im[:k],
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
# Runners: each takes (cfg, out), writes its data files at out.path(name) under
# out.hash and returns None or (report file name, report body); ``run`` stamps
# the body with the manifest hash and writes it, then manifest.json.


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


_INVERSION_ARRAYS = 16  # float64 (2 u_points - 1)-arrays; invert's peak: 10.5-11.5


@contextlib.contextmanager
def _keys(advice: str):
    """A memory refusal raised inside, followed by ``advice``: the keys that shrink it."""
    try:
        yield
    except InsufficientMemory as exc:
        raise InsufficientMemory(f"{exc}; {advice}") from None


# Per key: the doubles a run holds at its value v on a W grid of ``bins``
# bins, what holds them (the ensemble: positions and momenta, and each ray's
# bounce count, kept per chunk and joined once for its quantiles; binning:
# one bincount of W's histogram, its bins and both kernel tails) and the
# keys that shrink them.
_SIZES = {
    "u_points": (lambda v, bins: _INVERSION_ARRAYS * bins, "inverting G", "u_points"),
    "n_samples": (lambda v, bins: 6 * v, "the ensemble", "n_samples"),
    "n_classical": (lambda v, bins: v, "the work sample", "n_classical"),
    "broadening_bins": (lambda v, bins: bins + 2 * math.ceil(8 * v) + 1, "binning W",
                        "broadening_bins or u_points"),
}


def _check_memory(cfg, *keys):
    """Refuse, before any work, a run whose inversion, or an array one of
    ``keys`` sizes, would not fit in memory."""
    for key in ("u_points", *keys):
        doubles, what, shrink = _SIZES[key]
        value = getattr(cfg, key)
        with _keys(f"lower {shrink}"):
            require_memory(8 * doubles(value, 2 * cfg.u_points - 1), f"{key} = {value}: {what}")


def _plan(cfg, geom, pot, *keys):
    """The pilot u plan on u_points, after ``_check_memory(cfg, *keys)``."""
    _check_memory(cfg, *keys)
    return plan_u_grid(geom, pot, cfg.seed, n_u=cfg.u_points, pad_frac=cfg.pad_frac)


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


# float64 (u_points x n)-arrays quantum_characteristic holds at once, n the
# larger retained state count: arg, a, re and im, then re, im, s and c.
# ru_maxrss above the warmed-up baseline reads 4.4 of them at 1,057 states
# and 4,096 u points, 4.1 at 2,772 states and 2,048; the count leaves a
# margin of at least 1.5.
_QUANTUM_G_ARRAYS = 6


def _solve_quench(cfg, geom, pot, hbar):
    """Quantum spectra on the configured grid; a state count of 0 keeps all.
    A quantum_h whose lattice would not fit in memory or has too few sites,
    a state count above them and a u_points whose exact G(u) would not fit
    in memory are refused first.  The lattice is built once."""
    h = cfg.quantum_h
    try:
        with _keys(f"raise quantum_h from {h:g}"):
            grid = quantum.build_grid(geom, h)
    except quantum.GridTooCoarse as exc:
        raise RangeError("quantum_h", f"{exc}; lower quantum_h") from None
    sites = grid.n_sites
    for key in ("quantum_n_initial", "quantum_n_final"):
        if getattr(cfg, key) > sites:
            states = f"{getattr(cfg, key)} states from dimension {sites}"
            raise RangeError(key, f"requested {states} at quantum_h = {h:g}")
    n0, nf = cfg.quantum_n_initial or sites, cfg.quantum_n_final or sites
    n, u = max(n0, nf), cfg.u_points
    fewer = "or set quantum_n_initial and quantum_n_final to keep fewer states"
    with _keys(f"lower u_points, raise quantum_h, {fewer}"):
        what = f"u_points = {u}: the exact G(u) over {n} states at quantum_h = {h:g}"
        require_memory(_QUANTUM_G_ARRAYS * 8 * u * n, what)
    with _keys(f"raise quantum_h from {h:g}, {fewer}"):
        return quantum.solve_quench(geom, pot, hbar, h, n0, nf, grid)


# The keys that shrink a trace's memory.
_TRACE_KEYS = "lower u_points or workers, or sweep fewer beta_list or hbar_list entries"


def _check_trace(cfg, requests):
    """Refuse, before any draw, reference or trace, a trace of ``requests``
    over the run's ensemble that would not fit in memory: the engine's own
    count, over the same union of times."""
    with _keys(_TRACE_KEYS):
        plan_trace(requests, cfg.n_samples, cfg.resolved_workers())


def _semiclassical_grids(cfg, geom, pot, requests):
    """Every request in one engine call on the run's ensemble, so all share
    one trace; ``_check_trace`` has counted it."""
    ens = sampler.sample_ensemble(geom, cfg.n_samples, cfg.seed)
    grids = semiclassical_characteristic(
        ens, requests, geom, pot, workers=cfg.resolved_workers(), max_bounces=cfg.max_bounces
    )
    return ens, grids


def _references(geom, pot, betas):
    """Each beta's quadrature free energy, taken before any draw or trace, so
    that a beta whose quadrature does not converge is refused before work."""
    refs = []
    for beta in betas:
        try:
            refs.append(classical.classical_free_energy_difference(geom, pot, beta))
        except classical.QuadratureNonConvergence as exc:
            raise RangeError(
                "beta_list",
                f"beta = {beta:g} is too cold for the classical reference: {exc}; lower beta",
            ) from None
    return refs


def _classical_histogram(cfg, geom, pot, plan, beta):
    sample = classical.sample_classical_work(geom, pot, cfg.n_classical, cfg.seed)
    meta = {"beta": beta, "source": "classical_mc"}
    hist = spectra.bin_spikes(sample.values, plan, _broadening(cfg, plan), metadata=meta)
    return sample, hist


def run_semiclassical(cfg: RunConfig, out: _Output) -> None:
    """One (beta, hbar): semiclassical G(u) and its inverted work distribution."""
    [beta], [hbar] = cfg.beta_list, cfg.hbar_list
    geom, pot = cfg.geometry(), cfg.potential()
    plan = _plan(cfg, geom, pot, "n_samples")
    eps = _broadening(cfg, plan)
    requests = [Request(beta, plan, hbar, broadening=eps)]
    _check_trace(cfg, requests)
    ens, [grid] = _semiclassical_grids(cfg, geom, pot, requests)
    hist = spectra.invert(grid, broadening=eps)
    if cfg.dump_ensemble:
        _write_ensemble_csv(out.path("ensemble.csv"), ens, beta, out.hash)
    write_characteristic_csv(out.path("semiclassical_g.csv"), grid, out.hash)
    write_histogram_csv(out.path("semiclassical_workdist.csv"), hist, out.hash)


def run_classical(cfg: RunConfig, out: _Output) -> tuple[str, dict]:
    """One beta: classical work sample, its histogram and the free energy."""
    [beta] = cfg.beta_list
    geom, pot = cfg.geometry(), cfg.potential()
    plan = _plan(cfg, geom, pot, "n_classical", "broadening_bins")
    [ref] = _references(geom, pot, [beta])
    sample, hist = _classical_histogram(cfg, geom, pot, plan, beta)
    est, se = analysis.jarzynski_from_samples(sample.values, beta)
    write_histogram_csv(out.path("classical_workdist.csv"), hist, out.hash)
    if cfg.dump_ensemble:
        _write_table(out.path("work_samples.csv"), out.hash, {"w": sample.values})
    report = {"beta": beta, "delta_f_quadrature": ref, "delta_f_mc": est, "stderr_mc": se}
    return "classical_report.json", report


_TRUNCATION_CAVEAT = (
    "the thermal weight reaches the top of the retained basis, so this temperature is too"
    " hot for it and the quantum curve is unavailable here; retain more states"
    " (quantum_n_initial, quantum_n_final), refine the grid (a smaller quantum_h) or take"
    " a colder beta_list entry"
)


def run_quantum(cfg: RunConfig, out: _Output) -> tuple[str, dict]:
    """One (beta, hbar): grid spectra, quantum P(W), G(u) and the free-energy identity."""
    [beta], [hbar] = cfg.beta_list, cfg.hbar_list
    geom, pot = cfg.geometry(), cfg.potential()
    _check_memory(cfg)
    spec = _solve_quench(cfg, geom, pot, hbar)
    lo, hi = quantum.spike_support(spec, beta)
    plan = plan_from_window(lo, hi, n_u=cfg.u_points, pad_frac=cfg.pad_frac)
    # Truncation and aliasing both raise here, before any file is written.
    try:
        grid = quantum.quantum_characteristic(spec, beta, plan)
    except quantum.TruncationDominates as exc:
        raise quantum.TruncationDominates(f"beta={beta:g}: {exc}; {_TRUNCATION_CAVEAT}") from None
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
    solves = spec.metadata["eigensolve"]
    report = {"beta": beta, "jarzynski_lhs": lhs, "jarzynski_rhs": rhs, "eigensolve": solves}
    return "quantum_report.json", report


def run_fig4(cfg: RunConfig, out: _Output) -> tuple[str, dict]:
    """Classical-limit sweep: fixed beta, shrinking hbar, L1 against classical."""
    [beta], hbars = cfg.beta_list, cfg.hbar_list
    geom, pot = cfg.geometry(), cfg.potential()
    plan = _plan(cfg, geom, pot, "n_classical", "broadening_bins", "n_samples")
    eps = _broadening(cfg, plan)
    requests = [Request(beta, plan, h, broadening=eps) for h in hbars]
    _check_trace(cfg, requests)

    _, clhist = _classical_histogram(cfg, geom, pot, plan, beta)
    ens, grids = _semiclassical_grids(cfg, geom, pot, requests)
    hists = [spectra.invert(grid, broadening=eps) for grid in grids]
    table = [{"hbar": h, **analysis.compare_histograms(x, clhist)} for h, x in zip(hbars, hists)]

    write_histogram_csv(out.path("classical_workdist.csv"), clhist, out.hash)
    if cfg.dump_ensemble:
        _write_ensemble_csv(out.path("ensemble.csv"), ens, beta, out.hash)
    for hbar, grid, hist in zip(hbars, grids, hists):
        tag = _hbar_tag(hbar)
        write_characteristic_csv(out.path(f"semiclassical_g_hbar{tag}.csv"), grid, out.hash)
        write_histogram_csv(out.path(f"semiclassical_workdist_hbar{tag}.csv"), hist, out.hash)

    return "fig4_report.json", {"beta": beta, "comparisons": table, "broadening": clhist.broadening}


def run_fig3(cfg: RunConfig, out: _Output) -> tuple[str, dict]:
    """Free-energy sweep: quadrature reference vs classical MC vs semiclassical."""
    betas, [hbar] = cfg.beta_list, cfg.hbar_list
    geom, pot = cfg.geometry(), cfg.potential()
    plan = _plan(cfg, geom, pot, "n_samples", "n_classical")
    eps = _broadening(cfg, plan)
    _check_broadening_correction(cfg, plan, betas, eps)
    functionals = analysis.jarzynski_functionals(plan, betas, eps)
    requests = [Request(beta, plan, hbar, c, eps) for beta, c in zip(betas, functionals)]
    _check_trace(cfg, requests)
    refs = _references(geom, pot, betas)

    _, grids = _semiclassical_grids(cfg, geom, pot, requests)
    # The classical work does not depend on beta, so one sample serves every
    # row.  It is drawn after the trace, so W and the trace never share memory.
    sample = classical.sample_classical_work(geom, pot, cfg.n_classical, cfg.seed)
    mcs = [analysis.jarzynski_from_samples(sample.values, beta) for beta in betas]
    names = ("beta", "delta_f_reference", "delta_f_classical_mc", "stderr_classical_mc")
    names += ("delta_f_semiclassical", "stderr_semiclassical")
    rows = []
    for beta, ref, mc, grid in zip(betas, refs, mcs, grids):
        sc = analysis.jarzynski_from_characteristic(grid, beta, eps)
        rows.append(dict(zip(names, (beta, ref, *mc, *sc))))

    columns = {c: [row[c] for row in rows] for c in rows[0]}
    _write_table(out.path("jarzynski_sweep.csv"), out.hash, columns)
    return "fig3_report.json", {"hbar": hbar, "rows": rows}


def run_fig2(cfg: RunConfig, out: _Output) -> tuple[str, dict]:
    """Quantum vs semiclassical P(W) across temperatures, on one u plan: the pilot
    window joined with the spike support of every beta the basis covers."""
    betas, [hbar] = cfg.beta_list, cfg.hbar_list
    geom, pot = cfg.geometry(), cfg.potential()
    w_all = _plan(cfg, geom, pot, "n_samples").w_values
    # The plan waits for the solve, but the trace is bounded before it:
    # u_points times per beta, the first, 0, shared by all.
    with _keys(_TRACE_KEYS):
        u_points = [cfg.u_points] * len(betas)
        n_times = 1 + len(betas) * (cfg.u_points - 1)
        check_trace_memory(cfg.n_samples, n_times, u_points, 0, cfg.resolved_workers())
    spec = _solve_quench(cfg, geom, pot, hbar)

    lo, hi = w_all[0], w_all[-1]
    covered, warnings = set(), []
    for beta in betas:
        try:
            quantum.check_truncation(spec.e0, beta)
        except quantum.TruncationDominates as exc:
            warnings.append(f"beta={beta:g}: {exc}; {_TRUNCATION_CAVEAT}")
            continue
        lo_q, hi_q = quantum.spike_support(spec, beta)
        lo, hi = min(lo, lo_q), max(hi, hi_q)
        covered.add(beta)
    plan = plan_from_window(lo, hi, n_u=cfg.u_points, pad_frac=cfg.pad_frac)
    eps = _broadening(cfg, plan)
    requests = [Request(beta, plan, hbar, broadening=eps) for beta in betas]
    _, grids = _semiclassical_grids(cfg, geom, pot, requests)

    # Per beta: the semiclassical and, when covered, the quantum (grid, hist).
    rows, curves = [], []
    for beta, grid_sc in zip(betas, grids):
        hist_sc = spectra.invert(grid_sc, broadening=eps)
        curve = {"semiclassical": (grid_sc, hist_sc)}
        row = {"beta": beta}
        if beta in covered:
            grid_q = quantum.quantum_characteristic(spec, beta, plan)
            hist_q = spectra.invert(grid_q, broadening=eps)
            curve["quantum"] = (grid_q, hist_q)
            row.update(analysis.compare_histograms(hist_q, hist_sc))
        else:
            row["quantum"] = "unavailable"
        rows.append(row)
        curves.append(curve)

    quantum.save_spectra(out.path("spectra.bin"), spec)
    for beta, curve in zip(betas, curves):
        tag = _beta_tag(beta)
        for route, (grid, hist) in curve.items():
            write_characteristic_csv(out.path(f"{route}_g_beta{tag}.csv"), grid, out.hash)
            write_histogram_csv(out.path(f"{route}_workdist_beta{tag}.csv"), hist, out.hash)

    return "fig2_report.json", {"hbar": hbar, "rows": rows, "warnings": warnings, "broadening": eps}


# Every command reads the system, its temperatures and the u plan, and the
# run path reads out_dir; a trace reads _TRACE's keys, a quantum solve _SOLVE's.
_SYSTEM = {"geometry_r", "geometry_l", "sigma", "xi_f", "xi_0", "centers", "signs", "beta_list"}
_SYSTEM |= {"u_points", "pad_frac", "broadening_bins", "out_dir"}
_TRACE = _SYSTEM | {"hbar_list", "seed", "n_samples", "workers", "max_bounces"}
_SOLVE = _SYSTEM | {"hbar_list", "quantum_h", "quantum_n_initial", "quantum_n_final"}


@dataclass(frozen=True)
class _Command:
    """Help line, runner, the keys it reads, the list key it sweeps (it takes one
    entry of any other), own defaults, and whether it writes into out_dir/<name>."""

    help: str
    runner: object
    keys: set
    sweeps: str | None = None
    defaults: dict = field(default_factory=dict)
    scenario: bool = False


# fig3 and fig4 compare distributions on coarse dual grids (a work resolution
# of a few energy units), which probe the classical limit rather than the
# dephasing crossover that dominates at fine u resolution.
_FIG3 = _Command(
    "free energy: quadrature vs classical MC vs semiclassical",
    run_fig3,
    _TRACE | {"n_classical"},
    "beta_list",
    {"beta_list": tuple(2.0**-k for k in range(7, 14)), "u_points": 64},
    scenario=True,
)
_COMMANDS = {
    "semiclassical": _Command(
        "characteristic function + work distribution", run_semiclassical, _TRACE | {"dump_ensemble"}
    ),
    "classical": _Command(
        "classical work sample and free energy",
        run_classical,
        _SYSTEM | {"seed", "n_classical", "dump_ensemble"},
    ),
    "quantum": _Command(
        "grid oracle: spectra, G(u) and P(W)", run_quantum, _SOLVE, defaults={"beta_list": (0.3,)}
    ),
    "jarzynski": replace(
        _FIG3, help="free-energy sweep over temperatures (scenario fig3 into --out)", scenario=False
    ),
    "fig2": _Command(
        "quantum vs semiclassical work distributions across temperatures",
        run_fig2,
        _TRACE | _SOLVE,
        "beta_list",
        {"beta_list": (2.0**-6, 2.0**-8, 2.0**-10, 2.0**-12)},
        scenario=True,
    ),
    "fig3": _FIG3,
    "fig4": _Command(
        "classical limit: shrinking hbar against the classical distribution",
        run_fig4,
        _TRACE | {"n_classical", "dump_ensemble"},
        "hbar_list",
        {"hbar_list": (0.01, 0.1, 0.5, 1.0), "u_points": 32},
        scenario=True,
    ),
}


def run(cfg: RunConfig, name: str) -> dict:
    """The one run path, of cfg as given: refuse a list it would cut, then
    manifest, output directory, runner, its report and manifest.json."""
    if name not in _COMMANDS:
        raise ValueError(f"unknown command {name!r}; pick one of {sorted(_COMMANDS)}")
    command = _COMMANDS[name]
    for key in ("beta_list", "hbar_list"):
        values = getattr(cfg, key)
        if key in command.keys and key != command.sweeps and len(values) != 1:
            raise RangeError(
                key,
                f"this command takes one entry, got {len(values)} ({', '.join(map(repr, values))});"
                " run them one at a time, or use a scenario that sweeps it",
            )
    manifest = config_manifest(cfg, name)
    out_dir = os.path.join(cfg.out_dir, name) if command.scenario else cfg.out_dir
    os.makedirs(out_dir, exist_ok=True)
    out = _Output(out_dir, manifest["config_sha256"])
    report = command.runner(cfg, out)
    result = {"out_dir": out_dir, "manifest": manifest, "files": out.files}
    if report is not None:
        report_name, body = report
        body["manifest_sha256"] = out.hash
        _write_json(out.path(report_name), body)
        result["report"] = body
    _write_json(out.path("manifest.json"), manifest)
    return result


# ---------------------------------------------------------------------------
# Entry point


# Each run flag sets one key and parses with the same grammar as the file.
_FLAG_KEYS = dict(seed="seed", workers="workers", out="out_dir", beta="beta_list", hbar="hbar_list")


def _load_config(args) -> RunConfig:
    """Defaults, then the command's own, then the file, environment and flags;
    a flag for a key the command does not read is refused, naming the flag."""
    text = ""
    if args.config:
        with open(args.config) as fh:
            text = fh.read()
    command = _COMMANDS[args.name]
    cfg = apply_env_overrides(validate_config(text, command.defaults))
    updates = {}
    for flag, key in _FLAG_KEYS.items():
        raw = getattr(args, flag)
        if raw is not None:
            updates[key] = _convert(_CONVERTERS[key], raw, f"--{flag}")
            if key not in command.keys:
                raise ValueError(f"--{flag}: {args.name} does not read {key}")
    return _check_ranges(replace(cfg, **updates))


def _cmd_run(args) -> dict:
    return {k: v for k, v in run(_load_config(args), args.name).items() if k != "manifest"}


def _cmd_compare(args) -> dict:
    a, b = read_histogram_csv(args.first), read_histogram_csv(args.second)
    report = {**analysis.compare_histograms(a, b), "first": args.first, "second": args.second}
    _write_json(args.out or "comparison.json", report)
    return report


def build_parser() -> argparse.ArgumentParser:
    description = "Work statistics of a sudden quench in a chaotic billiard"
    parser = argparse.ArgumentParser(prog="chaowork", description=description)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, **defaults):
        p.add_argument("--config", help="path to a key = value configuration file")
        for flag, key in _FLAG_KEYS.items():
            p.add_argument(f"--{flag}", default=None, help=f"sets {key}, in the file's grammar")
        p.set_defaults(func=_cmd_run, **defaults)

    for name, command in _COMMANDS.items():
        if not command.scenario:
            common(sub.add_parser(name, help=command.help), name=name)

    p = sub.add_parser("compare", help="L1 distance between two histogram CSVs")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_compare)

    scenarios = {name: c.help for name, c in _COMMANDS.items() if c.scenario}
    p = sub.add_parser("scenario", help="run a canned experiment into --out/<name>")
    helps = "; ".join(f"{name}: {text}" for name, text in scenarios.items())
    p.add_argument("name", choices=scenarios, help=helps)
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
