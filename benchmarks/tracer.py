"""Outside-in tracing of the `chaowork` package: spans around public functions.

``install`` wraps every public function of every ``chaowork`` module, plus
the few private boundaries the per-layer metrics need, and rebinds each one
under every name that any ``chaowork`` module (or the package) looks it up
by, because callers import functions by name (``cli`` calls
``semiclassical_characteristic``, ``classical`` calls ``evaluate``).  The
``integral`` method of the segment-constants object is wrapped on its class.
Nothing in the program changes; the wrappers live only in the traced
process.

Each call records a span: id, parent span, name, start, end and the counts
measured at that boundary (rows, spikes, sites, bytes).  Ids are
``<pid>:<n>`` so spans from pool workers stay unique.  Workers are forked
after ``install``, inherit the wrappers and the open span stack (so their
chunk spans point at the request that started the pool), and write their
spans to the trace directory when each chunk returns, before the pool can
terminate them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time

import numpy as np

MODULES = (
    "analysis",
    "characteristic",
    "classical",
    "cli",
    "geometry",
    "potential",
    "quantum",
    "sampler",
    "spectra",
    "trajectory",
)

# Private boundaries the metrics need: the pool's unit of work and the JSON writer.
EXTRA = {"characteristic": ("_chunk_phase_sums",), "cli": ("_write_json",)}
# The root span is opened by the caller around cli.main.
SKIP = {"cli": ("main",)}
# Worker processes flush their spans when this span closes.
FLUSH_ON = "characteristic._chunk_phase_sums"


def _size(path) -> int:
    return os.path.getsize(path) if os.path.exists(path) else 0


def _rows(a) -> int:
    return int(np.atleast_2d(np.asarray(a)).shape[0])


def _transition_bytes(args, result):
    dim, n0 = args[0].shape
    nf = args[1].shape[1]
    # Both eigenvector blocks read, the overlap written, squared in place.
    return {"bytes": 8 * (dim * n0 + dim * nf + 3 * n0 * nf)}


def _characteristic_cmacs(args, result):
    n0, nf = args[0].transition.shape
    return {"cmacs": int(result.u_values.size) * n0 * nf}


# Counts measured at each boundary, from the call's arguments and result.
COUNTERS = {
    "geometry.first_hit_arrays": lambda a, r: {"rows": _rows(a[1])},
    "potential.segment_constants": lambda a, r: {"rows": _rows(a[1])},
    "potential.integral": lambda a, r: {"rows": int(np.atleast_1d(a[1]).shape[0])},
    "potential.evaluate": lambda a, r: {"rows": int(np.asarray(a[1]).size // 2)},
    "trajectory.checkpoint_action_integrals": lambda a, r: {
        "rows": int(a[0].shape[0]),
        "failed": int(r[1].sum()),
    },
    "characteristic._chunk_phase_sums": lambda a, r: {"rows": int(a[0][0].shape[0])},
    "sampler.sample_ensemble": lambda a, r: {"rows": len(r)},
    "sampler.sample_positions": lambda a, r: {"rows": int(r.shape[0])},
    "classical.sample_classical_work": lambda a, r: {"rows": int(r.n)},
    "spectra.bin_spikes": lambda a, r: {"rows": int(np.asarray(a[0]).size)},
    "quantum.build_hamiltonians": lambda a, r: {"rows": int(r[2].n_sites)},
    "quantum.eigensolve": lambda a, r: {"rows": int(a[0].shape[0])},
    "quantum.transition_matrix": _transition_bytes,
    "quantum.quantum_characteristic": _characteristic_cmacs,
    "quantum.save_spectra": lambda a, r: {"bytes": _size(a[0])},
    "quantum.export_spectra_csv": lambda a, r: {"bytes": sum(_size(p) for p in r)},
    "cli.write_characteristic_csv": lambda a, r: {
        "bytes": _size(a[0]) + _size(str(a[0]) + ".meta.json")
    },
    "cli.write_histogram_csv": lambda a, r: {
        "bytes": _size(a[0]) + _size(str(a[0]) + ".meta.json")
    },
    "cli._write_json": lambda a, r: {"bytes": _size(a[0])},
}


class Tracer:
    """In-memory span recorder for one traced run of the CLI."""

    def __init__(self, run_id: str, out_dir: str):
        self.run_id = run_id
        self.out_dir = out_dir
        self.origin_pid = os.getpid()
        self.spans: list[dict] = []
        self.stack: list[str] = []
        self._next = 0
        self._flushes = 0
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self):
        # Keep the stack (parents), drop the parent process's finished spans.
        self.spans = []
        self._flushes = 0

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        flush = name == FLUSH_ON

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._next += 1
            sid = f"{os.getpid()}:{self._next}"
            parent = self.stack[-1] if self.stack else None
            self.stack.append(sid)
            start = time.perf_counter()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = time.perf_counter()
                self.stack.pop()
                span = {"id": sid, "parent": parent, "name": name, "start": start, "end": end}
                if not ok:
                    span["error"] = True
                elif counter is not None:
                    span["counts"] = counter(args, result)
                self.spans.append(span)
            if flush and os.getpid() != self.origin_pid:
                self.flush()
            return result

        return traced

    def flush(self) -> None:
        """Write this process's finished spans to the trace directory."""
        self._flushes += 1
        path = os.path.join(self.out_dir, f"spans-{os.getpid()}-{self._flushes}.json")
        with open(path, "w") as fh:
            json.dump({"run_id": self.run_id, "spans": self.spans}, fh)
        self.spans = []


def _wrap_targets(mod, short: str):
    names = [
        n
        for n, f in vars(mod).items()
        if inspect.isfunction(f) and f.__module__ == mod.__name__ and not n.startswith("_")
    ]
    return [n for n in names if n not in SKIP.get(short, ())] + list(EXTRA.get(short, ()))


def install(tracer: Tracer, package: str = "chaowork") -> int:
    """Wrap the package's layer boundaries; returns the number wrapped."""
    wrapped = {}
    for short in MODULES:
        mod = importlib.import_module(f"{package}.{short}")
        for name in _wrap_targets(mod, short):
            fn = getattr(mod, name)
            wrapped[id(fn)] = tracer.wrap(f"{short}.{name}", fn)
    prefix = package + "."
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == package or mod_name.startswith(prefix)):
            continue
        for attr, value in list(vars(mod).items()):
            if inspect.isfunction(value) and id(value) in wrapped:
                setattr(mod, attr, wrapped[id(value)])
    seg = importlib.import_module(f"{package}.potential")._SegmentConstants
    seg.integral = tracer.wrap("potential.integral", seg.integral)
    return len(wrapped) + 1
