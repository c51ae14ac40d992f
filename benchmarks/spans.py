"""Per-layer metrics from the spans of one traced run.

A span is a dict with ``id``, ``parent``, ``name`` (``<module>.<function>``),
``start``, ``end`` and optional ``counts``.  A span's layer is its module.

* Self time is a span's duration minus the part of its interval that its
  child spans cover.  Children from two pool workers can overlap; the
  covered part is the union of their intervals, so it is never counted twice.
* A layer's busy time sums its outermost spans: those with no ancestor in
  the same layer, so nested calls within a layer are not counted twice.
  Spans that run at the same time in different workers both count, so busy
  time is time summed over processes, like CPU time.
"""

from __future__ import annotations

from collections import defaultdict

# Metric name -> unit, in the order they are reported.  Counts marked
# "computed" are derived from array shapes, not measured.
LAYER_METRICS = {
    "sampler.samples": "count",
    "sampler.busy_s": "s",
    "sampler.ns_per_sample": "ns",
    "geometry.first_hit.calls": "count",
    "geometry.first_hit.rays": "count",
    "geometry.first_hit.busy_s": "s",
    "geometry.ns_per_ray": "ns",
    "potential.setup.rows": "count",
    "potential.setup.busy_s": "s",
    "potential.integral.rows": "count",
    "potential.integral.busy_s": "s",
    "potential.evaluate.points": "count",
    "potential.evaluate.busy_s": "s",
    "trajectory.calls": "count",
    "trajectory.trajectories": "count",
    "trajectory.segments": "count",
    "trajectory.failed": "count",
    "trajectory.iters": "count",
    "trajectory.rows_per_iter": "rows",
    "trajectory.tail_iter_frac": "fraction",
    "trajectory.busy_s": "s",
    "trajectory.self_s": "s",
    "trajectory.ns_per_segment": "ns",
    "characteristic.requests": "count",
    "characteristic.busy_s": "s",
    "characteristic.self_s": "s",
    "characteristic.chunk_s.max": "s",
    "characteristic.chunk_imbalance": "ratio",
    "characteristic.traj_per_s_per_core": "1/s",
    "characteristic.plan.busy_s": "s",
    "spectra.bin.spikes": "count",
    "spectra.bin.busy_s": "s",
    "spectra.ns_per_spike": "ns",
    "spectra.invert.calls": "count",
    "spectra.invert.busy_s": "s",
    "classical.sample.samples": "count",
    "classical.sample.busy_s": "s",
    "classical.ns_per_sample": "ns",
    "classical.quadrature.calls": "count",
    "classical.quadrature.busy_s": "s",
    "quantum.build.sites": "count",
    "quantum.build.busy_s": "s",
    "quantum.eigensolve.calls": "count",
    "quantum.eigensolve.dim": "count",
    "quantum.eigensolve.busy_s": "s",
    "quantum.transition.busy_s": "s",
    "quantum.transition.bytes_computed": "bytes",
    "quantum.work_distribution.busy_s": "s",
    "quantum.characteristic.busy_s": "s",
    "quantum.characteristic.cmacs_computed": "count",
    "quantum.save.bytes": "bytes",
    "quantum.export_csv.bytes": "bytes",
    "quantum.export_csv.busy_s": "s",
    "analysis.calls": "count",
    "analysis.busy_s": "s",
    "cli.write.bytes": "bytes",
    "cli.write.busy_s": "s",
    "cli.self_s": "s",
}

# A trajectory loop iteration is in the straggler tail when fewer than this
# share of its chunk's rows are still live.
TAIL_SHARE = 1.0 / 8.0

ROOT = "cli.main"
CHUNK = "characteristic._chunk_phase_sums"
CLI_WRITERS = ("cli.write_characteristic_csv", "cli.write_histogram_csv", "cli._write_json")


def layer_of(span: dict) -> str:
    return span["name"].split(".", 1)[0]


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def covered(start: float, end: float, intervals) -> float:
    """Length of [start, end] covered by the union of the given intervals."""
    clipped = sorted((max(a, start), min(b, end)) for a, b in intervals)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


class SpanTree:
    """Spans of one run indexed by id and by parent."""

    def __init__(self, spans):
        self.spans = list(spans)
        self.by_id = {s["id"]: s for s in self.spans}
        self.children = defaultdict(list)
        for s in self.spans:
            self.children[s["parent"]].append(s)

    def named(self, *names):
        return [s for s in self.spans if s["name"] in names]

    def self_time(self, span: dict) -> float:
        kids = [(c["start"], c["end"]) for c in self.children[span["id"]]]
        return duration(span) - covered(span["start"], span["end"], kids)

    def outermost(self, spans):
        """Those of the given spans that have no ancestor in their own layer."""
        out = []
        for s in spans:
            layer = layer_of(s)
            p = self.by_id.get(s["parent"])
            while p is not None and layer_of(p) != layer:
                p = self.by_id.get(p["parent"])
            if p is None:
                out.append(s)
        return out

    def layer_spans(self, layer: str):
        return self.outermost([s for s in self.spans if layer_of(s) == layer])


def _count(spans, key="rows") -> int:
    return sum(s.get("counts", {}).get(key, 0) for s in spans)


def _busy(spans) -> float:
    return sum(duration(s) for s in spans)


def _ns_per(busy: float, n: int) -> float:
    return 1e9 * busy / n if n else 0.0


def layer_metrics(spans) -> dict:
    """Every metric in LAYER_METRICS; layers that did not run report 0."""
    t = SpanTree(spans)
    m = {}

    sampler = t.layer_spans("sampler")
    m["sampler.samples"] = _count(sampler)
    m["sampler.busy_s"] = _busy(sampler)
    m["sampler.ns_per_sample"] = _ns_per(m["sampler.busy_s"], m["sampler.samples"])

    hits = t.named("geometry.first_hit_arrays")
    m["geometry.first_hit.calls"] = len(hits)
    m["geometry.first_hit.rays"] = _count(hits)
    m["geometry.first_hit.busy_s"] = _busy(hits)
    m["geometry.ns_per_ray"] = _ns_per(_busy(hits), _count(hits))

    setup = t.named("potential.segment_constants")
    integral = t.named("potential.integral")
    evaluate = t.named("potential.evaluate")
    m["potential.setup.rows"] = _count(setup)
    m["potential.setup.busy_s"] = _busy(setup)
    m["potential.integral.rows"] = _count(integral)
    m["potential.integral.busy_s"] = _busy(integral)
    m["potential.evaluate.points"] = _count(evaluate)
    m["potential.evaluate.busy_s"] = _busy(evaluate)

    traj = t.named("trajectory.checkpoint_action_integrals")
    rows_at_iter = []
    for s in traj:
        n = _count([s])
        for c in t.children[s["id"]]:
            if c["name"] == "geometry.first_hit_arrays":
                rows_at_iter.append((_count([c]), n))
    segments = sum(r for r, _ in rows_at_iter)
    iters = len(rows_at_iter)
    m["trajectory.calls"] = len(traj)
    m["trajectory.trajectories"] = _count(traj)
    m["trajectory.segments"] = segments
    m["trajectory.failed"] = _count(traj, "failed")
    m["trajectory.iters"] = iters
    m["trajectory.rows_per_iter"] = segments / iters if iters else 0.0
    tail = sum(1 for r, n in rows_at_iter if r < TAIL_SHARE * n)
    m["trajectory.tail_iter_frac"] = tail / iters if iters else 0.0
    m["trajectory.busy_s"] = _busy(traj)
    m["trajectory.self_s"] = sum(t.self_time(s) for s in traj)
    m["trajectory.ns_per_segment"] = _ns_per(_busy(traj), segments)

    requests = t.named("characteristic.semiclassical_characteristic")
    chunks = t.named(CHUNK)
    m["characteristic.requests"] = len(requests)
    m["characteristic.busy_s"] = _busy(requests)
    m["characteristic.self_s"] = sum(t.self_time(s) for s in requests)
    m["characteristic.chunk_s.max"] = max((duration(c) for c in chunks), default=0.0)
    ratios = []
    for r in requests:
        ds = [duration(c) for c in t.children[r["id"]] if c["name"] == CHUNK]
        if ds:
            ratios.append(max(ds) * len(ds) / sum(ds))
    m["characteristic.chunk_imbalance"] = sum(ratios) / len(ratios) if ratios else 0.0
    chunk_busy = _busy(chunks)
    m["characteristic.traj_per_s_per_core"] = _count(chunks) / chunk_busy if chunk_busy else 0.0
    m["characteristic.plan.busy_s"] = _busy(
        t.outermost(t.named("characteristic.plan_u_grid", "characteristic.plan_from_window"))
    )

    bins = t.named("spectra.bin_spikes")
    inverts = t.named("spectra.invert")
    m["spectra.bin.spikes"] = _count(bins)
    m["spectra.bin.busy_s"] = _busy(bins)
    m["spectra.ns_per_spike"] = _ns_per(_busy(bins), _count(bins))
    m["spectra.invert.calls"] = len(inverts)
    m["spectra.invert.busy_s"] = _busy(inverts)

    cl = t.named("classical.sample_classical_work")
    quad = t.outermost(
        t.named("classical.classical_free_energy_difference", "classical.partition_ratio")
    )
    m["classical.sample.samples"] = _count(cl)
    m["classical.sample.busy_s"] = _busy(cl)
    m["classical.ns_per_sample"] = _ns_per(_busy(cl), _count(cl))
    m["classical.quadrature.calls"] = len(quad)
    m["classical.quadrature.busy_s"] = _busy(quad)

    build = t.named("quantum.build_hamiltonians")
    eig = t.named("quantum.eigensolve")
    trans = t.named("quantum.transition_matrix")
    qchar = t.named("quantum.quantum_characteristic")
    export = t.named("quantum.export_spectra_csv")
    m["quantum.build.sites"] = _count(build)
    m["quantum.build.busy_s"] = _busy(build)
    m["quantum.eigensolve.calls"] = len(eig)
    m["quantum.eigensolve.dim"] = max((_count([s]) for s in eig), default=0)
    m["quantum.eigensolve.busy_s"] = _busy(eig)
    m["quantum.transition.busy_s"] = _busy(trans)
    m["quantum.transition.bytes_computed"] = _count(trans, "bytes")
    m["quantum.work_distribution.busy_s"] = _busy(t.named("quantum.quantum_work_distribution"))
    m["quantum.characteristic.busy_s"] = _busy(qchar)
    m["quantum.characteristic.cmacs_computed"] = _count(qchar, "cmacs")
    m["quantum.save.bytes"] = _count(t.named("quantum.save_spectra"), "bytes")
    m["quantum.export_csv.bytes"] = _count(export, "bytes")
    m["quantum.export_csv.busy_s"] = _busy(export)

    analysis = t.layer_spans("analysis")
    m["analysis.calls"] = len(analysis)
    m["analysis.busy_s"] = _busy(analysis)

    writes = t.named(*CLI_WRITERS)
    m["cli.write.bytes"] = _count(writes, "bytes")
    m["cli.write.busy_s"] = _busy(writes)
    m["cli.self_s"] = sum(t.self_time(s) for s in t.named(ROOT))

    return {name: m[name] for name in LAYER_METRICS}
