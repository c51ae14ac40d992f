"""Benchmark of the `chaowork` command line: end-to-end and per-layer metrics.

Usage, from the root of a source checkout::

    python3 benchmarks/run.py --workload sc-single --seed 1 --seconds 15 --trace 0

Each run of the CLI happens in a fresh interpreter, from a config text made
from ``(workload, seed)``.  With ``--trace 0`` the last line of standard
output is a JSON object with the end-to-end metrics; with ``--trace 1`` the
same untraced runs are followed by one traced run, and the JSON carries the
per-layer metrics instead.  Every run's outputs are checked; a run that
exits non-zero, fails a check or writes other bytes than the first run
counts as failed.  The full record of a run (versions, config text, every
sample, every check) is written under ``.bench_out/results/``.

README.md next to this file explains the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

from checks import check_outputs, output_digest
from spans import LAYER_METRICS, layer_metrics
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
WORK = os.path.join(ROOT, ".bench_out")

MIN_RUNS = 3  # a median, and two reruns to compare bytes against
CHILD_TIMEOUT_S = 150.0
DEADLINE_S = 165.0  # no round is started that would end after this
TRACED_COST = 1.5  # a traced run takes up to this many untraced runs

END_TO_END = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {**LAYER_METRICS, "trace.overhead_s": "s", "trace.spans": "count"}


class BenchmarkError(RuntimeError):
    """The benchmark itself cannot run here (no source tree, a probe failed)."""


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def blas_threads(workers: int) -> int:
    """BLAS threads per process, so that workers x threads <= nproc."""
    return max(1, nproc() // max(1, workers))


def child_env(threads: int) -> dict:
    # CHAOWORK_* variables would override the generated config; drop them.
    env = {k: v for k, v in os.environ.items() if not k.startswith("CHAOWORK_")}
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    return env


def run_child(spec: dict, env: dict, result_path: str) -> tuple[dict | None, str]:
    """Start child.py in its own session; returns (result, error text)."""
    spec = {**spec, "src": SRC, "result": result_path}
    if os.path.exists(result_path):
        os.remove(result_path)
    proc = None
    # SIGTERM waits until the child's pid is known, so the exit it causes
    # always passes the finally below; child.py unblocks it for itself.
    signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGTERM})
    try:
        proc = subprocess.Popen(
            [sys.executable, CHILD, json.dumps(spec)],
            cwd=ROOT,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            start_new_session=True,
        )
        signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGTERM})
        _, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None, f"timed out after {CHILD_TIMEOUT_S} s"
    finally:
        signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGTERM})
        # Pool workers left behind by a crash share the child's session.
        if proc is not None:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                pass
    tail = err.decode(errors="replace").strip()[-2000:]
    if proc.returncode != 0:
        return None, f"exit code {proc.returncode}: {tail}"
    with open(result_path) as fh:
        return json.load(fh), tail


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "**", "*.py"), recursive=True)):
        h.update(os.path.relpath(path, SRC).encode() + b"\0")
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def git_sha() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


class Harness:
    """One benchmark run of one workload: set-up probes, CLI runs, checks."""

    def __init__(self, workload: str, seed: int, size: str = "full"):
        if not os.path.isfile(os.path.join(SRC, "chaowork", "cli.py")):
            raise BenchmarkError(f"no chaowork source tree under {SRC}")
        self.wl = WORKLOADS[workload]
        self.seed = seed
        self.size = size
        self.settings = self.wl.settings(size)
        self.base = os.path.join(WORK, f"{workload}-seed{seed}-{size}")
        shutil.rmtree(self.base, ignore_errors=True)
        os.makedirs(self.base)
        # Relative to the checkout root, where the CLI runs, so the config
        # text is the same in every checkout.
        self.out_dir = os.path.relpath(os.path.join(self.base, "out"), ROOT)
        self.config_text = self.wl.config_text(seed, self.out_dir, size)
        self.config_path = os.path.join(self.base, "run.cfg")
        with open(self.config_path, "w") as fh:
            fh.write(self.config_text)
        self.threads = blas_threads(self.wl.workers)
        self.env = child_env(self.threads)
        self.versions: dict = {}
        self.runs: list[dict] = []
        self._reference_digest: str | None = None

    def setup_probe(self) -> float:
        spec = {"mode": "setup", "config_text": self.config_text}
        result, err = run_child(spec, self.env, os.path.join(self.base, "setup.json"))
        if result is None:
            raise BenchmarkError(f"set-up probe failed: {err}")
        self.versions = result["versions"]
        return result["setup_s"]

    def cli_run(self, trace_dir: str | None = None) -> dict:
        """One CLI invocation in a fresh process, then its output checks."""
        out_abs = os.path.join(ROOT, self.out_dir)
        shutil.rmtree(out_abs, ignore_errors=True)
        spec = {
            "mode": "run",
            "config_text": self.config_text,
            "argv": self.wl.argv(os.path.relpath(self.config_path, ROOT)),
            "trace_dir": trace_dir,
            "run_id": f"{self.wl.name}-seed{self.seed}-{len(self.runs)}",
        }
        started = time.monotonic()
        result, err = run_child(spec, self.env, os.path.join(self.base, "run.json"))
        run = {"traced": trace_dir is not None, "elapsed_s": time.monotonic() - started}
        if result is None:
            run["errors"] = [err]
        elif result["exit_code"] != 0:
            run.update(result)
            run["errors"] = [f"CLI exit code {result['exit_code']}: {err}"]
        else:
            run.update(result)
            produced = self.wl.output_dir(out_abs)
            run["errors"] = check_outputs(self.wl.name, produced, self.settings)
            run["output_sha256"] = output_digest(produced)
            if self._reference_digest is None:
                self._reference_digest = run["output_sha256"]
            elif run["output_sha256"] != self._reference_digest:
                run["errors"].append("output bytes differ from the first run")
        self.runs.append(run)
        return run

    def record(self) -> dict:
        return {
            "workload": self.wl.name,
            "size": self.size,
            "seed": self.seed,
            "config_text": self.config_text,
            "argv": self.wl.argv("<config>"),
            "git_sha": git_sha(),
            "src_sha256": source_digest(),
            "versions": self.versions,
            "platform": platform.platform(),
            "nproc": nproc(),
            "workers": self.wl.workers,
            "blas_threads": self.threads,
        }


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool, size: str = "full"):
    """Measure one workload; returns (result line dict, full record dict)."""
    h = Harness(workload, seed, size)
    start = time.monotonic()
    setup: list[float] = []
    longest = 0.0  # longest round of set-up probes plus one CLI run so far
    while len(h.runs) < MIN_RUNS or time.monotonic() - start < seconds:
        reserve = longest * (1.0 + (TRACED_COST if trace else 0.0))
        if h.runs and time.monotonic() - start + reserve > DEADLINE_S:
            break
        round_start = time.monotonic()
        # Probes are spread over the whole run, like the CLI runs, so both
        # see the same drift in the speed of a shared machine.  Each CLI
        # run's own import is a set-up sample too.
        setup.append(h.setup_probe())
        h.cli_run()
        longest = max(longest, time.monotonic() - round_start)
    untraced = [r for r in h.runs if r.get("exit_code") == 0]
    if not untraced:
        raise BenchmarkError("no CLI run completed: " + "; ".join(h.runs[0]["errors"]))

    e2e = {
        "wall_s": statistics.median(r["wall_s"] for r in untraced),
        "setup_s": statistics.median(setup + [r["setup_s"] for r in untraced]),
        "cpu_s": statistics.median(r["cpu_s"] for r in untraced),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
    }
    layers = None
    if trace:
        trace_dir = os.path.join(h.base, "trace")
        os.makedirs(trace_dir)
        traced = h.cli_run(trace_dir)
        if traced.get("exit_code") != 0:
            raise BenchmarkError("traced run did not complete: " + "; ".join(traced["errors"]))
        spans = []
        for path in sorted(glob.glob(os.path.join(trace_dir, "spans-*.json"))):
            with open(path) as fh:
                spans.extend(json.load(fh)["spans"])
        layers = layer_metrics(spans)
        layers["trace.overhead_s"] = traced["wall_s"] - e2e["wall_s"]
        layers["trace.spans"] = len(spans)

    # The last run's outputs (33 MB for quantum-full) have been checked and hashed.
    shutil.rmtree(os.path.join(ROOT, h.out_dir), ignore_errors=True)
    failed = sum(1 for r in h.runs if r["errors"])
    units = PER_LAYER if trace else END_TO_END
    values = layers if trace else e2e
    line = {
        "correct": failed == 0,
        "attempted": len(h.runs),
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }
    record = {
        **h.record(),
        "seconds": seconds,
        "trace": trace,
        "setup_samples_s": setup,
        "runs": h.runs,
        "end_to_end": e2e,
        "failed_frac": failed / len(h.runs),
        "per_layer": layers,
    }
    return line, record


def summary(line: dict, record: dict) -> str:
    runs = record["runs"]
    lines = [
        f"workload {record['workload']}  seed {record['seed']}  runs {len(runs)}"
        f"  workers {record['workers']}  blas_threads {record['blas_threads']}"
        f"  nproc {record['nproc']}",
    ]
    for name, unit in END_TO_END.items():
        lines.append(f"  {name:<12} {record['end_to_end'][name]:.4f} {unit}")
    lines.append(
        f"  {'failed_frac':<12} {record['failed_frac']:.4f} ({line['failed']} of {len(runs)} runs)"
    )
    for i, r in enumerate(runs):
        for e in r["errors"]:
            lines.append(f"  run {i} failed: {e}")
    if record["per_layer"] is not None:
        for name, unit in PER_LAYER.items():
            lines.append(f"  {name:<40} {record['per_layer'][name]:.6g} {unit}")
    return "\n".join(lines)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    # Exit through the finally blocks that stop the running child's session.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        line, record = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    results = os.path.join(WORK, "results")
    os.makedirs(results, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(results, name), "w") as fh:
        json.dump({**record, "result": line}, fh, indent=2)
    print(summary(line, record))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
