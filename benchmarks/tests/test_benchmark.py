"""Tests of the benchmark harness itself.

Run from the checkout root: ``python3 -m pytest benchmarks/tests -q``.
The workload tests run the whole harness (fresh CLI processes, checks,
tracing) at ``size="tiny"``.
"""

import json
import os
import shutil
import signal
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def span(sid, parent, name, start, end, **counts):
    s = {"id": sid, "parent": parent, "name": name, "start": start, "end": end}
    if counts:
        s["counts"] = counts
    return s


# One request whose pool ran two chunks at overlapping times in two workers
# (pids 2 and 3); each chunk traced its trajectories with three loop
# iterations.
SYNTHETIC = [
    span("1:1", None, "cli.main", 0.0, 10.0),
    span("1:2", "1:1", "characteristic.semiclassical_characteristic", 1.0, 9.0),
    span("2:1", "1:2", "characteristic._chunk_phase_sums", 2.0, 6.0, rows=16),
    span("3:1", "1:2", "characteristic._chunk_phase_sums", 3.0, 8.0, rows=16),
    span("2:2", "2:1", "trajectory.checkpoint_action_integrals", 2.0, 5.0, rows=16, failed=1),
    span("3:2", "3:1", "trajectory.checkpoint_action_integrals", 3.5, 8.0, rows=16, failed=0),
    span("2:3", "2:2", "geometry.first_hit_arrays", 2.0, 2.5, rows=16),
    span("2:4", "2:2", "geometry.first_hit_arrays", 3.0, 3.5, rows=4),
    span("2:5", "2:2", "geometry.first_hit_arrays", 4.0, 4.5, rows=1),
    span("3:3", "3:2", "geometry.first_hit_arrays", 4.0, 5.0, rows=16),
    span("3:4", "3:2", "potential.segment_constants", 4.5, 6.0, rows=16),
    span("1:3", "1:1", "cli.write_histogram_csv", 9.5, 9.75, bytes=100),
]


class TestSpanArithmetic:
    def test_covered_merges_overlaps_and_clips(self):
        assert spans.covered(0.0, 10.0, []) == 0.0
        assert spans.covered(0.0, 10.0, [(1, 3), (2, 4), (6, 7)]) == 4.0
        assert spans.covered(2.0, 5.0, [(0, 3), (4, 9)]) == 2.0
        assert spans.covered(0.0, 10.0, [(1, 9), (2, 3)]) == 8.0

    def test_self_time_with_overlapping_worker_children(self):
        t = spans.SpanTree(SYNTHETIC)
        request = t.by_id["1:2"]
        # Chunks cover [2, 6] and [3, 8]: the union is 6 s of the 8 s request.
        assert t.self_time(request) == pytest.approx(2.0)
        # main [0, 10] minus the request [1, 9] and the write [9.5, 9.75].
        assert t.self_time(t.by_id["1:1"]) == pytest.approx(10.0 - 8.0 - 0.25)
        # Trajectory 3:2 [3.5, 8] minus children [4, 5] and [4.5, 6].
        assert t.self_time(t.by_id["3:2"]) == pytest.approx(4.5 - 2.0)

    def test_layer_metrics_on_synthetic_nest(self):
        m = spans.layer_metrics(SYNTHETIC)
        assert list(m) == list(spans.LAYER_METRICS)
        assert m["characteristic.requests"] == 1
        assert m["characteristic.busy_s"] == pytest.approx(8.0)
        assert m["characteristic.self_s"] == pytest.approx(2.0)
        assert m["characteristic.chunk_s.max"] == pytest.approx(5.0)
        assert m["characteristic.chunk_imbalance"] == pytest.approx(5.0 / 4.5)
        assert m["characteristic.traj_per_s_per_core"] == pytest.approx(32 / 9.0)
        assert m["trajectory.calls"] == 2
        assert m["trajectory.trajectories"] == 32
        assert m["trajectory.failed"] == 1
        assert m["trajectory.iters"] == 4
        assert m["trajectory.segments"] == 16 + 4 + 1 + 16
        assert m["trajectory.rows_per_iter"] == pytest.approx(37 / 4)
        # Only the 1-row iteration has under 16/8 = 2 rows live.
        assert m["trajectory.tail_iter_frac"] == pytest.approx(1 / 4)
        assert m["trajectory.busy_s"] == pytest.approx(3.0 + 4.5)
        assert m["trajectory.self_s"] == pytest.approx((3.0 - 1.5) + (4.5 - 2.0))
        assert m["trajectory.ns_per_segment"] == pytest.approx(1e9 * 7.5 / 37)
        assert m["geometry.first_hit.calls"] == 4
        assert m["geometry.first_hit.rays"] == 37
        assert m["geometry.first_hit.busy_s"] == pytest.approx(2.5)
        assert m["potential.setup.rows"] == 16
        assert m["cli.write.bytes"] == 100
        assert m["cli.self_s"] == pytest.approx(1.75)
        assert m["quantum.eigensolve.calls"] == 0

    def test_busy_time_counts_only_outermost_spans_of_a_layer(self):
        nest = [
            span("1:1", None, "cli.main", 0.0, 10.0),
            span("1:2", "1:1", "sampler.sample_ensemble", 1.0, 4.0, rows=10),
            span("1:3", "1:2", "sampler.sample_positions", 1.0, 2.0, rows=10),
            span("1:4", "1:3", "geometry.contains_many", 1.0, 1.5),
            span("1:5", "1:4", "sampler.sample_momentum", 1.1, 1.2, rows=10),
            span("1:6", "1:1", "sampler.sample_positions", 5.0, 5.5, rows=4),
        ]
        m = spans.layer_metrics(nest)
        assert m["sampler.samples"] == 14
        assert m["sampler.busy_s"] == pytest.approx(3.5)
        assert m["sampler.ns_per_sample"] == pytest.approx(1e9 * 3.5 / 14)


@pytest.fixture(scope="module")
def traced():
    """One tiny traced benchmark run per workload."""
    return {name: run.run_benchmark(name, 3, 0, True, size="tiny") for name in WORKLOADS}


class TestWorkloadsThroughHarness:
    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_tiny_run_is_correct_and_complete(self, traced, name):
        line, record = traced[name]
        assert line["correct"] is True
        assert line["failed"] == 0
        assert line["attempted"] == run.MIN_RUNS + 1
        assert list(line["metrics"]) == list(run.PER_LAYER)
        assert record["failed_frac"] == 0.0
        digests = {r["output_sha256"] for r in record["runs"]}
        assert len(digests) == 1, "traced and untraced runs wrote different bytes"
        assert "seed = 3" in record["config_text"]
        assert record["blas_threads"] == max(1, record["nproc"] // record["workers"])
        for key in ("numpy", "scipy", "python", "numpy_blas"):
            assert record["versions"][key]

    def test_sc_single_collects_engine_spans_from_pool_workers(self, traced):
        m = {k: v["value"] for k, v in traced["sc-single"][0]["metrics"].items()}
        assert m["characteristic.requests"] == 1
        assert m["trajectory.calls"] == 2  # two 8192-row chunks
        assert m["trajectory.trajectories"] == 16384
        assert m["trajectory.segments"] >= m["trajectory.trajectories"]
        assert m["geometry.first_hit.rays"] == m["trajectory.segments"]
        assert m["characteristic.chunk_imbalance"] >= 1.0
        assert m["quantum.eigensolve.calls"] == 0
        assert m["spectra.invert.calls"] == 1

    def test_fig3_sweep_layers(self, traced):
        m = {k: v["value"] for k, v in traced["fig3-sweep"][0]["metrics"].items()}
        assert m["characteristic.requests"] == 3
        assert m["classical.quadrature.calls"] == 3
        assert m["classical.sample.samples"] == 3 * 20_000
        assert m["spectra.bin.spikes"] == 3 * 20_000
        assert m["analysis.calls"] == 6
        assert m["trajectory.failed"] == 0

    def test_quantum_full_layers(self, traced):
        m = {k: v["value"] for k, v in traced["quantum-full"][0]["metrics"].items()}
        assert m["quantum.eigensolve.calls"] == 2
        assert m["quantum.eigensolve.dim"] == m["quantum.build.sites"]
        n = m["quantum.build.sites"]
        assert m["spectra.bin.spikes"] == n * n
        assert m["quantum.characteristic.cmacs_computed"] == 64 * n * n
        assert m["quantum.save.bytes"] > 8 * n * n
        assert m["trajectory.calls"] == 0

    def test_untraced_run_reports_end_to_end_metrics(self):
        line, record = run.run_benchmark("quantum-full", 4, 0, False, size="tiny")
        assert line["correct"] is True
        assert line["attempted"] == run.MIN_RUNS
        assert list(line["metrics"]) == list(run.END_TO_END)
        assert all(v["value"] > 0 for v in line["metrics"].values())
        assert record["per_layer"] is None


@pytest.fixture(scope="module")
def tiny_outputs(tmp_path_factory):
    """A copy of one correct tiny output directory per workload."""
    out = {}
    for name, wl in WORKLOADS.items():
        h = run.Harness(name, 5, size="tiny")
        r = h.cli_run()
        assert r["errors"] == []
        dest = tmp_path_factory.mktemp(name)
        shutil.copytree(wl.output_dir(os.path.join(run.ROOT, h.out_dir)), dest / "out")
        out[name] = (dest / "out", wl.settings("tiny"))
    return out


def _edit_json(path, edit):
    with open(path) as fh:
        data = json.load(fh)
    edit(data)
    with open(path, "w") as fh:
        json.dump(data, fh)


class TestCorruptedOutputsFail:
    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_correct_outputs_pass(self, tiny_outputs, name):
        out, settings = tiny_outputs[name]
        assert checks.check_outputs(name, str(out), settings) == []

    def test_histogram_mass_of_0_9_fails(self, tiny_outputs, tmp_path):
        out, settings = tiny_outputs["sc-single"]
        bad = shutil.copytree(out, tmp_path / "bad")
        _edit_json(bad / "semiclassical_workdist.csv.meta.json", lambda d: d.update(total_mass=0.9))
        errors = checks.check_outputs("sc-single", str(bad), settings)
        assert any("total_mass" in e for e in errors)

    def test_g_at_zero_not_one_fails(self, tiny_outputs, tmp_path):
        out, settings = tiny_outputs["sc-single"]
        bad = shutil.copytree(out, tmp_path / "bad")
        path = bad / "semiclassical_g.csv"
        lines = path.read_text().splitlines()
        row = lines[2].split(",")
        row[1] = repr(1.0 - 2.0**-52)
        lines[2] = ",".join(row)
        path.write_text("\n".join(lines) + "\n")
        assert any("G(0)" in e for e in checks.check_outputs("sc-single", str(bad), settings))

    def test_lost_samples_fail(self, tiny_outputs, tmp_path):
        out, settings = tiny_outputs["sc-single"]
        bad = shutil.copytree(out, tmp_path / "bad")
        _edit_json(bad / "semiclassical_g.csv.meta.json", lambda d: d.update(n_samples=d["n_samples"] - 1))
        assert checks.check_outputs("sc-single", str(bad), settings)

    def test_classical_mc_far_from_reference_fails(self, tiny_outputs, tmp_path):
        out, settings = tiny_outputs["fig3-sweep"]
        bad = shutil.copytree(out, tmp_path / "bad")

        def shift(d):
            row = d["rows"][1]
            row["delta_f_classical_mc"] = row["delta_f_reference"] + 5 * row["stderr_classical_mc"]

        _edit_json(bad / "fig3_report.json", shift)
        assert checks.check_outputs("fig3-sweep", str(bad), settings)

    def test_jarzynski_mismatch_fails(self, tiny_outputs, tmp_path):
        out, settings = tiny_outputs["quantum-full"]
        bad = shutil.copytree(out, tmp_path / "bad")
        _edit_json(bad / "quantum_report.json", lambda d: d.update(jarzynski_lhs=d["jarzynski_rhs"] * (1 + 1e-9)))
        assert checks.check_outputs("quantum-full", str(bad), settings)

    def test_missing_output_fails(self, tiny_outputs, tmp_path):
        out, settings = tiny_outputs["quantum-full"]
        bad = shutil.copytree(out, tmp_path / "bad")
        os.remove(bad / "quantum_report.json")
        assert checks.check_outputs("quantum-full", str(bad), settings)

    def test_one_changed_byte_changes_the_digest(self, tiny_outputs, tmp_path):
        out, _ = tiny_outputs["sc-single"]
        bad = shutil.copytree(out, tmp_path / "bad")
        assert checks.output_digest(str(bad)) == checks.output_digest(str(out))
        path = bad / "semiclassical_workdist.csv"
        data = bytearray(path.read_bytes())
        data[-3] ^= 1
        path.write_bytes(bytes(data))
        assert checks.output_digest(str(bad)) != checks.output_digest(str(out))

    def test_manifest_does_not_enter_the_digest(self, tiny_outputs, tmp_path):
        out, _ = tiny_outputs["sc-single"]
        other = shutil.copytree(out, tmp_path / "other")
        _edit_json(other / "manifest.json", lambda d: d["config"].update(out_dir="elsewhere"))
        assert checks.output_digest(str(other)) == checks.output_digest(str(out))

    def test_rerun_with_other_bytes_counts_as_failed(self, monkeypatch):
        h = run.Harness("quantum-full", 6, size="tiny")
        assert h.cli_run()["errors"] == []
        real = run.output_digest
        monkeypatch.setattr(run, "output_digest", lambda d: "x" * len(real(d)))
        second = h.cli_run()
        assert "output bytes differ from the first run" in second["errors"]


def test_exits_nonzero_without_a_source_tree(tmp_path):
    shutil.copytree(BENCH, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "sc-single", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""


def test_sigterm_stops_the_running_child(tmp_path):
    argv = [sys.executable, "benchmarks/run.py", "--workload", "sc-single", "--seed", "99",
            "--seconds", "1", "--trace", "0"]
    proc = subprocess.Popen(argv, cwd=run.ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    marker = "sc-single-seed99-full"
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        if subprocess.run(["pgrep", "-f", marker + "/run.json"], capture_output=True).returncode == 0:
            break
        time.sleep(0.2)
    else:
        pytest.fail("the CLI run never started")
    proc.terminate()
    out, _ = proc.communicate(timeout=30)
    assert proc.returncode == 128 + signal.SIGTERM
    assert out == b""
    time.sleep(0.5)
    left = subprocess.run(["pgrep", "-af", marker], capture_output=True, text=True).stdout
    assert left == "", left
