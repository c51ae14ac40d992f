"""Smoke tests of the scripts under ``scripts/``."""

import importlib.util
import json
import os
import subprocess
import sys

import numpy as np

from chaowork import cli

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_script(name):
    path = os.path.join(REPO, "scripts", f"{name}.py")
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_plot_results_reads_the_jarzynski_sweep(tmp_path):
    cfg = cli.validate_config(
        "beta_list = 2^-8, 2^-10\nhbar_list = 1\nn_samples = 256\n"
        f"n_classical = 2000\nu_points = 16\nseed = 5\nout_dir = {tmp_path}\n"
    )
    res = cli.run(cfg, "fig3")
    [csv] = [p for p in res["files"] if p.endswith("jarzynski_sweep.csv")]

    header, data = _load_script("plot_results").read_csv(csv)
    plotted = (
        "beta",
        "delta_f_reference",
        "delta_f_semiclassical",
        "stderr_semiclassical",
        "delta_f_classical_mc",
        "stderr_classical_mc",
    )
    assert set(plotted) <= set(header)
    assert data.shape == (2, len(header))
    assert np.isfinite(data).all()

    script = os.path.join(REPO, "scripts", "plot_results.py")
    out = tmp_path / "jarzynski.png"
    proc = subprocess.run(
        [sys.executable, script, "jarzynski", csv, "-o", str(out)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    if importlib.util.find_spec("matplotlib") is None:
        assert proc.returncode == 1
        assert "matplotlib is not installed" in proc.stderr
    else:
        assert proc.returncode == 0, proc.stderr
        assert out.exists()


def test_peak_memory_cases_load_and_the_harness_runs(tmp_path):
    script = _load_script("peak_memory")
    cfgp = tmp_path / "case.cfg"
    for argv, _, _, config in script.CASES.values():
        cfgp.write_text(config or "")
        cli._load_config(cli.build_parser().parse_args([*argv, "--config", str(cfgp)]))
    # No limit is asserted: RSS depends on the host's BLAS thread count.
    argv, _, _, config = script.CASES["semiclassical at 4096 u points"]
    rc, peak_mb, result = script.measure(argv, config)
    assert rc == 0 and peak_mb > 0.0 and result["files"]


def test_compare_outputs_names_each_difference(tmp_path, capsys):
    script = _load_script("compare_outputs")
    a, b = tmp_path / "a", tmp_path / "b"
    for root in (a, b):
        (root / "sub").mkdir(parents=True)
        (root / "sub" / "g.csv").write_text("# manifest_sha256=x\nu,re_g\n0.0,1.0\n0.5,0.25\n")
        (root / "report.json").write_text(json.dumps({"rows": [{"l1": 0.5, "beta": 2.0}]}))
        manifest = {"config": {"out_dir": str(root), "seed": 1}, "versions": {"engine": str(root)}}
        (root / "manifest.json").write_text(json.dumps(manifest))
    assert script.main([str(a), str(b)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == (
        "3 files: 3 identical, 0 differ, 0 only in A, 0 only in B"
    )

    (b / "sub" / "g.csv").write_text("# manifest_sha256=x\nu,re_g\n0.0,1.0\n0.5,0.5\n")
    (b / "report.json").write_text(json.dumps({"rows": [{"l1": 0.375, "beta": 2.0}]}))
    (a / "spectra.bin").write_bytes(b"\x00")
    assert script.main([str(a), str(b)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        "manifest.json: identical",
        "report.json: rows.0.l1 abs 0.125 rel 0.25",
        "spectra.bin: only in A",
        os.path.join("sub", "g.csv") + ": re_g abs 0.25 rel 0.5",
        "4 files: 1 identical, 2 differ, 1 only in A, 0 only in B",
    ]
