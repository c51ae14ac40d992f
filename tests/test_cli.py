import contextlib
import importlib.metadata
import io
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from dataclasses import fields

import numpy as np
import pytest
import scipy

from chaowork import characteristic, classical, cli, native, quantum, sampler, spectra, trajectory
from chaowork.characteristic import plan_from_window, plan_u_grid
from chaowork.cli import (
    ParseError,
    RangeError,
    RunConfig,
    apply_env_overrides,
    run_scenario,
    validate_config,
)

from reference import quantum_spike_density

_TINY_BASE = {
    "beta_list": "2^-8",
    "hbar_list": "0.5",
    "n_samples": "1200",
    "n_classical": "20000",
    "u_points": "64",
    "quantum_h": "0.08",
    "seed": "777",
    "workers": "1",
}


def tiny_text(**overrides):
    """Small-run configuration text with per-test overrides; None leaves a key out."""
    merged = {**_TINY_BASE, **overrides}
    return "".join(f"{k} = {v}\n" for k, v in merged.items() if v is not None)


TINY = tiny_text()
BIG_SEED = 12345678901234567890


class TestValidateConfig:
    def test_empty_file_gives_default_system(self):
        cfg = validate_config("")
        assert cfg.geometry_r == 1.0
        assert cfg.geometry_l == 1.0
        assert cfg.sigma == 0.1
        assert cfg.xi_0 == 0.0
        assert cfg.xi_f == 85.0
        assert cfg.centers == (0.2, 0.4, 0.67, 0.5, 0.5, 0.15, 0.3, 0.75)
        assert cfg.signs == (1.0, -1.0, 1.0, -1.0)

    def test_negative_beta_is_range_error(self):
        # Entries whose file tags collide would overwrite each other's CSVs.
        for key, value in (
            ("beta_list", "-1"),
            ("beta_list", "0.1, 0.1000001"),
            ("beta_list", "2^-8, 2^-8"),
            ("hbar_list", "0.5, 0.5000001"),
            # Unbroadened inversion always trips the aliasing guard after the trace.
            ("broadening_bins", "0"),
        ):
            with pytest.raises(RangeError) as e:
                validate_config(f"{key} = {value}")
            assert key in str(e.value)

    def test_unknown_key_named_in_error(self):
        # anisotropic_saddle was once accepted but ignored by the engine.
        for key, value in (("sigma_y", "0.2"), ("anisotropic_saddle", "true")):
            with pytest.raises(ParseError) as e:
                validate_config(f"{key} = {value}")
            assert key in str(e.value)
            assert "line 1" in str(e.value)

    def test_integer_keys_reject_fractions(self):
        int_keys = [f.name for f in fields(RunConfig) if f.type == "int"]
        assert "n_samples" in int_keys and "seed" in int_keys
        for key in int_keys:
            with pytest.raises(ParseError) as e:
                validate_config(f"{key} = 1000.7")
            assert key in str(e.value)
        assert validate_config("n_samples = 2^10").n_samples == 1024
        assert validate_config("n_samples = 1e6").n_samples == 1_000_000
        # Above 2^53 a float round trip would change the seed.
        assert validate_config(f"seed = {BIG_SEED}").seed == BIG_SEED

    def test_power_of_two_tokens(self):
        cfg = validate_config("beta_list = 2^-12, 2^-6")
        assert cfg.beta_list == (2.0**-12, 2.0**-6)

    def test_duplicate_key_rejected(self):
        with pytest.raises(ParseError):
            validate_config("sigma = 0.1\nsigma = 0.2")

    def test_malformed_line_reports_position(self):
        with pytest.raises(ParseError) as e:
            validate_config("# fine\nnot a pair")
        assert e.value.line == 2

    def test_comments_and_blanks_ignored(self):
        cfg = validate_config("\n# comment\nsigma = 0.2  # trailing\n")
        assert cfg.sigma == 0.2

    def test_workers_zero_resolves_to_cpu_count(self):
        cfg = validate_config("")
        assert cfg.resolved_workers() >= 1

    def test_signs_length_checked(self):
        with pytest.raises(RangeError):
            validate_config("signs = 1, -1")

    def test_every_default_parses_back(self):
        keys = fields(RunConfig)
        lines = []
        for f in keys:
            v = f.default
            lines.append(f"{f.name} = {', '.join(map(repr, v)) if isinstance(v, tuple) else v}")
        cfg = validate_config("\n".join(lines))
        for f in keys:
            assert getattr(cfg, f.name) == f.default, f.name
            assert type(getattr(cfg, f.name)) is type(f.default), f.name


class TestEnvOverrides:
    def test_env_overrides_file(self):
        cfg = validate_config("sigma = 0.2")
        out = apply_env_overrides(cfg, {"CHAOWORK_SIGMA": "0.3", "CHAOWORK_SEED": str(BIG_SEED)})
        assert out.sigma == 0.3
        assert out.seed == BIG_SEED

    def test_env_range_checked(self):
        cfg = validate_config("")
        with pytest.raises(RangeError):
            apply_env_overrides(cfg, {"CHAOWORK_BETA_LIST": "-2"})

    def test_bad_env_value_names_variable(self):
        cfg = validate_config("")
        for var, raw in (
            ("CHAOWORK_SEED", "abc"),
            ("CHAOWORK_N_SAMPLES", "1000.7"),
            ("CHAOWORK_BETA_LIST", "0^-2"),
            ("CHAOWORK_SEED", "0^-1"),
        ):
            with pytest.raises(ValueError) as e:
                apply_env_overrides(cfg, {var: raw})
            assert var in str(e.value)


class TestManifest:
    def test_versions_describe_the_run_without_building(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the manifest started a process or a build")

        monkeypatch.setattr(subprocess, "Popen", refuse)
        monkeypatch.setattr(native, "build", refuse)
        monkeypatch.setattr(native, "load", refuse)
        m = cli.config_manifest(validate_config(TINY), "semiclassical")
        v = m["versions"]
        assert v["scipy"] == scipy.__version__
        assert v["cpu_count"] == os.cpu_count()
        assert v["engine"] == native.library_key()
        assert v["platform"].startswith(os.uname().sysname)
        libc, libc_version = platform.libc_ver()
        assert v["platform"].endswith(f"-{libc}-{libc_version}" if libc else os.uname().machine)
        # Versions stay out of the hash, which depends on the configuration's values alone.
        assert m["config_sha256"] == (
            "960ca7db9a24468f2724309c5d70f1ee67446c5227a7cc2baa0c135ce180941a"
        )

    def test_scipy_absent_is_recorded_as_null(self, monkeypatch):
        # Only a partial quantum spectrum imports scipy, so a run may go without it.
        def absent(package):
            raise importlib.metadata.PackageNotFoundError(package)

        monkeypatch.setattr(importlib.metadata, "version", absent)
        m = cli.config_manifest(validate_config(TINY), "semiclassical")
        assert m["versions"]["scipy"] is None

    def test_no_compiler_leaves_the_engine_unnamed(self, monkeypatch):
        monkeypatch.setattr(native, "COMPILER", "chaowork-no-such-cc")
        assert cli.config_manifest(validate_config(TINY), "quantum")["versions"]["engine"] is None


@pytest.fixture(scope="module")
def result(tmp_path_factory):
    out = tmp_path_factory.mktemp("fig4")
    cfg = validate_config(tiny_text(hbar_list="0.05,0.2,1.0", out_dir=str(out)))
    return run_scenario(cfg, "fig4"), out


class TestScenarioFig4:
    def test_artifacts_written(self, result):
        res, out = result
        names = {os.path.basename(p) for p in res["files"]}
        assert "classical_workdist.csv" in names
        for tag in ("0p05", "0p2", "1"):
            assert f"semiclassical_g_hbar{tag}.csv" in names
            assert f"semiclassical_workdist_hbar{tag}.csv" in names
        assert "fig4_report.json" in names
        assert "manifest.json" in names

    def test_report_comparisons(self, result):
        res, _ = result
        rows = res["report"]["comparisons"]
        assert [r["hbar"] for r in rows] == [0.05, 0.2, 1.0]
        for r in rows:
            assert 0.0 <= r["l1"] <= 2.0

    def test_manifest_hash_embedded_everywhere(self, result):
        res, out = result
        mh = res["manifest"]["config_sha256"]
        for p in res["files"]:
            if p.endswith(".csv"):
                with open(p) as fh:
                    assert fh.readline().strip() == f"# manifest_sha256={mh}"

    def test_histogram_masses_normalized(self, result):
        res, out = result
        picked = 0
        for p in res["files"]:
            base = os.path.basename(p)
            if base == "classical_workdist.csv" or base == "semiclassical_workdist_hbar1.csv":
                hist = cli.read_histogram_csv(p)
                assert hist.total_mass == pytest.approx(1.0, abs=1e-6)
                picked += 1
        assert picked == 2


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path):
        cfg1 = validate_config(tiny_text(out_dir=f"{tmp_path}/a"))
        cfg2 = validate_config(tiny_text(out_dir=f"{tmp_path}/b"))
        r1 = run_scenario(cfg1, "fig3")
        r2 = run_scenario(cfg2, "fig3")
        for p1, p2 in zip(sorted(r1["files"]), sorted(r2["files"])):
            with open(p1, "rb") as f1, open(p2, "rb") as f2:
                b1, b2 = f1.read(), f2.read()
            if p1.endswith("manifest.json"):
                continue  # embeds out_dir, which differs by construction
            assert b1 == b2, f"{p1} differs from {p2}"


class TestWorkerCount:
    def test_outputs_independent_of_worker_count(self, tmp_path):
        # 9,000 samples are two chunks, so --workers 2 traces them in a pool.
        cfgp = tmp_path / "c.cfg"
        cfgp.write_text(tiny_text(n_samples="9000", u_points="16", hbar_list="0.5,1.0"))
        path = [os.path.dirname(native.PACKAGE_DIR), *filter(None, [os.environ.get("PYTHONPATH")])]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
        for workers in ("1", "2"):
            for command in (["semiclassical"], ["scenario", "fig3"], ["scenario", "fig4"]):
                out = tmp_path / f"w{workers}" / command[-1]
                argv = [*command, "--config", str(cfgp), "--out", str(out), "--workers", workers]
                if command[-1] != "fig4":  # fig4 sweeps hbar_list; the others read one entry
                    argv += ["--hbar", "0.5"]
                proc = subprocess.run(
                    [sys.executable, "-m", "chaowork.cli", *argv],
                    env=env,
                    capture_output=True,
                    text=True,
                    timeout=300,
                )
                assert proc.returncode == 0, proc.stderr
        # Only the manifests record the worker count.
        trees = []
        for workers in ("1", "2"):
            root = tmp_path / f"w{workers}"
            files = [p for p in root.rglob("*") if p.is_file() and p.name != "manifest.json"]
            trees.append({p.relative_to(root): p.read_bytes() for p in files})
        assert len(trees[0]) > 10
        assert trees[0].keys() == trees[1].keys()
        for name, data in trees[0].items():
            assert data == trees[1][name], name


class TestOutputIdentity:
    def test_out_dir_and_workers_change_only_the_manifest(self, tmp_path, monkeypatch):
        # Neither is hashed, so every CSV, sidecar and report carries the same
        # hash whether out_dir comes from a flag, the file or its default, and
        # whether workers is set or not.
        monkeypatch.chdir(tmp_path)
        text = tiny_text(n_samples="400", u_points="16", workers=None)
        (tmp_path / "plain.cfg").write_text(text)
        (tmp_path / "named.cfg").write_text(text + "out_dir = from_file\n")
        runs = {
            "from_flag": ["--config", "plain.cfg", "--out", "from_flag"],
            "from_file": ["--config", "named.cfg", "--workers", "1"],
            "out": ["--config", "plain.cfg", "--workers", "1"],
        }
        for command in (["semiclassical"], ["scenario", "fig3"]):
            trees = []
            for root, argv in runs.items():
                with contextlib.redirect_stdout(io.StringIO()):
                    assert cli.main([*command, *argv]) == 0, (command, root)
                written = [p for p in (tmp_path / root).rglob("*") if p.is_file()]
                trees.append({p.name: p.read_bytes() for p in written if p.name != "manifest.json"})
                shutil.rmtree(tmp_path / root)
            assert len(trees[0]) >= 2, command
            for tree in trees[1:]:
                assert tree.keys() == trees[0].keys(), command
                for name, data in tree.items():
                    assert data == trees[0][name], (command, name)


# The sweep each scenario runs when the config leaves its keys out.
_SWEEPS = {
    "fig2": {"beta_list": [2.0**-6, 2.0**-8, 2.0**-10, 2.0**-12]},
    "fig3": {"beta_list": [2.0**-k for k in range(7, 14)], "u_points": 64},
    "jarzynski": {"beta_list": [2.0**-k for k in range(7, 14)], "u_points": 64},
    "fig4": {"hbar_list": [0.01, 0.1, 0.5, 1.0], "u_points": 32},
}


def _argv(command):
    return ["scenario", command] if command.startswith("fig") else [command]


class TestScenarioDefaults:
    @pytest.mark.parametrize("command", sorted(_SWEEPS))
    def test_manifest_records_the_sweep_that_ran(self, tmp_path, command):
        sweep = _SWEEPS[command]

        def run(name, text):
            """The manifest and every other file of one run at this config text."""
            cfgp = tmp_path / f"{name}.cfg"
            cfgp.write_text(text)
            out = tmp_path / name
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main([*_argv(command), "--config", str(cfgp), "--out", str(out)]) == 0
            out = out if command == "jarzynski" else out / command
            files = {p.name: p.read_bytes() for p in out.iterdir()}
            return json.loads(files.pop("manifest.json")), files

        manifest, files = run("default", tiny_text(n_samples="400", **dict.fromkeys(sweep)))
        ran = manifest["config"]
        for key, value in sweep.items():
            assert ran[key] == value, key
        [report] = [json.loads(v) for name, v in files.items() if name.endswith("report.json")]
        swept = "hbar" if command == "fig4" else "beta"
        rows = report["comparisons" if command == "fig4" else "rows"]
        assert [row[swept] for row in rows] == ran[f"{swept}_list"]
        # The recorded values, set in the file, change no byte: they are what ran.
        lists = {key: ", ".join(map(repr, ran[key])) for key in ("beta_list", "hbar_list")}
        _, again = run("explicit", tiny_text(n_samples="400", u_points=ran["u_points"], **lists))
        assert again.keys() == files.keys()
        for name, data in again.items():
            assert data == files[name], name

    def test_file_environment_and_flags_override_the_sweep(self, tmp_path, monkeypatch):
        given = {
            "beta_list": ("2^-9", [2.0**-9]),
            "hbar_list": ("0.3", [0.3]),
            "u_points": ("16", 16),
        }
        flags = {"beta_list": "--beta", "hbar_list": "--hbar"}
        cfgp = tmp_path / "c.cfg"

        def load(argv, key):
            value = getattr(cli._load_config(cli.build_parser().parse_args(argv)), key)
            return list(value) if isinstance(value, tuple) else value

        for command, sweep in _SWEEPS.items():
            argv = _argv(command)
            for key, value in sweep.items():
                assert load(argv, key) == value, (command, key)
                raw, want = given[key]
                cfgp.write_text(f"{key} = {raw}\n")
                assert load([*argv, "--config", str(cfgp)], key) == want, (command, key)
                if key in flags:
                    assert load([*argv, flags[key], raw], key) == want, (command, key)
                monkeypatch.setenv(f"CHAOWORK_{key.upper()}", raw)
                assert load(argv, key) == want, (command, key)
                monkeypatch.delenv(f"CHAOWORK_{key.upper()}")

    def test_list_a_command_would_cut_is_refused(self, tmp_path, capsys, monkeypatch):
        # A command that reads one entry of a list refuses a longer one
        # before it samples, plans, traces or solves anything.
        def refuse(*args, **kwargs):
            raise AssertionError("work started before the lists were checked")

        monkeypatch.setattr(sampler, "sample_ensemble", refuse)
        monkeypatch.setattr(classical, "sample_classical_work", refuse)
        monkeypatch.setattr(quantum, "build_hamiltonians", refuse)
        monkeypatch.setattr(cli, "plan_u_grid", refuse)
        cfgp = tmp_path / "c.cfg"
        cfgp.write_text(TINY)
        for command, flag in (
            ("semiclassical", "--beta"),
            ("semiclassical", "--hbar"),
            ("classical", "--beta"),
            ("quantum", "--beta"),
            ("quantum", "--hbar"),
            ("fig4", "--beta"),
            ("fig2", "--hbar"),
            ("fig3", "--hbar"),
            ("jarzynski", "--hbar"),
        ):
            key = cli._FLAG_KEYS[flag[2:]]
            out = tmp_path / f"{command}_{key}"
            argv = [*_argv(command), "--config", str(cfgp), flag, "2^-8,2^-10", "--out", str(out)]
            assert cli.main(argv) == 1, (command, key)
            payload = json.loads(capsys.readouterr().err.strip())
            assert payload["error"] == "RangeError", (command, key)
            assert payload["message"].startswith(f"{key}: this command takes one entry, got 2")
            assert not any(files for _, _, files in os.walk(out))


class TestScenarioFig3:
    def test_semiclassical_estimate_uses_broadening_bins(self, tmp_path):
        rows = {}
        for bins in (2, 4):
            text = tiny_text(out_dir=f"{tmp_path}/{bins}", n_samples="400", broadening_bins=bins)
            [rows[bins]] = run_scenario(validate_config(text), "fig3")["report"]["rows"]
        assert rows[4]["delta_f_semiclassical"] != rows[2]["delta_f_semiclassical"]
        for key in ("delta_f_reference", "delta_f_classical_mc"):
            assert rows[4][key] == rows[2][key], key

    def test_one_transform_per_sweep_and_no_inversion(self, tmp_path, monkeypatch):
        # The free energy is c . G for the functional each request carries;
        # one transform gives every beta's c, and G is never inverted.
        calls = {"_transform": 0, "invert": 0}

        def counted(name):
            fn = getattr(spectra, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        for name in calls:
            monkeypatch.setattr(spectra, name, counted(name))
        text = tiny_text(out_dir=str(tmp_path), n_samples="400", beta_list="2^-8,2^-10,2^-12")
        rows = run_scenario(validate_config(text), "fig3")["report"]["rows"]
        assert len(rows) == 3
        assert calls == {"_transform": 1, "invert": 0}


class TestScenarioFig2:
    def test_truncation_surfaced_as_warning(self, tmp_path):
        # The scenario completes and records the caveat: a deliberately small
        # basis at beta = 2^-6 cannot cover the thermal weight, and neither
        # can the full grid spectrum at 2^-8, whose spikes reach far beyond
        # the classical work window.
        for beta, tag, basis in (
            ("2^-6", "2e-6", {"quantum_n_initial": "25", "quantum_n_final": "60"}),
            ("2^-8", "2e-8", {}),
        ):
            out = tmp_path / tag
            cfg = validate_config(
                tiny_text(out_dir=str(out), beta_list=beta, n_samples="400", **basis)
            )
            res = run_scenario(cfg, "fig2")
            assert res["report"]["warnings"], "expected a truncation warning"
            assert "beta" in res["report"]["warnings"][0]
            assert res["report"]["rows"][0]["quantum"] == "unavailable"
            names = {os.path.basename(p) for p in res["files"]}
            assert f"semiclassical_workdist_beta{tag}.csv" in names
            # The truncated spectrum does not stretch the semiclassical plan:
            # it spans the classical window alone.
            base = plan_u_grid(
                cfg.geometry(), cfg.potential(), cfg.seed, n_u=cfg.u_points, pad_frac=cfg.pad_frac
            )
            w_all = base.w_values
            plan = plan_from_window(w_all[0], w_all[-1], n_u=cfg.u_points, pad_frac=cfg.pad_frac)
            with open(out / "fig2" / f"semiclassical_g_beta{tag}.csv.meta.json") as fh:
                meta = json.load(fh)
            assert meta["du"] == plan.du, beta
            assert meta["w_center"] == plan.w_center, beta

    def test_quantum_and_semiclassical_written_when_covered(self, tmp_path):
        cfg = validate_config(
            tiny_text(out_dir=str(tmp_path), beta_list="0.35", hbar_list="1.0", n_samples="400")
        )
        res = run_scenario(cfg, "fig2")
        assert not res["report"]["warnings"]
        names = {os.path.basename(p) for p in res["files"]}
        assert any(n.startswith("quantum_workdist") for n in names)
        row = res["report"]["rows"][0]
        assert 0.0 <= row["l1"] <= 2.0

    def test_window_pad_keeps_kernel_tails_inside(self, tmp_path):
        # Each beta's window is padded by pad_frac like every other run's; a
        # narrower pad let the Gaussian tails wrap around the periodic W window.
        cfg = validate_config(
            tiny_text(
                out_dir=str(tmp_path),
                beta_list="0.35",
                hbar_list="1",
                u_points="32",
                seed="4711",
            )
        )
        run_scenario(cfg, "fig2")
        hist = cli.read_histogram_csv(tmp_path / "fig2" / "quantum_workdist_beta0p35.csv")
        peak = hist.density.max()
        assert hist.density[0] < 1e-6 * peak
        assert hist.density[-1] < 1e-6 * peak


class TestSubcommands:
    def run_main(self, argv):
        return cli.main(argv)

    def test_semiclassical_command(self, tmp_path):
        cfgp = tmp_path / "c.cfg"
        cfgp.write_text(tiny_text(n_samples="400", hbar_list="1.0"))
        rc = self.run_main(
            ["semiclassical", "--config", str(cfgp), "--out", str(tmp_path / "o")]
        )
        assert rc == 0
        assert (tmp_path / "o" / "semiclassical_g.csv").exists()
        assert (tmp_path / "o" / "semiclassical_g.csv.meta.json").exists()

    def test_classical_command(self, tmp_path):
        cfgp = tmp_path / "c.cfg"
        cfgp.write_text(TINY)
        rc = self.run_main(["classical", "--config", str(cfgp), "--out", str(tmp_path / "o")])
        assert rc == 0
        report = json.loads((tmp_path / "o" / "classical_report.json").read_text())
        assert abs(report["delta_f_mc"] - report["delta_f_quadrature"]) < 5 * max(
            report["stderr_mc"], 1e-6
        )

    def test_quantum_command(self, tmp_path):
        cfgp = tmp_path / "c.cfg"
        cfgp.write_text(tiny_text(beta_list="0.3"))
        rc = self.run_main(["quantum", "--config", str(cfgp), "--out", str(tmp_path / "o")])
        assert rc == 0
        report = json.loads((tmp_path / "o" / "quantum_report.json").read_text())
        assert report["jarzynski_lhs"] == pytest.approx(report["jarzynski_rhs"], rel=1e-9)
        # The eigensolve's own checks travel with the run, in the spectra header too.
        solves = report["eigensolve"]
        assert set(solves) == {"initial", "final"}
        for solve in solves.values():
            assert solve["solver"] == "dense evd"
            assert 0.0 <= solve["residual"] < 1e-8
            assert 0.0 <= solve["orthogonality"] < 1e-10
        spec = quantum.load_spectra(tmp_path / "o" / "spectra.bin")
        assert spec.metadata["eigensolve"] == solves

    def test_quantum_truncation_writes_nothing(self, tmp_path, capsys, monkeypatch):
        # A run that fails leaves its output directory empty, whichever step raised.
        def no_quadrature(*args):
            raise classical.QuadratureNonConvergence("refused by the test")

        monkeypatch.setattr(classical, "classical_free_energy_difference", no_quadrature)
        cases = (
            # At beta = 2^-10 the kept states of this grid miss the Boltzmann tail.
            (["quantum"], {"beta_list": "2^-10"}, "TruncationDominates"),
            # A quarter-bin broadening leaves |G(u_max)| near 0.3: P(W) would alias.
            (["quantum"], {"beta_list": "0.3", "broadening_bins": "0.25"}, "AliasingSuspect"),
            # The same in the semiclassical inversion, after the spectra are solved.
            (
                ["scenario", "fig2"],
                {"beta_list": "0.3", "broadening_bins": "0.25"},
                "AliasingSuspect",
            ),
            # At hbar = 0.5, after the classical histogram is binned.
            (
                ["scenario", "fig4"],
                {"hbar_list": "0.5,1.0", "broadening_bins": "0.25"},
                "AliasingSuspect",
            ),
            # The quadrature runs after the classical histogram is binned.
            (["classical"], {}, "QuadratureNonConvergence"),
        )
        for i, (command, overrides, error) in enumerate(cases):
            cfgp = tmp_path / f"c{i}.cfg"
            cfgp.write_text(tiny_text(**overrides))
            out = tmp_path / f"o{i}"
            rc = self.run_main([*command, "--config", str(cfgp), "--out", str(out)])
            assert rc == 1, command
            payload = json.loads(capsys.readouterr().err.strip())
            assert payload["error"] == error, command
            run_dir = out / command[1] if command[0] == "scenario" else out
            assert os.listdir(run_dir) == [], command

    def test_dense_solve_refused_beyond_physical_memory(self, tmp_path, capsys, monkeypatch):
        # This grid's dense solve needs a few MB; pretend the machine has 1 MB.
        monkeypatch.setattr(quantum, "physical_memory", lambda: 1_000_000)
        cfgp = tmp_path / "c.cfg"
        cfgp.write_text(tiny_text(beta_list="0.3"))
        for command in (["quantum"], ["scenario", "fig2"]):
            out = tmp_path / command[-1]
            rc = self.run_main([*command, "--config", str(cfgp), "--out", str(out)])
            assert rc == 1
            payload = json.loads(capsys.readouterr().err.strip())
            assert payload["error"] == "InsufficientMemory"
            for key in ("quantum_h", "quantum_n_initial", "quantum_n_final"):
                assert key in payload["message"]
            assert not any(files for _, _, files in os.walk(out))

    def test_trace_refused_beyond_physical_memory(self, tmp_path, capsys, monkeypatch):
        # One chunk of 1,200 rays through 64 checkpoints needs a few MB; the
        # machine has 1 MB for the trace, and enough for fig2's dense solve.
        monkeypatch.setattr(characteristic, "physical_memory", lambda: 1_000_000)
        cfgp = tmp_path / "c.cfg"
        cfgp.write_text(tiny_text(beta_list="0.3", hbar_list="1.0"))
        for command in (["semiclassical"], ["scenario", "fig2"]):
            out = tmp_path / command[-1]
            rc = self.run_main([*command, "--config", str(cfgp), "--out", str(out)])
            assert rc == 1
            payload = json.loads(capsys.readouterr().err.strip())
            assert payload["error"] == "InsufficientMemory"
            for key in ("u_points", "beta_list", "hbar_list", "workers"):
                assert key in payload["message"]
            assert not any(files for _, _, files in os.walk(out))

    def test_trace_refused_when_sums_do_not_fit(self, tmp_path, capsys, monkeypatch):
        # Each beta of jarzynski holds (4, 64) sums as its total and as the
        # arriving chunk's.  The machine has room for the chunk in flight,
        # not for those sums as well.
        text = tiny_text(beta_list="2^-7,2^-9,2^-11", hbar_list="1.0")
        cfg = validate_config(text)
        geom, pot = cfg.geometry(), cfg.potential()
        plan = plan_u_grid(geom, pot, cfg.seed, n_u=cfg.u_points, pad_frac=cfg.pad_frac)
        grids = [characteristic._prepare(characteristic.Request(b, plan, 1.0)) for b in cfg.beta_list]
        times = np.unique(np.concatenate([grid.times for grid in grids]))
        chunk = characteristic._chunk_bytes(cfg.n_samples, times.size)
        monkeypatch.setattr(characteristic, "physical_memory", lambda: chunk + 1)
        cfgp = tmp_path / "c.cfg"
        cfgp.write_text(text)
        out = tmp_path / "o"
        rc = self.run_main(["jarzynski", "--config", str(cfgp), "--out", str(out)])
        assert rc == 1
        payload = json.loads(capsys.readouterr().err.strip())
        assert payload["error"] == "InsufficientMemory"
        for key in ("u_points", "workers", "beta_list", "hbar_list"):
            assert key in payload["message"]
        assert not any(files for _, _, files in os.walk(out))

    def test_state_count_beyond_the_grid_names_its_key(self, tmp_path, capsys, monkeypatch):
        # quantum_h = 0.1 has 155 sites; both counts are checked before either solve.
        def refuse(*args, **kwargs):
            raise AssertionError("an eigensolve ran")

        monkeypatch.setattr(quantum, "eigensolve", refuse)
        for key, other in (
            ("quantum_n_final", "quantum_n_initial"),
            ("quantum_n_initial", "quantum_n_final"),
        ):
            cfgp = tmp_path / f"{key}.cfg"
            cfgp.write_text(
                tiny_text(beta_list="0.3", quantum_h="0.1", **{key: "5000", other: "80"})
            )
            for command in (["quantum"], ["scenario", "fig2"]):
                out = tmp_path / key / command[-1]
                rc = self.run_main([*command, "--config", str(cfgp), "--out", str(out)])
                assert rc == 1
                payload = json.loads(capsys.readouterr().err.strip())
                message = payload["message"]
                assert message.startswith(f"{key}: requested 5000 states from dimension 155")
                assert not any(files for _, _, files in os.walk(out))

    def test_inversion_refused_beyond_physical_memory(self, tmp_path, capsys, monkeypatch):
        # Inverting 64 u points onto 127 W bins needs a quarter of a MB; the
        # machine has 0.1 MB for it.  Every route that inverts refuses before
        # it samples, traces or solves anything.
        monkeypatch.setattr(spectra, "physical_memory", lambda: 100_000)

        def refuse(*args, **kwargs):
            raise AssertionError("work started before the inversion was checked")

        monkeypatch.setattr(sampler, "sample_ensemble", refuse)
        monkeypatch.setattr(classical, "sample_classical_work", refuse)
        monkeypatch.setattr(quantum, "build_hamiltonians", refuse)
        cfgp = tmp_path / "c.cfg"
        cfgp.write_text(tiny_text(beta_list="0.3", hbar_list="1.0"))
        for command in (
            ["semiclassical"],
            ["quantum"],
            ["jarzynski"],
            ["scenario", "fig2"],
            ["scenario", "fig3"],
            ["scenario", "fig4"],
        ):
            out = tmp_path / "_".join(command)
            rc = self.run_main([*command, "--config", str(cfgp), "--out", str(out)])
            assert rc == 1
            payload = json.loads(capsys.readouterr().err.strip())
            assert payload["error"] == "InsufficientMemory", command
            assert payload["message"].startswith("u_points = 64: "), command
            assert not any(files for _, _, files in os.walk(out))

    def test_compare_command(self, tmp_path, capsys):
        cfgp = tmp_path / "c.cfg"
        cfgp.write_text(tiny_text(hbar_list="0.3,1.0"))
        cfg = validate_config(tiny_text(hbar_list="0.3,1.0", out_dir=str(tmp_path)))
        res = run_scenario(cfg, "fig4")
        csvs = sorted(p for p in res["files"] if p.endswith("workdist_hbar1.csv"))
        classical_csv = [p for p in res["files"] if "classical" in os.path.basename(p)][0]
        outp = tmp_path / "cmp.json"
        rc = self.run_main(["compare", csvs[0], classical_csv, "--out", str(outp)])
        assert rc == 0
        rpt = json.loads(outp.read_text())
        assert 0.0 <= rpt["l1"] <= 2.0

        # A last row cut to two fields is an error naming the file and line.
        with open(csvs[0]) as fh:
            lines = fh.read().splitlines()
        cut = tmp_path / "cut.csv"
        cut.write_text("\n".join([*lines[:-1], "0.5,0.5"]) + "\n")
        shutil.copyfile(csvs[0] + ".meta.json", str(cut) + ".meta.json")
        rc = self.run_main(["compare", str(cut), classical_csv, "--out", str(outp)])
        assert rc == 1
        payload = json.loads(capsys.readouterr().err.strip())
        assert payload["error"] == "ValueError"
        assert f"{cut}, line {len(lines)}" in payload["message"]

        # A sidecar without a key, not an object, or not JSON names itself and the fault.
        shutil.copyfile(csvs[0], cut)
        with open(csvs[0] + ".meta.json") as fh:
            meta = json.load(fh)
        del meta["bin_width"]
        for sidecar, fault in (
            (json.dumps(meta), "'bin_width'"),
            ("[1, 2]", "'bin_width'"),
            ('{"bin_width": ', "Expecting value"),
        ):
            with open(str(cut) + ".meta.json", "w") as fh:
                fh.write(sidecar)
            rc = self.run_main(["compare", str(cut), classical_csv, "--out", str(outp)])
            assert rc == 1
            payload = json.loads(capsys.readouterr().err.strip())
            assert payload["error"] == "ValueError"
            assert f"{cut}.meta.json" in payload["message"]
            assert fault in payload["message"]

    def test_error_json_on_bad_config(self, tmp_path, capsys):
        cfgp = tmp_path / "bad.cfg"
        cfgp.write_text("beta_list = -3")
        rc = self.run_main(["classical", "--config", str(cfgp)])
        assert rc == 1
        err = capsys.readouterr().err.strip()
        payload = json.loads(err)
        assert payload["error"] == "RangeError"
        assert "beta_list" in payload["message"]

    def test_single_sample_refused_before_any_file(self, tmp_path, capsys):
        # One sample has no standard error: it once wrote stderr_re = 0.0.
        for key, command in (("n_samples", "semiclassical"), ("n_classical", "classical")):
            cfgp = tmp_path / f"{key}.cfg"
            cfgp.write_text(tiny_text(**{key: "1"}))
            out = tmp_path / key
            rc = self.run_main([command, "--config", str(cfgp), "--out", str(out)])
            assert rc == 1
            payload = json.loads(capsys.readouterr().err.strip())
            assert payload["error"] == "RangeError"
            assert key in payload["message"]
            assert not any(files for _, _, files in os.walk(out))

    def test_quantum_overflowing_jarzynski_refused_before_any_file(self, tmp_path, capsys):
        # At beta = 50, exp(-beta dF) is about e^865: no shift of the
        # exponents makes either side finite.  It once wrote "Infinity".
        cfgp = tmp_path / "c.cfg"
        cfgp.write_text(tiny_text(quantum_h="0.1", seed="3", u_points="16"))
        out = tmp_path / "o"
        rc = self.run_main(["quantum", "--config", str(cfgp), "--beta", "50", "--out", str(out)])
        assert rc == 1
        payload = json.loads(capsys.readouterr().err.strip())
        assert payload["error"] == "RangeError"
        assert payload["message"].startswith("beta_list: ")
        assert not any(files for _, _, files in os.walk(out))

    def test_cold_jarzynski_refused_before_the_trace(self, tmp_path, capsys, monkeypatch):
        # At beta = 5 and 16 u the broadened spikes tilt about 1,170 in W
        # against a pad of about 34; at beta = 30, exp((beta eps)^2 / 2)
        # overflows too.  Both once failed after the whole trace.
        def refuse(*args, **kwargs):
            raise AssertionError("work started before the temperatures were checked")

        monkeypatch.setattr(sampler, "sample_ensemble", refuse)
        monkeypatch.setattr(classical, "sample_classical_work", refuse)
        for beta in ("5", "30", "2^-7, 5"):
            cfgp = tmp_path / "c.cfg"
            cfgp.write_text(tiny_text(n_samples="600", u_points="16", beta_list=beta))
            for command in (["jarzynski"], ["scenario", "fig3"]):
                out = tmp_path / "_".join(command)
                t0 = time.perf_counter()
                rc = self.run_main([*command, "--config", str(cfgp), "--out", str(out)])
                assert time.perf_counter() - t0 < 1.0
                assert rc == 1
                payload = json.loads(capsys.readouterr().err.strip())
                assert payload["error"] == "RangeError"
                assert payload["message"].startswith("beta_list: beta = ")
                assert "broadening_bins" in payload["message"]
                assert not any(files for _, _, files in os.walk(out))

    def test_bad_flag_value_named(self, capsys):
        for flag in ("--beta", "--hbar", "--seed", "--workers"):
            for raw in ("abc", "0^-1"):
                assert self.run_main(["classical", flag, raw]) == 1
                payload = json.loads(capsys.readouterr().err.strip())
                assert payload["error"] == "ValueError"
                assert flag in payload["message"]

    def test_flags_share_the_file_grammar(self, tmp_path):
        cfgp = tmp_path / "c.cfg"
        cfgp.write_text(TINY)
        args = cli.build_parser().parse_args(
            ["classical", "--config", str(cfgp), "--seed", "2^5", "--beta", "2^-8,2^-10"]
        )
        cfg = cli._load_config(args)
        assert cfg.beta_list == (2.0**-8, 2.0**-10)
        from_file = validate_config(tiny_text(seed="32", beta_list="2^-8,2^-10"))
        sha = cli.config_manifest(cfg, "classical")["config_sha256"]
        assert sha == cli.config_manifest(from_file, "classical")["config_sha256"]

    def test_seed_flag_changes_manifest(self, tmp_path):
        cfgp = tmp_path / "c.cfg"
        cfgp.write_text(tiny_text(n_samples="300", hbar_list="1.0"))
        for seed, sub in ((1, "s1"), (2, "s2")):
            rc = self.run_main(
                [
                    "semiclassical",
                    "--config",
                    str(cfgp),
                    "--seed",
                    str(seed),
                    "--out",
                    str(tmp_path / sub),
                ]
            )
            assert rc == 0
        m1 = json.loads((tmp_path / "s1" / "manifest.json").read_text())
        m2 = json.loads((tmp_path / "s2" / "manifest.json").read_text())
        assert m1["config_sha256"] != m2["config_sha256"]
        assert m1["seed"] == 1 and m2["seed"] == 2


_CMD_CONFIG = tiny_text(n_samples="400", hbar_list="1.0", dump_ensemble="true")
# Quantum needs a temperature its full grid spectrum covers; the flag leaves
# the shared config (and so the hash the other commands embed) alone.
_RUN_COMMANDS = {
    "semiclassical": ["semiclassical"],
    "classical": ["classical"],
    "quantum": ["quantum", "--beta", "0.3"],
    "jarzynski": ["jarzynski"],
    "fig3": ["scenario", "fig3"],
}


@pytest.fixture(scope="module")
def command_runs(tmp_path_factory):
    """Every run subcommand once at one tiny config: (out_dir, stdout JSON)."""
    root = tmp_path_factory.mktemp("commands")
    cfgp = root / "c.cfg"
    cfgp.write_text(_CMD_CONFIG)
    runs = {}
    for name, argv in _RUN_COMMANDS.items():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main([*argv, "--config", str(cfgp), "--out", str(root / name)])
        assert rc == 0, name
        # A scenario writes into its own subdirectory of --out.
        out_dir = root / name / "fig3" if argv[0] == "scenario" else root / name
        runs[name] = (str(out_dir), json.loads(buf.getvalue()))
    return runs


class TestRunCommands:
    def test_stdout_names_out_dir_and_written_files(self, command_runs):
        for name, (out_dir, printed) in command_runs.items():
            assert printed["out_dir"] == out_dir, name
            assert all(os.path.dirname(p) == out_dir for p in printed["files"]), name
            listed = {os.path.basename(p) for p in printed["files"]}
            # Sidecars travel with their CSV and are not listed separately.
            written = {f for f in os.listdir(out_dir) if not f.endswith(".meta.json")}
            assert listed == written, name
            assert "manifest.json" in listed, name

    def test_work_samples_dumped(self, command_runs):
        out_dir, _ = command_runs["classical"]
        with open(os.path.join(out_dir, "work_samples.csv")) as fh:
            lines = fh.read().splitlines()
        with open(os.path.join(out_dir, "manifest.json")) as fh:
            mh = json.load(fh)["config_sha256"]
        assert lines[:2] == [f"# manifest_sha256={mh}", "w"]
        cfg = validate_config(_CMD_CONFIG)
        sample = classical.sample_classical_work(
            cfg.geometry(), cfg.potential(), cfg.n_classical, cfg.seed
        )
        assert [float(v) for v in lines[2:]] == sample.values.tolist()

    def test_ensemble_dumped(self, command_runs):
        out_dir, _ = command_runs["semiclassical"]
        path = os.path.join(out_dir, "ensemble.csv")
        data = np.genfromtxt(path, delimiter=",", names=True, skip_header=1)
        cfg = validate_config(_CMD_CONFIG)
        ens = sampler.sample_ensemble(cfg.geometry(), cfg.n_samples, cfg.seed)
        assert np.array_equal(np.column_stack([data["qx"], data["qy"]]), ens.qs)
        ps = ens.momenta(cfg.beta_list[0])
        assert np.array_equal(np.column_stack([data["px"], data["py"]]), ps)

    def test_g_sidecar_records_the_trace(self, command_runs):
        out_dir, _ = command_runs["semiclassical"]
        with open(os.path.join(out_dir, "semiclassical_g.csv.meta.json")) as fh:
            trace = json.load(fh)["trace"]
        cfg = validate_config(_CMD_CONFIG)
        geom, pot = cfg.geometry(), cfg.potential()
        ens = sampler.sample_ensemble(geom, cfg.n_samples, cfg.seed)
        plan = plan_u_grid(geom, pot, cfg.seed, n_u=cfg.u_points, pad_frac=cfg.pad_frac)
        req = characteristic.Request(cfg.beta_list[0], plan, cfg.hbar_list[0])
        _, _, counts = trajectory.checkpoint_action_integrals(
            ens.qs, ens.z, characteristic._prepare(req).times, geom, pot, cfg.max_bounces
        )
        assert trace["segments"] == counts.segments.sum()
        assert trace["bounce_p50"] <= trace["bounce_p99"] <= trace["bounce_max"]
        assert trace["bounce_max"] == counts.bounces.max()
        assert (trace["grazing"], trace["corner"]) == (counts.grazing, counts.corner)
        assert trace["lanes"] == native.load().math_lanes()
        assert trace["lanes"] in (1, 4)

    def test_every_csv_starts_with_manifest_hash(self, command_runs):
        for name, (out_dir, printed) in command_runs.items():
            with open(os.path.join(out_dir, "manifest.json")) as fh:
                head = f"# manifest_sha256={json.load(fh)['config_sha256']}\n"
            csvs = [p for p in printed["files"] if p.endswith(".csv")]
            assert csvs, name
            for p in csvs:
                with open(p) as fh:
                    assert fh.readline() == head, p

    def test_quantum_histogram_matches_spike_oracle(self, command_runs):
        out_dir, _ = command_runs["quantum"]
        hist = cli.read_histogram_csv(os.path.join(out_dir, "quantum_workdist.csv"))
        spec = quantum.load_spectra(os.path.join(out_dir, "spectra.bin"))
        direct = quantum_spike_density(spec, 0.3, hist.w_values, hist.broadening)
        assert np.abs(hist.density - direct).max() < 1e-9
        assert abs(hist.total_mass - 1.0) < 1e-12

    def test_jarzynski_is_scenario_fig3(self, command_runs):
        jz_dir, jz = command_runs["jarzynski"]
        fig3_dir, _ = command_runs["fig3"]
        for name in ("jarzynski_sweep.csv", "fig3_report.json"):
            with open(os.path.join(jz_dir, name), "rb") as a:
                with open(os.path.join(fig3_dir, name), "rb") as b:
                    assert a.read() == b.read(), name
        assert [r["beta"] for r in jz["report"]["rows"]] == [2.0**-8]

    def test_fig4_matches_semiclassical_per_hbar(self, tmp_path):
        # fig4 traces its hbar sweep once; each hbar's G must still be what the
        # semiclassical command computes alone at that hbar and seed.
        hbars = ("0.25", "0.5", "1.0")
        cfgp = tmp_path / "c.cfg"
        cfgp.write_text(tiny_text(n_samples="400", hbar_list=",".join(hbars)))

        def body(path):
            with open(path) as fh:
                return fh.read().split("\n", 1)[1]

        def meta(path):
            with open(str(path) + ".meta.json") as fh:
                m = json.load(fh)
            del m["manifest_sha256"]
            return m

        argv = ["--config", str(cfgp), "--out", str(tmp_path / "f")]
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["scenario", "fig4", *argv]) == 0
            for h in hbars:
                out = str(tmp_path / f"s{h}")
                assert cli.main(["semiclassical", *argv[:2], "--out", out, "--hbar", h]) == 0
        traces = []
        for h in hbars:
            tag = cli._hbar_tag(float(h))
            shared = tmp_path / "f" / "fig4" / f"semiclassical_g_hbar{tag}.csv"
            alone = tmp_path / f"s{h}" / "semiclassical_g.csv"
            assert body(shared) == body(alone), h
            shared, alone = meta(shared), meta(alone)
            # The trace block describes the run's one trace, which the
            # sweep runs to the largest hbar's last checkpoint.
            traces.append((shared.pop("trace"), alone.pop("trace")))
            assert shared == alone, h
        assert all(shared == traces[-1][0] for shared, _ in traces)
        assert traces[-1][0] == traces[-1][1]
        assert all(alone["segments"] < traces[-1][0]["segments"] for _, alone in traces[:-1])
