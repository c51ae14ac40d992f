import contextlib
import io
import json
import os
from dataclasses import fields

import numpy as np
import pytest

from chaowork import classical, cli, sampler
from chaowork.cli import (
    ParseError,
    RangeError,
    RunConfig,
    apply_env_overrides,
    run_scenario,
    validate_config,
)

_TINY_BASE = {
    "beta_list": "2^-8",
    "hbar_list": "0.5,1.0",
    "n_samples": "1200",
    "n_classical": "20000",
    "u_points": "64",
    "quantum_h": "0.08",
    "seed": "777",
    "workers": "1",
}


def tiny_text(**overrides):
    """Small-run configuration text with per-test overrides."""
    merged = {**_TINY_BASE, **{k: str(v) for k, v in overrides.items()}}
    return "\n".join(f"{k} = {v}" for k, v in merged.items()) + "\n"


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
        assert cfg.explicit_keys == ()

    def test_negative_beta_is_range_error(self):
        with pytest.raises(RangeError) as e:
            validate_config("beta_list = -1")
        assert "beta_list" in str(e.value)

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
        assert cfg.explicit_keys == ("sigma",)

    def test_workers_zero_resolves_to_cpu_count(self):
        cfg = validate_config("")
        assert cfg.resolved_workers() >= 1

    def test_signs_length_checked(self):
        with pytest.raises(RangeError):
            validate_config("signs = 1, -1")


class TestEnvOverrides:
    def test_env_overrides_file(self):
        cfg = validate_config("sigma = 0.2")
        out = apply_env_overrides(cfg, {"CHAOWORK_SIGMA": "0.3", "CHAOWORK_SEED": str(BIG_SEED)})
        assert out.sigma == 0.3
        assert out.seed == BIG_SEED
        assert set(out.explicit_keys) == {"sigma", "seed"}

    def test_env_range_checked(self):
        cfg = validate_config("")
        with pytest.raises(RangeError):
            apply_env_overrides(cfg, {"CHAOWORK_BETA_LIST": "-2"})

    def test_bad_env_value_names_variable(self):
        cfg = validate_config("")
        for var, raw in (("CHAOWORK_SEED", "abc"), ("CHAOWORK_N_SAMPLES", "1000.7")):
            with pytest.raises(ValueError) as e:
                apply_env_overrides(cfg, {var: raw})
            assert var in str(e.value)


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


class TestScenarioFig2:
    def test_truncation_surfaced_as_warning(self, tmp_path):
        # A deliberately small basis at beta = 2^-6 cannot cover the thermal
        # weight; the scenario completes and records the caveat.
        cfg = validate_config(
            tiny_text(
                out_dir=str(tmp_path),
                beta_list="2^-6",
                quantum_n_initial="25",
                quantum_n_final="60",
                n_samples="400",
            )
        )
        res = run_scenario(cfg, "fig2")
        assert res["report"]["warnings"], "expected a truncation warning"
        assert "beta" in res["report"]["warnings"][0]
        assert res["report"]["rows"][0]["quantum"] == "unavailable"
        names = {os.path.basename(p) for p in res["files"]}
        assert "semiclassical_workdist_beta2e-6.csv" in names

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

    def test_compare_command(self, tmp_path):
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

    def test_error_json_on_bad_config(self, tmp_path, capsys):
        cfgp = tmp_path / "bad.cfg"
        cfgp.write_text("beta_list = -3")
        rc = self.run_main(["classical", "--config", str(cfgp)])
        assert rc == 1
        err = capsys.readouterr().err.strip()
        payload = json.loads(err)
        assert payload["error"] == "RangeError"
        assert "beta_list" in payload["message"]

    def test_bad_flag_value_named(self, capsys):
        for flag in ("--beta", "--hbar"):
            assert self.run_main(["classical", flag, "abc"]) == 1
            payload = json.loads(capsys.readouterr().err.strip())
            assert flag in payload["message"]

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
            cfg.geometry(), cfg.potential(), cfg.beta_list[0], cfg.n_classical, cfg.seed
        )
        assert [float(v) for v in lines[2:]] == sample.values.tolist()

    def test_ensemble_dumped(self, command_runs):
        out_dir, _ = command_runs["semiclassical"]
        path = os.path.join(out_dir, "ensemble.csv")
        data = np.genfromtxt(path, delimiter=",", names=True, skip_header=1)
        cfg = validate_config(_CMD_CONFIG)
        ens = sampler.sample_ensemble(cfg.geometry(), cfg.beta_list[0], cfg.n_samples, cfg.seed)
        assert np.array_equal(np.column_stack([data["qx"], data["qy"]]), ens.qs)
        assert np.array_equal(np.column_stack([data["px"], data["py"]]), ens.ps)

    def test_every_csv_starts_with_manifest_hash(self, command_runs):
        for name, (out_dir, printed) in command_runs.items():
            with open(os.path.join(out_dir, "manifest.json")) as fh:
                head = f"# manifest_sha256={json.load(fh)['config_sha256']}\n"
            csvs = [p for p in printed["files"] if p.endswith(".csv")]
            assert csvs, name
            for p in csvs:
                with open(p) as fh:
                    assert fh.readline() == head, p

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
        for h in hbars:
            tag = cli._hbar_tag(float(h))
            shared = tmp_path / "f" / "fig4" / f"semiclassical_g_hbar{tag}.csv"
            alone = tmp_path / f"s{h}" / "semiclassical_g.csv"
            assert body(shared) == body(alone), h
            assert meta(shared) == meta(alone), h
