import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cavmech import cli, propagate
from cavmech.cli import main
from cavmech.gaussian import PhysicalityError

CONFIG = """
omega1 = 1.1
omega2 = 0.9
omega_c = 50
kappa = 0.2
omega_L1 = 46.9
alpha = 1.0
g1 = 0.12
g2 = 0.12
"""


# the example config printed in the README
README_CONFIG = """
omega1   = 1.1
omega2   = 0.9
omega_c  = 200
kappa    = 0.1
omega_L1 = 194.9
alpha    = 1.0
g1       = 0.05
g2       = 0.05
"""


# the README example config with its comments, and the SHA-256 of each
# closed-form output on it as written by the seed code; these outputs stay
# byte-identical across refactors
README_CONFIG_COMMENTED = """\
omega1   = 1.1      # mechanical frequencies
omega2   = 0.9
omega_c  = 200      # cavity frequency
kappa    = 0.1      # cavity decay
omega_L1 = 194.9    # first pump tone (the second is derived)
alpha    = 1.0      # intracavity displacement (real)
g1       = 0.05    # single-photon couplings
g2       = 0.05
"""

RECORDED_DIGESTS = {
    "params": "388deec9c952454823edf7966a021b01bb24c4869f154d88986ca85119d68867",
    "nulls": "5c583376dced6e618f0a27e5e84d79c5e8e02bd4e2e6e2e380b1fb04d7158348",
    "fig1": "b2acfa8fd48d5d06487964a888193712e2d449aa648bcbf280397b17e3244036",
    "fig2": "d284de14c4b40d3c883b88b6b2430e12ad4eab03e3168c9335801436fe0527a5",
    "xi-asymptote": "d5ac4d7b52ba3bcf68f08f96199dcedd74042870c1fc3a83e9d35fc9b03f8aea",
}


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "system.cfg"
    path.write_text(CONFIG)
    return str(path)


@pytest.fixture
def readme_config(tmp_path):
    path = tmp_path / "readme.cfg"
    path.write_text(README_CONFIG)
    return str(path)


class TestParams:
    def test_report_written(self, config_file, tmp_path, capsys):
        out = tmp_path / "params.json"
        assert main(["params", "--config", config_file, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["classification"]["regime"] in ("classical", "quantum")

    def test_missing_config_is_usage_error(self, capsys):
        assert main(["params"]) == 2
        assert "requires --config" in capsys.readouterr().err

    def test_bad_config_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("omega1 = nope")
        assert main(["params", "--config", str(bad)]) == 2


class TestRecordedOutputs:
    @pytest.mark.parametrize("command", sorted(RECORDED_DIGESTS))
    def test_closed_form_output_digest(self, command, tmp_path, capsys):
        config = tmp_path / "system.cfg"
        config.write_text(README_CONFIG_COMMENTED)
        out = tmp_path / "out"
        argv = [command] + (["--config", str(config)] if command in ("params", "nulls") else [])
        assert main(argv + ["--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == RECORDED_DIGESTS[command]
        # without --out the same bytes go to stdout
        assert main(argv) == 0
        assert capsys.readouterr().out == out.read_text()


class TestStartup:
    def test_cli_import_leaves_scipy_unloaded(self):
        # the closed-form commands use numpy only; scipy is imported inside
        # the engine functions that need it
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        code = "import sys, cavmech.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                             check=True, timeout=60)
        assert out.stdout.strip() == "[]"


class TestNulls:
    def test_collective_flags(self, capsys):
        assert main(["nulls", "--kappa", "1.0"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["interior_nulls_exist"]
        assert doc["nulls"][2] == pytest.approx(np.sqrt(3) / 2, abs=1e-9)

    def test_wide_cavity_has_single_null(self, capsys):
        assert main(["nulls", "--kappa", "3.0"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["nulls"] == [0.0]


class TestCurves:
    def test_fig1_csv(self, tmp_path):
        out = tmp_path / "curves.csv"
        assert main(["fig1", "--kappas", "0.5,3", "--delta-range=-2:2:81",
                     "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        header = [line for line in lines if not line.startswith("#")][0]
        assert header == "delta_bar,absJ_norm_kappa_0.5,absJ_norm_kappa_3"

    def test_fig2_deterministic_across_runs_and_threads(self, tmp_path):
        args = ["fig2", "--delta-omega", "0.1", "--kappas", "0.3,1,10",
                "--delta-range=-10:10:101"]
        paths = []
        for name, threads in (("a", "1"), ("b", "1"), ("c", "8")):
            out = tmp_path / f"{name}.csv"
            assert main(args + ["--threads", threads, "--out", str(out)]) == 0
            paths.append(out.read_bytes())
        assert paths[0] == paths[1] == paths[2]

    def test_fig2_json_matches_csv_values(self, tmp_path):
        base = ["fig2", "--delta-omega", "0.1", "--kappas", "1",
                "--delta-range=-2:2:21"]
        csv_out = tmp_path / "m.csv"
        json_out = tmp_path / "m.json"
        assert main(base + ["--out", str(csv_out)]) == 0
        assert main(base + ["--format", "json", "--out", str(json_out)]) == 0
        rows = [[float(x) for x in line.split(",")]
                for line in csv_out.read_text().splitlines()
                if line and not line.startswith("#") and not line[0].isalpha()]
        doc = json.loads(json_out.read_text())
        assert rows == doc["rows"]

    def test_bad_range_is_usage_error(self, capsys):
        assert main(["fig1", "--delta-range", "oops"]) == 2


class TestAsymptoteCommand:
    def test_report(self, capsys):
        assert main(["xi-asymptote", "--kappa", "2.0"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert abs(doc["measured_slope"] - 1.0) < 0.05
        assert doc["claimed_quadratic_slope"] == 2.0

    @pytest.mark.parametrize("kappa", ["0", "-1"])
    def test_nonpositive_kappa_is_usage_error(self, kappa, capsys):
        assert main(["xi-asymptote", "--kappa", kappa]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and "kappa must be positive" in captured.err


class TestSimulate:
    def test_effective_trajectory_csv(self, config_file, tmp_path):
        out = tmp_path / "traj.csv"
        assert main(["simulate-effective", "--config", config_file,
                     "--t-end", "50", "--dims", "5,5", "--stride", "10",
                     "--truncation-tol", "0.05", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        header = [line for line in lines if not line.startswith("#")][0]
        assert header == "t,n1,n2,n_cav,re_coh,im_coh,trace,trunc_monitor"
        first = [line for line in lines if not line.startswith("#")][1].split(",")
        assert float(first[1]) == pytest.approx(1.0)   # starts in |1, 0>

    def test_full_trajectory_runs(self, config_file, tmp_path):
        out = tmp_path / "full.csv"
        assert main(["simulate-full", "--config", config_file,
                     "--t-end", "5", "--dims", "3,3,3",
                     "--truncation-tol", "0.05", "--out", str(out)]) == 0
        assert out.exists()

    def test_kernel_abort_exits_1(self, config_file, monkeypatch, capsys):
        def abort(*args, **kwargs):
            raise propagate.StepControlError("the next step would fall below the finest step")

        monkeypatch.setattr(propagate, "dopri5", abort)
        assert main(["simulate-full", "--config", config_file, "--t-end", "5", "--dims", "3,3,3"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: the next step would fall below the finest step\n"

    def test_dims_mismatch_is_usage_error(self, config_file, capsys):
        assert main(["simulate-full", "--config", config_file, "--dims", "3,3"]) == 2

    @pytest.mark.parametrize("args", [
        ["simulate-effective", "--stride", "0"],
        ["simulate-effective", "--t-end", "-1"],
        ["simulate-effective", "--dt", "-1"],
        ["simulate-effective", "--dt", "0"],
        ["validate", "--draws", "0"],
    ])
    def test_bad_numbers_are_usage_errors(self, config_file, capsys, args):
        assert main(args + ["--config", config_file]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("args", [
        ["simulate-effective"],
        ["simulate-full", "--t-end", "2"],
    ])
    def test_readme_config_with_default_dims(self, readme_config, tmp_path, args):
        out = tmp_path / "traj.csv"
        assert main(args + ["--config", readme_config, "--out", str(out)]) == 0
        last = out.read_text().splitlines()[-1].split(",")
        assert float(last[-1]) < 1e-3   # top-level population within the default guard
        t_end = float(args[args.index("--t-end") + 1]) if "--t-end" in args else 100.0
        assert float(last[0]) == pytest.approx(t_end, rel=1e-12)   # the last record is at --t-end


class TestNonFiniteInput:
    @pytest.mark.parametrize("args", [
        ["simulate-effective", "--t-end", "inf"],
        ["entangle", "--t-end", "inf"],
        ["validate", "--transfer-t-end", "inf"],
        ["nulls", "--kappa", "nan"],
    ])
    def test_non_finite_flag_is_usage_error(self, config_file, capsys, args):
        config = ["--config", config_file] if args[0] != "nulls" else []
        with pytest.raises(SystemExit) as exc:
            main(args + config)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: argument {args[1]}: expected a finite number" in captured.err

    @pytest.mark.parametrize("args", [
        ["fig1", "--kappas", "0.5,nan"],
        ["fig2", "--delta-range=-inf:3:11"],
    ])
    def test_non_finite_list_entry_is_usage_error(self, capsys, args):
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: bad ")

    def test_non_finite_config_value_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "nan.cfg"
        path.write_text(CONFIG.replace("kappa = 0.2", "kappa = nan"))
        assert main(["params", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "'kappa' must be a finite number" in captured.err


class TestEntangle:
    def test_summary_and_csv(self, config_file, tmp_path, capsys):
        out = tmp_path / "ent.csv"
        assert main(["entangle", "--config", config_file, "--squeezing", "1.0",
                     "--t-end", "150", "--stride", "2", "--out", str(out)]) == 0
        header = [line for line in out.read_text().splitlines()
                  if not line.startswith("#")][0]
        assert header == "t,n1,n2,EN,min_symp_eig"
        summary = json.loads(capsys.readouterr().err)
        assert summary["regime"] in ("classical", "quantum", "unitary-limit")

    @pytest.mark.parametrize("args", [[], ["--t-end", "100"]])
    def test_readme_config_last_row_at_t_end(self, readme_config, tmp_path, args):
        out = tmp_path / "ent.csv"
        assert main(["entangle", "--config", readme_config, "--out", str(out)] + args) == 0
        last = out.read_text().splitlines()[-1].split(",")
        t_end = float(args[-1]) if args else 500.0
        assert float(last[0]) == pytest.approx(t_end, rel=1e-12)

    def test_physicality_abort_exits_1(self, config_file, monkeypatch, capsys):
        def unphysical(*args, **kwargs):
            raise PhysicalityError("covariance defect -2.000e-06 at t=3 beyond 1e-06")

        monkeypatch.setattr(cli, "entanglement_experiment", unphysical)
        assert main(["entangle", "--config", config_file]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: covariance defect -2.000e-06 at t=3 beyond 1e-06\n"


class TestValidateCommand:
    def test_lossless_config_passes_with_skip(self, tmp_path, capsys):
        # lossless cavity: the transfer stage is skipped, which keeps this
        # a wiring test; the full pipeline runs in test_analysis
        path = tmp_path / "lossless.cfg"
        path.write_text(CONFIG.replace("kappa = 0.2", "kappa = 0"))
        code = main(["validate", "--config", str(path), "--draws", "60"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0, doc
        assert doc["all_passed"]
        assert doc["stages"][-1]["skipped"]
