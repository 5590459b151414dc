import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cavmech import cli, propagate
from cavmech.cli import build_parser, main
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


class TestOutputPath:
    REPORT_ARGS = {
        "params": ["--config"],
        "nulls": [],
        "xi-asymptote": [],
        "validate": ["--draws", "60", "--config"],
    }

    @pytest.fixture
    def lossless_config(self, tmp_path):
        # a lossless cavity skips the transfer stage, so validate stays fast
        path = tmp_path / "lossless.cfg"
        path.write_text(CONFIG.replace("kappa = 0.2", "kappa = 0"))
        return str(path)

    def report_argv(self, command, config):
        extra = self.REPORT_ARGS[command]
        return [command] + extra + ([config] if extra and extra[-1] == "--config" else [])

    @pytest.mark.parametrize("command", sorted(REPORT_ARGS))
    def test_report_commands_reject_csv(self, command, lossless_config, capsys):
        with pytest.raises(SystemExit) as exc:
            main(self.report_argv(command, lossless_config) + ["--format", "csv"])
        assert exc.value.code == 2
        assert "argument --format: invalid choice: 'csv'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", sorted(REPORT_ARGS))
    def test_report_format_json_is_the_default(self, command, lossless_config, tmp_path, capsys):
        argv = self.report_argv(command, lossless_config)
        plain, explicit = tmp_path / "plain.json", tmp_path / "explicit.json"
        assert main(argv + ["--out", str(plain)]) == 0
        assert main(argv + ["--format", "json", "--out", str(explicit)]) == 0
        assert plain.read_bytes() == explicit.read_bytes()
        json.loads(plain.read_text())

    def test_validate_out_also_prints_the_report(self, lossless_config, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(self.report_argv("validate", lossless_config) + ["--out", str(out)]) == 0
        assert capsys.readouterr().out == out.read_text()

    @pytest.mark.parametrize("argv", [["params", "--config", "CONFIG"], ["fig1"]])
    def test_out_into_missing_directory(self, argv, config_file, tmp_path, capsys):
        argv = [config_file if a == "CONFIG" else a for a in argv]
        path = tmp_path / "missing" / "x.out"
        assert main(argv + ["--out", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write {path}: ")

    def test_readme_examples_parse(self):
        # every example line of the README parses and names a handler; nothing runs
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        blocks = re.findall(r"```sh\n(.*?)```", readme, re.S)
        lines = [line for block in blocks for line in block.splitlines() if line.startswith("cavmech ")]
        assert len(lines) >= 3
        for line in lines:
            args = build_parser().parse_args(shlex.split(line)[1:])
            assert callable(args.run), line


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

    @pytest.mark.parametrize("flag", [["--kappa", "5"], ["--omega-bar", "2"]])
    def test_config_excludes_collective_flags(self, flag, config_file, capsys):
        assert main(["nulls", "--config", config_file] + flag) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: nulls takes --config or --omega-bar/--kappa, not both\n"

    def test_wide_cavity_has_single_null(self, capsys):
        # so has a lossless one, whose sign changes at +-omega_bar are poles
        for kappa in ("3.0", "0"):
            assert main(["nulls", "--kappa", kappa]) == 0
            doc = json.loads(capsys.readouterr().out)
            assert doc["nulls"] == [0.0]
            assert not doc["interior_nulls_exist"]


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

    @pytest.mark.parametrize("command, kappas, message", [
        ("fig1", "0", "cavity decay values, all positive; got [0.0]"),
        ("fig1", "", "cavity decay values, all positive; got []"),
        ("fig2", "", "cavity decay values, all positive; got []"),
    ])
    def test_bad_decay_list_is_usage_error(self, command, kappas, message, tmp_path, capsys):
        out = tmp_path / "out.csv"
        assert main([command, f"--kappas={kappas}", "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


class TestSplittingChecks:
    @pytest.mark.parametrize("command", ["fig2", "xi-asymptote"])
    @pytest.mark.parametrize("delta_omega, message", [
        ("3", "collective coordinates imply a nonpositive mode frequency"),   # omega_2 = -0.5
        ("0", "the two mechanical modes must have distinct frequencies"),
    ])
    def test_bad_splitting_is_usage_error(self, command, delta_omega, message, capsys):
        assert main([command, "--delta-omega", delta_omega]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


class TestAsymptoteCommand:
    def test_report(self, capsys):
        assert main(["xi-asymptote", "--kappa", "2.0"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert abs(doc["measured_slope"] - 1.0) < 0.05
        assert doc["claimed_quadratic_slope"] == 2.0

    def test_zero_width_window_is_usage_error(self, capsys):
        assert main(["xi-asymptote", "--decades", "2", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: the fit window [100, 100] (decades 2 to 2) has zero width\n"
        # a reversed window is a window
        assert main(["xi-asymptote", "--decades", "4", "2"]) == 0

    @pytest.mark.parametrize("decades, message", [
        (("300", "400"), "the fit window [1e+300, inf] (decades 300 to 400) has an end point that is "
                         "not finite and positive"),
        (("100", "200"), "xi is not finite and positive on the fit window [1e+100, 1e+200] "
                         "(decades 100 to 200)"),
    ])
    def test_window_beyond_float_range_is_usage_error(self, decades, message, tmp_path, capsys):
        # 300 400 died with an OverflowError traceback; 100 200 wrote a NaN slope
        out = tmp_path / "xi.json"
        assert main(["xi-asymptote", "--decades", *decades, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"
        assert not out.exists()

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

    def test_repeated_config_key_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "twice.cfg"
        path.write_text(CONFIG + "kappa = 0.3\n")
        assert main(["params", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "'kappa' is already set on line" in captured.err


class TestEntangle:
    def test_summary_and_csv(self, config_file, tmp_path, capsys):
        out = tmp_path / "ent.csv"
        assert main(["entangle", "--config", config_file, "--squeezing", "1.0",
                     "--t-end", "150", "--stride", "2", "--out", str(out)]) == 0
        header = [line for line in out.read_text().splitlines()
                  if not line.startswith("#")][0]
        assert header == "t,n1,n2,EN,min_symp_eig"
        err = capsys.readouterr().err
        summary = json.loads(err)
        assert summary["regime"] in ("classical", "quantum", "unitary-limit")
        # the summary keeps its layout: sorted keys, two-space indent, one newline
        assert err == json.dumps(summary, indent=2, sort_keys=True) + "\n"
        assert list(summary) == ["max_log_negativity", "regime", "xi"]
        metadata = dict(line[2:].split(" = ", 1) for line in out.read_text().splitlines()
                        if line.startswith("# "))
        assert summary["max_log_negativity"] == float(metadata["max_log_negativity"])

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
