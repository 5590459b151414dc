import json
import math

import numpy as np
import pytest

from cavmech import analysis, cli, effective, elimination, gaussian
from cavmech.analysis import (
    Dataset,
    SweepGrid,
    check_rate_identities,
    check_reduction_agreement,
    coupling_curve_data,
    emit,
    params_report,
    regime_map,
    regime_map_dataset,
    render,
    validate,
    xi_asymptote,
    _loglog_fit,
)
from cavmech.effective import effective_params
from cavmech.model import ConfigError, frame_from_collective, parse_config_text
from conftest import assert_same_text

FAST_CONFIG = """
omega1 = 1.1
omega2 = 0.9
omega_c = 50
kappa = 0.2
omega_L1 = 46.9
alpha = 1.0
g1 = 0.12
g2 = 0.12
"""

UNITARY_CONFIG = FAST_CONFIG.replace("kappa = 0.2", "kappa = 0")


class TestCouplingCurves:
    def test_interior_zeros_annotated(self):
        ds = coupling_curve_data(1.0, [0.5, 3.0], (-3.0, 3.0, 241))
        root = math.sqrt(1 - 0.25 / 4)
        nulls_05 = [float(x) for x in ds.metadata["nulls_kappa_0.5"].split(";")]
        assert len(nulls_05) == 3
        assert nulls_05[2] == pytest.approx(root, abs=1e-9)
        nulls_3 = [float(x) for x in ds.metadata["nulls_kappa_3"].split(";")]
        assert nulls_3 == [0.0]

    def test_normalization_and_symmetry(self):
        ds = coupling_curve_data(1.0, [0.7], (-2.0, 2.0, 201))
        vals = ds.rows[:, 1]
        assert vals.max() == pytest.approx(1.0)
        assert vals == pytest.approx(vals[::-1], abs=1e-12)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            coupling_curve_data(1.0, [0.5], (-1.0, 1.0, 1))
        # a lossless decay would put poles at delta_bar = +-omega_bar
        for kappas in ([0.5, 0.0], [-1.0]):
            with pytest.raises(ValueError, match="all positive"):
                coupling_curve_data(1.0, kappas)
        with pytest.raises(ValueError, match=r"cavity decay values, all positive; got \[\]"):
            coupling_curve_data(1.0, [])


class TestRegimeMap:
    def test_zero_detuning_column_is_classical(self):
        grid = SweepGrid(delta_count=41, kappa_values=(0.3, 1.0, 10.0))
        rmap = regime_map(0.1, grid)
        col = np.argmin(np.abs(rmap.delta_bar))
        assert rmap.delta_bar[col] == 0.0
        assert all(rmap.labels[:, col] == "classical")
        assert rmap.xi[:, col] == pytest.approx(np.zeros(3), abs=1e-15)

    @pytest.mark.parametrize("dw", [0.1, 1.9])
    def test_boundary_exists(self, dw):
        rmap = regime_map(dw, SweepGrid(delta_count=201, kappa_values=(0.3, 1.0, 10.0)))
        assert rmap.boundary

    def test_quantum_onset_at_large_decay(self):
        rmap = regime_map(0.1, SweepGrid(delta_count=401, kappa_values=(10.0,)))
        onset = rmap.quantum_onset(10.0)
        assert onset is not None
        assert 0 < onset < 10.0

    def test_labels_match_xi(self):
        rmap = regime_map(0.4, SweepGrid(delta_count=101, kappa_values=(0.5, 2.0)))
        expected = np.where(rmap.xi <= 0.5, "classical", "quantum")
        assert (rmap.labels == expected).all()

    def test_thread_count_does_not_change_results(self):
        grid = SweepGrid(delta_count=161, kappa_values=(0.2, 1.0, 5.0))
        # the CLI accepts --threads and ignores it: every map is built in
        # one thread, and two builds agree byte for byte
        a = regime_map(0.1, grid)
        b = regime_map(0.1, grid)
        assert (a.xi == b.xi).all()
        assert a.boundary == b.boundary
        da = render(regime_map_dataset(a, 0.1), "csv")
        db = render(regime_map_dataset(b, 0.1), "csv")
        assert_same_text(da, db)

    def test_xi_matches_effective_params(self):
        # the map takes J in its pathway form, effective_params in its
        # complex form; the two agree to the last few bits
        rng = np.random.default_rng(17)
        for _ in range(200):
            dw = float(rng.uniform(0.05, 1.9))
            db = float(rng.uniform(-10.0, 10.0))
            kappa = float(np.exp(rng.uniform(np.log(0.01), np.log(10.0))))
            g1, g2 = (float(g) for g in np.exp(rng.uniform(np.log(0.01), np.log(0.2), 2)))
            fr = frame_from_collective(1.0, dw, db, kappa, g1, g2)
            grid = SweepGrid(delta_min=fr.delta_bar, delta_max=fr.delta_bar + 1.0,
                             delta_count=2, kappa_values=(fr.kappa,))
            rmap = regime_map(fr.delta_omega / fr.omega_bar, grid, omega_bar=fr.omega_bar,
                              G_1=fr.G_1, G_2=fr.G_2)
            assert rmap.delta_bar[0] == fr.delta_bar
            xi = effective_params(fr).xi
            assert abs(rmap.xi[0, 0] - xi) <= 1e-12 * xi

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            SweepGrid(delta_count=1)
        with pytest.raises(ValueError):
            SweepGrid(kappa_values=(0.0,))
        with pytest.raises(ValueError, match=r"cavity decay values, all positive; got \[\]"):
            SweepGrid(kappa_values=())


class TestAsymptote:
    def test_measured_slope_matches_prediction(self):
        report = xi_asymptote(kappa=1.0, delta_omega=0.2)
        assert abs(report["measured_slope"] - report["predicted_slope"]) < 0.05
        assert report["claimed_quadratic_slope"] == 2.0
        assert "quadratic" in report["metadata"]["note"]

    @pytest.mark.parametrize("kwargs", [dict(kappa=0.0), dict(kappa=-1.0), dict(kappa=math.nan),
                                        dict(G_1=0.1, G_2=-0.1)])
    def test_rejects_degenerate_inputs(self, kwargs):
        with pytest.raises(ValueError):
            xi_asymptote(**kwargs)

    def test_zero_width_window_rejected(self):
        with pytest.raises(ValueError, match=r"fit window \[100, 100\] \(decades 2 to 2\) has zero width"):
            xi_asymptote(decades=(2.0, 2.0))
        assert xi_asymptote(decades=(4.0, 2.0))["fit_window"] == [1e4, 1e2]

    @pytest.mark.parametrize("decades, message", [
        ((300.0, 400.0), r"\[1e\+300, inf\] \(decades 300 to 400\) has an end point that is not finite"),
        ((-400.0, -300.0), r"\[0, 1e-300\] \(decades -400 to -300\) has an end point that is not finite"),
        ((100.0, 200.0), r"xi is not finite and positive on the fit window \[1e\+100, 1e\+200\]"),
        ((-300.0, -200.0), r"xi is not finite and positive on the fit window \[1e-300, 1e-200\]"),
    ])
    def test_window_beyond_float_range_rejected(self, decades, message):
        # an overflowing end point raised OverflowError; an overflowing xi
        # gave a NaN slope after overflow warnings
        with pytest.raises(ValueError, match=message):
            xi_asymptote(decades=decades)

    @pytest.mark.parametrize("delta_omega, message", [(3.0, "nonpositive mode frequency"),
                                                      (0.0, "distinct frequencies")])
    def test_sweeps_check_the_splitting(self, delta_omega, message):
        with pytest.raises(ConfigError, match=message):
            xi_asymptote(delta_omega=delta_omega)
        with pytest.raises(ConfigError, match=message):
            regime_map(delta_omega, SweepGrid(delta_count=11, kappa_values=(1.0,)))

    def test_fit_recovers_pure_power_law(self):
        x = np.geomspace(1.0, 1e3, 50)
        slope, _, stderr = _loglog_fit(x, 3.7 * x**2)
        assert slope == pytest.approx(2.0, abs=1e-12)
        assert stderr < 1e-12

    def test_single_decade_window_same_estimate(self):
        x_wide = np.geomspace(1e2, 1e4, 60)
        x_narrow = np.geomspace(1e2, 1e3, 60)
        s_wide, _, e_wide = _loglog_fit(x_wide, 0.2 * x_wide**1.5)
        s_narrow, _, e_narrow = _loglog_fit(x_narrow, 0.2 * x_narrow**1.5)
        assert s_wide == pytest.approx(s_narrow, abs=1e-10)


class TestChecks:
    def test_reduction_agreement_sample(self):
        assert check_reduction_agreement(60, seed=5) < 1e-9

    @staticmethod
    def count_oracle_calls(monkeypatch):
        frames, calls = [], {"build": 0, "reduce": 0}

        def build(frame):
            calls["build"] += 1
            frames.append(frame)
            return elimination.build_coefficient_table(frame)

        def reduce(table):
            calls["reduce"] += 1
            return elimination.reduce_to_effective(table)

        monkeypatch.setattr(analysis, "build_coefficient_table", build)
        monkeypatch.setattr(analysis, "reduce_to_effective", reduce)
        return frames, calls

    def test_reduction_agreement_runs_the_oracle_once(self, monkeypatch):
        frames, calls = self.count_oracle_calls(monkeypatch)
        assert check_reduction_agreement(1000) < 1e-9
        assert calls == {"build": 1, "reduce": 1}
        assert frames[0].kappa.shape == (1000,)

    def test_reduction_agreement_draws_as_a_scalar_loop(self, monkeypatch):
        frames, _ = self.count_oracle_calls(monkeypatch)
        check_reduction_agreement(1000, seed=20240901)
        rng = np.random.default_rng(20240901)
        for i in range(1000):
            kappa = float(np.exp(rng.uniform(np.log(0.01), np.log(10.0))))
            db = float(rng.uniform(-10.0, 10.0))
            dw = float(rng.uniform(0.05, 1.9))
            g1 = float(np.exp(rng.uniform(np.log(0.01), np.log(0.2))))
            g2 = float(np.exp(rng.uniform(np.log(0.01), np.log(0.2))))
            fr = frames[0]
            assert (fr.kappa[i], fr.delta_bar[i], fr.delta_omega[i], fr.G_1[i], fr.G_2[i]) == (
                kappa, db, dw, g1, g2)

    def test_rate_identity_sample(self):
        out = check_rate_identities(2000, seed=6)
        assert out["worst_identity_rel"] < 1e-12
        assert out["worst_factorization_rel"] < 1e-12
        assert out["min_rate"] >= 0.0

    @pytest.mark.parametrize("check", [check_reduction_agreement, check_rate_identities])
    @pytest.mark.parametrize("n_draws", [0, -3])
    def test_checks_need_a_draw(self, check, n_draws):
        # a check over no draws would pass having checked nothing
        with pytest.raises(ValueError, match="at least 1"):
            check(n_draws)


class TestValidatePipeline:
    @pytest.mark.slow
    def test_all_stages_pass_on_fast_config(self):
        config = parse_config_text(FAST_CONFIG)
        from cavmech.fock import TransferProtocol
        protocol = TransferProtocol(t_end=150.0, dims=(4, 4, 4), truncation_tol=0.05)
        report = validate(config, transfer_protocol=protocol,
                          n_reduction_draws=150, verbose=True)
        assert report["all_passed"], json.dumps(report, indent=2)
        names = [s["name"] for s in report["stages"]]
        assert names == [
            "reduction-vs-closed-forms",
            "rate-pair-identities",
            "complete-positivity",
            "fock-vs-gaussian-effective",
            "transfer-rate-vs-closed-form",
        ]
        assert "dropped_terms" in report
        assert len(report["dropped_terms"]) == 208
        assert "validity_ratios" in report

    def test_unitary_config_skips_transfer_stage(self):
        config = parse_config_text(UNITARY_CONFIG)
        report = validate(config, n_reduction_draws=30)
        transfer = report["stages"][-1]
        assert transfer["skipped"]
        assert "lossless" in transfer["detail"]
        engine = report["stages"][3]
        assert "unitary" in engine["detail"]
        assert report["all_passed"]

    def test_nan_rates_fail_the_identity_and_positivity_stages(self, monkeypatch):
        # with the builtin max/min a NaN rate read as worst_identity_rel 0
        # and min_rate inf, and both stages passed
        def nan_pair(*args):
            down, up = (a.copy() for a in effective._lorentzian_pair(*args))
            down[0] = up[1] = math.nan
            return down, up

        monkeypatch.setattr(analysis, "_lorentzian_pair", nan_pair)
        stages = validate(parse_config_text(UNITARY_CONFIG), n_reduction_draws=30)["stages"]
        for stage in stages[1:3]:
            assert not stage["passed"] and stage["measured"] is None, stage["name"]
        assert stages[0]["passed"] and stages[3]["passed"]

    def test_nan_record_fails_the_engine_stage(self, monkeypatch):
        # with the builtin max a NaN n2 record was dropped and the stage passed
        def nan_record(*args, **kwargs):
            traj = gaussian.evolve_covariance(*args, **kwargs)
            traj.occupations[3, 1] = math.nan
            return traj

        monkeypatch.setattr(analysis, "evolve_covariance", nan_record)
        report = validate(parse_config_text(UNITARY_CONFIG), n_reduction_draws=30)
        engine = report["stages"][3]
        assert not engine["passed"] and engine["measured"] is None
        assert not report["all_passed"]


class TestEmission:
    def make_dataset(self):
        return Dataset(
            columns=["a", "b"],
            rows=np.array([[1.0, 2.5], [math.pi, 1e-7]]),
            metadata={"version": "x", "config_hash": "abc"},
        )

    def test_csv_byte_determinism(self, tmp_path):
        ds = self.make_dataset()
        p1, p2 = tmp_path / "one.csv", tmp_path / "two.csv"
        emit(ds, "csv", p1)
        emit(ds, "csv", p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_csv_json_value_equality(self, tmp_path):
        ds = self.make_dataset()
        emit(ds, "csv", tmp_path / "d.csv")
        emit(ds, "json", tmp_path / "d.json")
        csv_lines = (tmp_path / "d.csv").read_text().splitlines()
        data_rows = [line for line in csv_lines if not line.startswith("#")][1:]
        csv_vals = [[float(x) for x in row.split(",")] for row in data_rows]
        doc = json.loads((tmp_path / "d.json").read_text())
        assert csv_vals == doc["rows"]

    def test_round_trip_precision(self):
        ds = self.make_dataset()
        text = render(ds, "csv")
        value = text.splitlines()[-1].split(",")[0]
        assert float(value) == math.pi

    def test_header_metadata_present(self):
        text = render(self.make_dataset(), "csv")
        assert "# config_hash = abc" in text
        assert text.splitlines()[2] == "a,b"

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            render(self.make_dataset(), "yaml")

    def test_write_failure_has_path_context(self, tmp_path):
        with pytest.raises(OSError, match="cannot write"):
            emit(self.make_dataset(), "csv", tmp_path / "missing_dir" / "x.csv")

    def test_report_is_json_only(self, tmp_path):
        report = {"b": [1.0, None], "a": "x"}
        assert render(report, "json") == json.dumps(report, indent=2, sort_keys=True) + "\n"
        with pytest.raises(ValueError, match="only as json"):
            render(report, "csv")
        emit(report, "json", tmp_path / "r.json")
        assert (tmp_path / "r.json").read_text() == render(report, "json")
        with pytest.raises(OSError, match="cannot write"):
            emit(report, "json", tmp_path / "missing_dir" / "r.json")

    def test_row_width_checked(self):
        with pytest.raises(ValueError):
            Dataset(columns=["a"], rows=np.array([[1.0, 2.0]]))
        # one row of no fields is not an empty table
        with pytest.raises(ValueError):
            Dataset(columns=["a", "b"], rows=[[]])

    def test_empty_dataset_renders_header_only(self):
        # an empty row list once became one row of no fields: a blank CSV
        # line and "rows": [[]]
        ds = Dataset(columns=["a", "b"], rows=[])
        assert ds.rows.shape == (0, 2)
        assert render(ds, "csv") == "a,b\n"
        assert json.loads(render(ds, "json"))["rows"] == []


def reference_render(columns, rows, metadata, fmt):
    """``render`` written out value by value, as the reference for its bytes."""
    if fmt == "csv":
        lines = [f"# {k} = {v}" for k, v in sorted(metadata.items())] + [",".join(columns)]
        lines += [",".join("{:.16e}".format(x) for x in row) for row in rows]
        return "\n".join(lines) + "\n"
    doc = {
        "metadata": dict(sorted(metadata.items())),
        "columns": columns,
        "rows": [[float(format(x, ".16e")) for x in row] for row in rows],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


EDGE_VALUES = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324,
               1.7976931348623157e308, -1.7976931348623157e308, math.pi, 1e-7, -2.5]


class TestRenderReference:
    TABLES = {
        "edge-values": (["a", "b", "c"], [EDGE_VALUES[i:i + 3] for i in range(0, 12, 3)]),
        "one-column": (["x"], [[v] for v in EDGE_VALUES]),
        "one-row": (["p", "q"], [[math.nan, -0.0]]),
        "no-rows": (["a", "b"], []),
    }

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("name", sorted(TABLES))
    def test_small_tables(self, name, fmt):
        columns, rows = self.TABLES[name]
        md = {"version": "x", "note": "a % sign"}
        assert_same_text(render(Dataset(columns, rows, md), fmt),
                         reference_render(columns, rows, md, fmt))

    @pytest.mark.parametrize("argv", [["fig1"], ["fig2"], ["entangle", "--t-end", "5"]],
                             ids=["fig1", "fig2", "entangle"])
    def test_command_tables(self, argv, tmp_path, monkeypatch, capsys):
        config = tmp_path / "system.cfg"
        config.write_text(FAST_CONFIG)
        captured = []
        monkeypatch.setattr(cli, "_output", lambda result, args: captured.append(result))
        extra = ["--config", str(config)] if argv[0] == "entangle" else []
        assert cli.main(argv + extra) == 0
        (ds,) = captured
        rows = ds.rows.tolist()
        for fmt in ("csv", "json"):
            assert_same_text(render(ds, fmt), reference_render(ds.columns, rows, ds.metadata, fmt))

    def test_regime_map_rows_match_a_per_point_construction(self):
        kappa = np.array([0.3, 1.0, 10.0])
        delta_bar = np.array([-1.0, 0.0, 0.5, 2.0])
        xi = np.array([[0.1, 0.5, math.nan, 0.7],
                       [np.nextafter(0.5, 1.0), 0.0, 0.5, math.inf],
                       [np.nextafter(0.5, 0.0), 3.0, -0.0, 0.49]])
        rmap = analysis.RegimeMap(delta_bar=delta_bar, kappa=kappa, xi=xi,
                                  labels=np.where(xi <= 0.5, "classical", "quantum"),
                                  boundary=[(1.0, 0.25)])
        expected = [[k, d, xi[i, j], 1.0 if xi[i, j] <= 0.5 else 0.0]
                    for i, k in enumerate(kappa) for j, d in enumerate(delta_bar)]
        rows = regime_map_dataset(rmap, 0.1).rows
        assert rows.shape == (12, 4)
        np.testing.assert_array_equal(rows, np.array(expected))
        # xi exactly 1/2 is classical, NaN is not
        assert rows[1, 3] == 1.0 and rows[2, 3] == 0.0


class TestParamsReport:
    def test_structure_and_classification(self):
        config = parse_config_text(FAST_CONFIG)
        doc = params_report(config)
        assert doc["classification"]["regime"] in ("classical", "quantum")
        assert set(doc["effective"]["rate_table"]) == {"1", "2", "collective"}
        assert doc["metadata"]["config_hash"]
        assert doc["frame"]["delta_bar"] == pytest.approx(3.0, abs=1e-9)

    def test_unitary_limit_reported_as_label(self):
        doc = params_report(parse_config_text(UNITARY_CONFIG))
        assert doc["classification"]["xi"] is None
        assert doc["classification"]["regime"] == "unitary-limit"
