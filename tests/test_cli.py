"""Command-line interface: determinism, exit codes, config handling."""

import json

import numpy as np
import pytest

from isoshift.cli import main


def _read_csv(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    data = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    return header, data


class TestCatalog:
    def test_json_output(self, capsys):
        assert main(["catalog", "radial_oscillator", "--omega", "2", "--ell", "1"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["family"] == "radial_oscillator"
        rows = {r["k"]: r for r in out["branches"]}
        assert rows[1]["a"] == -2.0 and rows[1]["b"] == 2.0
        assert rows[2]["susy_kind"] == "broken"
        assert rows[1]["factorization_energy"] == pytest.approx(2 * 2.5)

    def test_text_output(self, capsys):
        assert main(["catalog", "trig_dpt", "--A", "1", "--B", "2", "--format", "csv"]) == 0
        text = capsys.readouterr().out
        assert "susy_kind" in text

    def test_unknown_family_is_usage_error(self, capsys):
        with pytest.raises(SystemExit):
            main(["catalog", "bogus"])


class TestExtend:
    def test_deterministic_output(self, tmp_path):
        args = [
            "extend", "--omega", "2", "--ell", "1", "--branch", "2",
            "--m", "1", "--nmax", "2", "--grid-points", "80",
        ]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        name = "extend_radial_oscillator_b2_m1.csv"
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_m0_columns_identical(self, tmp_path):
        out = tmp_path / "o"
        assert main([
            "extend", "--branch", "2", "--m", "0", "--nmax", "0",
            "--grid-points", "80", "--out", str(out),
        ]) == 0
        header, data = _read_csv(out / "extend_radial_oscillator_b2_m0.csv")
        i, j = header.index("V_minus"), header.index("V_tilde_minus")
        assert np.array_equal(data[:, i], data[:, j])
        sidecar = json.loads((out / "extend_radial_oscillator_b2_m0.json").read_text())
        assert sidecar["shift"] == 0.0

    def test_singular_extension_warns_and_succeeds(self, tmp_path, capsys):
        out = tmp_path / "o"
        code = main([
            "extend", "--omega", "1", "--ell", "0.2", "--branch", "1",
            "--m", "1", "--nmax", "1", "--grid-points", "60", "--out", str(out),
        ])
        assert code == 0
        err = capsys.readouterr().err
        assert "singular" in err
        header, _ = _read_csv(out / "extend_radial_oscillator_b1_m1.csv")
        assert not any(h.startswith("psi_") for h in header)
        sidecar = json.loads((out / "extend_radial_oscillator_b1_m1.json").read_text())
        assert sidecar["singular_points"]


class TestInterpolate:
    def test_matches_polynomial_seed(self, tmp_path):
        out_i = tmp_path / "i"
        out_e = tmp_path / "e"
        common = ["--omega", "1", "--ell", "1", "--branch", "2",
                  "--grid-points", "60", "--rmax", "8"]
        assert main(["interpolate", "--R", "2.0", "--out", str(out_i)] + common) == 0
        assert main(["extend", "--m", "1", "--nmax", "0", "--out", str(out_e)] + common) == 0
        _, di = _read_csv(out_i / "interpolate.csv")
        he, de = _read_csv(out_e / "extend_radial_oscillator_b2_m1.csv")
        col = he.index("V_tilde_minus")
        assert np.max(np.abs(di[:, 1] - de[:, col])) <= 1e-7
        meta = json.loads((out_i / "interpolate.json").read_text())
        assert meta["columns"][0]["singular"] is False

    def test_missing_R_is_config_error(self, tmp_path):
        assert main(["interpolate", "--out", str(tmp_path / "x")]) == 2


class TestConfig:
    def test_config_file_supplies_values(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"omega": 2.0, "ell": 1.0}))
        assert main(["catalog", "radial_oscillator", "--config", str(cfg)]) == 0
        out = json.loads(capsys.readouterr().out)
        rows = {r["k"]: r for r in out["branches"]}
        assert rows[1]["b"] == 2.0

    def test_explicit_flag_overrides_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"omega": 2.0}))
        assert main([
            "catalog", "radial_oscillator", "--config", str(cfg), "--omega", "3",
        ]) == 0
        out = json.loads(capsys.readouterr().out)
        rows = {r["k"]: r for r in out["branches"]}
        assert rows[1]["b"] == 3.0

    def test_bad_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        assert main(["catalog", "radial_oscillator", "--config", str(cfg)]) == 2
        cfg.write_text(json.dumps({"no_such_key": 1}))
        assert main(["catalog", "radial_oscillator", "--config", str(cfg)]) == 2

    def test_invalid_m_exits_2(self, tmp_path):
        assert main(["extend", "--m", "-2", "--out", str(tmp_path / "x")]) == 2


class TestCertify:
    def test_small_run_passes(self, tmp_path, capsys):
        code = main([
            "certify", "--omega", "2", "--ell", "1", "--branches", "2",
            "--m", "0", "1", "--nmax", "2", "--grid-points", "1500",
        ])
        out = capsys.readouterr().out
        assert code == 0
        report = json.loads(out)
        assert report["status"] == "pass"
        assert report["w0"][0]["minus_partner_residual"] <= 1e-9

    def test_gram_cell_reports_quadrature_error(self, capsys):
        code = main([
            "certify", "--omega", "1", "--ell", "1", "--branches", "1",
            "--m", "2", "--nmax", "3", "--skip-spectral",
        ])
        cell = json.loads(capsys.readouterr().out)["cells"][0]
        assert code == 0
        assert cell["gram_offdiag_max"] <= 1e-8
        assert 0.0 <= cell["gram_quadrature_error"] <= 1e-12

    def test_cell_scans_its_seed_once(self, monkeypatch, capsys):
        from isoshift import deform, eop

        seeds = []
        real_seed = deform.seed_polynomial

        def counting_seed(family, branch, m):
            seeds.append((branch, m))
            return real_seed(family, branch, m)

        def no_rescan(*args, **kwargs):
            raise AssertionError("the Gram rescanned the seed zeros")

        monkeypatch.setattr(deform, "seed_polynomial", counting_seed)
        monkeypatch.setattr(eop, "weight_spec", no_rescan)
        code = main([
            "certify", "--omega", "1", "--ell", "1", "--branches", "1",
            "--m", "2", "--nmax", "3", "--skip-spectral",
        ])
        cell = json.loads(capsys.readouterr().out)["cells"][0]
        assert code == 0
        assert seeds.count((1, 2)) == 1
        assert cell["regularity"] == "regular" and cell["gram_offdiag_max"] <= 1e-8

    def test_singular_cell_skips_gram_and_passes(self, tmp_path, capsys):
        code = main([
            "certify", "--omega", "1", "--ell", "0.2", "--branches", "1",
            "--m", "1", "--skip-spectral", "--out", str(tmp_path / "r"),
        ])
        out = capsys.readouterr().out
        assert code == 0
        report = json.loads(out)
        cell = report["cells"][0]
        assert cell["regularity"] == "singular"
        assert str(cell["gram_offdiag_max"]).startswith("skipped")
        assert "finding" in cell
        assert (tmp_path / "r" / "certify.json").exists()


class TestRobustness:
    """Bad input exits 2 with a one-line error, never a traceback."""

    def _exit_code(self, capsys, argv):
        code = main(argv)
        captured = capsys.readouterr()
        assert "Traceback" not in captured.out + captured.err
        return code, captured.err

    def test_resonant_frobenius_series(self, tmp_path, capsys):
        code, err = self._exit_code(capsys, [
            "interpolate", "--ell", "0.5", "--branch", "1", "--R", "1",
            "--out", str(tmp_path / "x"),
        ])
        assert code == 2
        assert err.startswith("error:") and "resonant" in err

    def test_config_values_go_through_the_flag_types(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        for bad in ({"omega": "abc"}, {"m": [1, 2.5]}, {"nmax": True},
                    {"skip_gram": "yes"}, {"family": "bogus"}, {"m": []}):
            cfg.write_text(json.dumps(bad))
            code, err = self._exit_code(capsys, ["certify", "--config", str(cfg)])
            assert code == 2, bad
            assert err.startswith("error:")
        cfg.write_text(json.dumps({"omega": "2", "m": [1]}))
        code, _ = self._exit_code(capsys, [
            "certify", "--config", str(cfg), "--branches", "2", "--skip-spectral",
        ])
        assert code == 0

    @pytest.mark.parametrize("argv", [
        ["catalog", "trig_dpt", "--A", "inf"],
        ["catalog", "radial_oscillator", "--ell=-inf"],
        ["certify", "--omega", "nan"],
        ["certify", "--family", "trig_dpt", "--B", "nan"],
    ])
    def test_non_finite_parameters(self, capsys, argv):
        code, err = self._exit_code(capsys, argv)
        assert code == 2
        assert "finite" in err

    @pytest.mark.parametrize("command", ["extend", "interpolate"])
    def test_negative_grid_points(self, tmp_path, capsys, command):
        argv = [command, "--grid-points", "-3", "--out", str(tmp_path / "x")]
        if command == "interpolate":
            argv += ["--R", "1"]
        code, err = self._exit_code(capsys, argv)
        assert code == 2
        assert err.startswith("error:") and "grid_points" in err
