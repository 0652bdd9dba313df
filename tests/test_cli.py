"""Command-line interface: determinism, exit codes, config handling."""

import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import isoshift
from isoshift.cli import main


def _read_csv(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    data = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    return header, data


def test_import_loads_no_integrator(tmp_path):
    # scipy.integrate, and the optimize and sparse packages it pulls in,
    # load only where a call integrates (the weight quad); an interpolate
    # run sums its seed's series
    probe = (
        "import sys, isoshift.cli\n"
        "assert isoshift.cli.main(['interpolate', '--R', '-3', '2.5', '--out', sys.argv[1]]) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[:2] in "
        "(['scipy', 'integrate'], ['scipy', 'optimize'], ['scipy', 'sparse'])))"
    )
    src = str(Path(isoshift.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-c", probe, str(tmp_path)], cwd=src, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    assert out.strip() == "[]"
    assert (tmp_path / "interpolate.json").exists()


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

    def test_config_does_not_carry_into_the_next_run(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"omega": 2.0, "m": [2], "skip_gram": True}))
        argv = ["certify", "--branches", "2", "--skip-spectral"]
        assert main(argv + ["--config", str(cfg)]) == 0
        first = json.loads(capsys.readouterr().out)
        assert first["params"]["omega"] == 2.0
        assert [c["m"] for c in first["cells"]] == [2]
        assert main(argv) == 0
        second = json.loads(capsys.readouterr().out)
        assert second["params"]["omega"] == 1.0
        assert [c["m"] for c in second["cells"]] == [0, 1, 2]
        assert isinstance(second["cells"][1]["gram_offdiag_max"], float)

    def test_invalid_m_exits_2(self, tmp_path):
        assert main(["extend", "--m", "-2", "--out", str(tmp_path / "x")]) == 2

    def test_abbreviated_flag_is_refused(self, tmp_path, capsys):
        # an abbreviation would escape the explicit-flag scan, and the
        # config's omega would win over the command line's
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"omega": 3.0}))
        with pytest.raises(SystemExit) as exc:
            main(["certify", "--om", "2", "--config", str(cfg), "--branches", "2",
                  "--m", "0", "--skip-spectral"])
        assert exc.value.code == 2
        assert main(["certify", "--omega", "2", "--config", str(cfg), "--branches", "2",
                     "--m", "0", "--skip-spectral"]) == 0
        assert json.loads(capsys.readouterr().out)["params"]["omega"] == 2.0

    def test_positional_family_overrides_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"family": "trig_dpt"}))
        assert main(["catalog", "radial_oscillator", "--config", str(cfg)]) == 0
        assert json.loads(capsys.readouterr().out)["family"] == "radial_oscillator"

    @pytest.mark.parametrize("argv", [
        ["catalog", "radial_oscillator", "--rmax", "3"],
        ["catalog", "radial_oscillator", "--grid-points", "50"],
        ["extend", "--format", "csv"],
        ["certify", "--format", "csv"],
        ["certify", "--rmax", "3"],
        ["interpolate", "--R", "1", "--format", "csv"],
    ])
    def test_flag_a_subcommand_does_not_read_exits_2(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    def test_config_key_a_subcommand_does_not_read_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        for key, value in (("format", "csv"), ("rmax", 3.0)):
            cfg.write_text(json.dumps({key: value}))
            assert main(["certify", "--config", str(cfg)]) == 2
            assert "unknown config key" in capsys.readouterr().err


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

    def test_empty_certification_grid_is_a_failed_cell(self, capsys):
        # every seed zero is padded out, so no certification sample is left
        code = main([
            "certify", "--family", "trig_dpt", "--A", "0.5", "--B", "2.5",
            "--branches", "4", "--m", "4",
        ])
        captured = capsys.readouterr()
        assert code == 1
        assert "Traceback" not in captured.err
        report = json.loads(captured.out)
        assert report["status"] == "fail"
        assert report["cells"][0]["error"].startswith("SingularExtensionError")
        assert report["failures"] == [f"branch 4 m=4: {report['cells'][0]['error']}"]

    def test_raising_cell_keeps_the_report(self, capsys):
        # branch 2, m=4 violates the partner-shift identity; the others pass
        code = main([
            "certify", "--family", "trig_dpt", "--A", "2.5", "--B", "0.45",
            "--branches", "1", "2", "--m", "3", "4",
        ])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("FAILED: branch 2 m=4: InternalInconsistencyError")
        report = json.loads(captured.out)
        cells = {(c["branch"], c["m"]): c for c in report["cells"]}
        assert list(cells) == [(1, 3), (1, 4), (2, 3), (2, 4)]
        assert cells[(2, 4)]["error"].startswith("InternalInconsistencyError")
        assert all("error" not in cells[key] for key in [(1, 3), (1, 4), (2, 3)])
        assert len(report["failures"]) == 1

    @pytest.mark.parametrize("family, distinct", [("trig_dpt", 4), ("radial_oscillator", 11)])
    def test_identical_fd_solves_run_once(self, monkeypatch, capsys, family, distinct):
        from isoshift import cli, spectral

        solves = []
        real_solve = spectral.solve_bound_states

        def counting_solve(*args):
            solves.append(args)
            return real_solve(*args)

        def run():
            solves.clear()
            assert main(["certify", "--family", family]) == 0
            # every byte but the timings
            return len(solves), re.sub(r'"wall_time_s": [^,\n]*', "", capsys.readouterr().out)

        monkeypatch.setattr(spectral, "solve_bound_states", counting_solve)
        memoized = run()
        monkeypatch.setattr(cli, "_solve", lambda memo, V, grid, k: counting_solve(V, grid, k))
        assert memoized == (distinct, run()[1])
        # 9 cells, of which 6 solve two spectra
        assert run()[0] == 12

    def test_fd_solve_samples_the_potential_once(self):
        from isoshift import cli, spectral
        from isoshift.catalog import Function1D

        sizes = []

        def f(x):
            sizes.append(np.size(x))
            return 0.5 * np.asarray(x) ** 2

        V = Function1D(f=f, df=lambda x: np.asarray(x), domain=(-8.0, 8.0))
        grid = spectral.Grid(-8.0, 8.0, 200)
        memo = {}
        report = cli._solve(memo, V, grid, 3)
        # the key's samples on both grids feed the solver too; only its
        # 256-point seed grid, which picks start shifts, is sampled anew
        assert sizes == [200, 401, 256]
        assert cli._solve(memo, V, grid, 3) is report
        assert sizes == [200, 401, 256, 200, 401]
        assert report == spectral.solve_bound_states(V, grid, 3)

    def test_default_radial_report_has_no_finding(self, capsys):
        # branch 1, m = 1 has its seed zero at r = sqrt(3), and the
        # closed-form zero count predicts it
        assert main(["certify", "--skip-gram", "--skip-spectral"]) == 0
        cells = json.loads(capsys.readouterr().out)["cells"]
        assert len(cells) == 9
        assert [c for c in cells if "finding" in c] == []
        assert next(c for c in cells if (c["branch"], c["m"]) == (1, 1))["regularity"] == "singular"

    def test_nan_residual_fails_and_the_report_parses(self, monkeypatch, tmp_path, capsys):
        from isoshift import deform

        monkeypatch.setattr(deform.Deformation, "riccati_residual", lambda self, grid: float("nan"))
        code = main([
            "certify", "--branches", "2", "--m", "1", "--skip-spectral", "--skip-gram",
            "--out", str(tmp_path / "r"),
        ])
        captured = capsys.readouterr()
        assert code == 1
        report = json.loads(captured.out)
        assert report["status"] == "fail"
        assert report["cells"][0]["riccati_residual"] == "nan"
        assert report["failures"] == ["branch 2 m=1: riccati residual nan"]
        assert json.loads((tmp_path / "r" / "certify.json").read_text(encoding="utf-8")) == report

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
        # the closed-form zero count predicts this pole: no finding
        assert "finding" not in cell
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

    @pytest.mark.parametrize("R", ["nan", "inf"])
    def test_non_finite_shift(self, tmp_path, capsys, R):
        code, err = self._exit_code(capsys, [
            "interpolate", "--R", R, "--out", str(tmp_path / "x"),
        ])
        assert code == 2
        assert err.startswith("error:") and "finite" in err

    @pytest.mark.parametrize("command", ["extend", "interpolate"])
    @pytest.mark.parametrize("rmax", ["nan", "inf", "-2", "0"])
    def test_bad_rmax(self, tmp_path, capsys, command, rmax):
        # a NaN rmax would sample nothing but NaN, and still exit 0; a zero
        # one would quietly stand for the default
        argv = [command, f"--rmax={rmax}", "--out", str(tmp_path / "x")]
        if command == "interpolate":
            argv += ["--R", "1"]
        code, err = self._exit_code(capsys, argv)
        assert code == 2
        assert err.startswith("error:") and "rmax" in err

    @pytest.mark.parametrize("command", ["extend", "interpolate"])
    def test_negative_grid_points(self, tmp_path, capsys, command):
        # zero is refused too, and does not stand for the default
        for points in ("-3", "0"):
            argv = [command, "--grid-points", points, "--out", str(tmp_path / "x")]
            if command == "interpolate":
                argv += ["--R", "1"]
            code, err = self._exit_code(capsys, argv)
            assert code == 2
            assert err.startswith("error:") and "grid_points" in err
