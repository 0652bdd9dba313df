"""Command-line interface: determinism, exit codes, config handling."""

import ast
import contextlib
import csv
import io
import json
import math
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import isoshift
from isoshift.catalog import (
    RadialOscillator,
    TrigDPT,
    branches,
    partner_potentials,
    superpotential,
)
from isoshift.cli import main


def _read_csv(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    data = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    return header, data


def _probe(code, *args):
    """stdout of `code` run in a fresh interpreter on this tree's isoshift."""
    src = str(Path(isoshift.__file__).resolve().parent.parent)
    return subprocess.run([sys.executable, "-c", code, *map(str, args)], cwd=src, check=True,
                          capture_output=True, text=True, timeout=120).stdout


# prints the scipy modules loaded since the last call, one list per line
_SCIPY_SINCE = (
    "import sys\n"
    "def scipy_since(seen=set()):\n"
    "    new = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy' and m not in seen)\n"
    "    seen.update(new)\n"
    "    print(new)\n"
)


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
    assert _probe(probe, tmp_path).strip() == "[]"
    assert (tmp_path / "interpolate.json").exists()


def test_import_and_closed_forms_load_no_scipy(tmp_path):
    # the Gram's Gauss rules are numpy's and LAPACK loads at the FD
    # solver's first call, so neither the import, nor the commands that
    # solve nothing, nor a closed-form eigenfunction with its residual
    # loads any scipy module
    probe = _SCIPY_SINCE + (
        "import isoshift.cli\n"
        "scipy_since()\n"
        "import contextlib, io\n"
        "from isoshift import cli\n"
        "out = sys.argv[1]\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['catalog', 'radial_oscillator']) == 0\n"
        "    assert cli.main(['extend', '--m', '1', '2', '--grid-points', '500',\n"
        "                     '--out', out]) == 0\n"
        "    assert cli.main(['interpolate', '--R', '-3', '2.5', '--out', out]) == 0\n"
        "import numpy as np\n"
        "from isoshift import catalog, deform, eop, spectral\n"
        "fam = catalog.RadialOscillator(2.0, 1.0)\n"
        "d = deform.seed_polynomial(fam, eop.series_branch('L1'), 2)\n"
        "pair = deform.extend(d)\n"
        "spec = eop.EOPSpec('L1', 3, 2, fam)\n"
        "psi = eop.eigenfunction_closed_form(spec)\n"
        "r = np.linspace(0.05, 11.0, 100_000)\n"
        "E = eop.eigenvalue(spec)\n"
        "assert spectral.schrodinger_residual(psi, E, pair.V_tilde_minus, r) < 1e-6\n"
        "scipy_since()\n"
    )
    assert _probe(probe, tmp_path).split() == ["[]", "[]"]


def test_fd_solve_loads_flapack_only():
    # branch 2, m = 0 certifies V- against V~- by the FD solver and has no
    # Gram matrix; the solver loads scipy's _flapack extension from its file,
    # so neither scipy nor scipy.linalg, special or integrate loads
    probe = _SCIPY_SINCE + (
        "from isoshift import cli\n"
        "import contextlib, io\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['certify', '--branches', '2', '--m', '0']) == 0\n"
        "scipy_since()\n"
    )
    assert ast.literal_eval(_probe(probe)) == ["scipy.linalg._flapack"]


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
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert rows[0] == ["k", "a", "b", "factorization_energy", "susy_kind"]
        want = [[b.k, b.a, b.b, b.factorization_energy, b.susy_kind]
                for b in branches(TrigDPT(1.0, 2.0))]
        assert [[int(k), float(a), float(b), float(e), kind]
                for k, a, b, e, kind in rows[1:]] == want

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

    def test_each_sidecar_holds_its_own_warnings(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert main([
            "extend", "--omega", "1", "--ell", "0.2", "--branch", "1",
            "--m", "1", "2", "3", "--nmax", "1", "--grid-points", "60", "--out", str(out),
        ]) == 0
        lines = capsys.readouterr().err.splitlines()
        assert [line.split()[1] for line in lines] == ["m=1:", "m=2:", "m=3:"]
        for m, line in zip((1, 2, 3), lines):
            sidecar = json.loads((out / f"extend_radial_oscillator_b1_m{m}.json").read_text())
            assert sidecar["warnings"] == [line.removeprefix("warning: ")]


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

    def test_gram_size_is_nmax(self, monkeypatch, capsys):
        from isoshift import eop

        sizes = []
        real_gram = eop.gram_matrix

        def spy(series, m, params, n_max, *args):
            sizes.append(n_max)
            return real_gram(series, m, params, n_max, *args)

        monkeypatch.setattr(eop, "gram_matrix", spy)
        code = main(["certify", "--branches", "2", "--m", "1", "--nmax", "6", "--skip-spectral"])
        report = json.loads(capsys.readouterr().out)
        assert code == 0 and report["status"] == "pass"
        assert sizes == [6]

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

    @pytest.mark.parametrize("argv, solves, extensions", [
        # 9 cells; the 6 broken-SUSY ones solve V~- (V- at m = 0) alone and
        # check it against V-'s closed-form levels
        (["certify", "--family", "radial_oscillator"], 6, 9),
        # the m = 0 cells solve V-; at A = B the m = 1 seeds of branches 2
        # and 3 have degree 0, so their V~- is V-, taken from the run's cache
        (["certify", "--family", "trig_dpt"], 4, 9),
        # W0 reuses branch 2's extension and builds branch 3's
        (["certify", "--branches", "2", "--m", "1"], 1, 2),
    ], ids=["radial_oscillator", "trig_dpt", "branch-2-m-1"])
    def test_each_input_is_built_once(self, monkeypatch, capsys, argv, solves, extensions):
        from isoshift import deform, spectral

        calls = []

        def spy(module, name):
            real = getattr(module, name)

            def counting(*args):
                calls.append(name)
                return real(*args)

            monkeypatch.setattr(module, name, counting)

        spy(spectral, "solve_bound_states")
        spy(deform, "seed_polynomial")
        spy(deform, "extend")
        assert main(argv) == 0
        capsys.readouterr()
        assert calls.count("solve_bound_states") == solves
        assert calls.count("seed_polynomial") == calls.count("extend") == extensions

    def test_near_zero_dpt_seed_solves_no_v_tilde(self, monkeypatch, capsys):
        # at A = B = 1.43, m + a + b on branches 2 and 3 at m = 1 is 0 only
        # to rounding; the seeds still have degree 0, so each cell's V~- is
        # V-'s FD spectrum, only the two V- spectra are solved, and each
        # lies within 1e-8 of V-'s closed-form levels shifted by R = 0
        from isoshift import spectral

        solved = []
        real_solve = spectral.solve_bound_states

        def recording_solve(V, grid, k):
            solved.append(V)
            return real_solve(V, grid, k)

        monkeypatch.setattr(spectral, "solve_bound_states", recording_solve)
        assert main(["certify", "--family", "trig_dpt", "--A", "1.43", "--B", "1.43",
                     "--branches", "2", "3", "--m", "1"]) == 0
        cells = json.loads(capsys.readouterr().out)["cells"]
        assert len(solved) == 2
        for cell in cells:
            assert cell["riccati_residual"] == cell["partner_shift_deviation"] == 0.0
            iso = cell["isospectrality"]
            assert iso["reference"] == "closed form"
            assert abs(iso["shift"]) <= 1e-8 and iso["deviation"] <= 1e-8
            assert math.copysign(1.0, cell["shift"]) == 1.0 and cell["shift"] == 0.0

    def test_out_file_holds_the_printed_report(self, tmp_path, capsys):
        out = tmp_path / "r"
        assert main(["certify", "--branches", "2", "--m", "1", "--out", str(out)]) == 0
        assert (out / "certify.json").read_bytes() == capsys.readouterr().out.encode("utf-8")

    def test_default_solver_grids(self, monkeypatch, capsys):
        # radial oscillator: nodes at most 48 s / 3001 apart (s = 1/sqrt(omega)),
        # the spacing of 3000 nodes on (0, 48 s), at every m; DPT at
        # min(A, B) >= 1/2: ceil(109 sqrt(7 (2A + 2B + 9))) nodes for k = 4
        # (1224 here), the same at every m
        from isoshift import spectral

        grids = []
        real_solve = spectral.solve_bound_states

        def recording_solve(V, grid, k):
            grids.append(grid)
            return real_solve(V, grid, k)

        monkeypatch.setattr(spectral, "solve_bound_states", recording_solve)
        omega = 0.7
        assert main(["certify", "--omega", str(omega), "--ell", "2.5", "--branches", "2",
                     "--m", "0", "1", "3", "6", "12", "--skip-gram"]) == 0
        assert len({g.hi for g in grids}) == 5
        # to rounding: 3001 (hi - lo) / (48 s) may be a whole number
        assert all(g.spacing <= 48.0 / 3001.0 / np.sqrt(omega) * (1.0 + 1e-12) for g in grids)
        grids.clear()
        assert main(["certify", "--family", "trig_dpt", "--A", "1.5", "--B", "3",
                     "--branches", "2", "3", "--m", "0", "1", "2"]) == 0
        capsys.readouterr()
        assert set(grids) == {spectral.Grid(1e-6, np.pi / 2.0 - 1e-6, 1224)}

    @pytest.mark.parametrize("omega, m", [(2.982, 8), (2.0, 8), (4.0, 5), (4.0, 8), (2.982, 5)])
    def test_radial_wall_at_zero_keeps_ell_zero_levels(self, capsys, omega, m):
        # at ell = 0 the states go like r, and a wall at r = 1e-4 s moved
        # each level by about 1e-4 relative: these regular cells, whose
        # shift is exactly R, failed the 1e-3 gate at 1.1e-3 to 2.3e-3
        assert main(["certify", "--omega", str(omega), "--ell", "0", "--branches", "2",
                     "--m", str(m), "--skip-gram"]) == 0
        (cell,) = json.loads(capsys.readouterr().out)["cells"]
        assert cell["regularity"] == "regular"
        assert cell["isospectrality"]["deviation"] <= 1e-6

    # families whose FD error keeps an endpoint term, where every broken-SUSY
    # cell's reference is V-'s FD spectrum from the run's cache
    @pytest.mark.parametrize("family", [
        ["--family", "radial_oscillator", "--omega", "1", "--ell", "0.3"],
        ["--family", "trig_dpt", "--A", "0.3", "--B", "2"],
    ], ids=["radial_oscillator", "trig_dpt"])
    def test_run_caches_change_no_byte(self, monkeypatch, capsys, family):
        import types

        from isoshift import spectral

        solves = []
        real_solve = spectral.solve_bound_states

        def counting_solve(*args):
            solves.append(args)
            return real_solve(*args)

        def run():
            solves.clear()
            assert main(["certify", *family]) == 0
            # every byte but the timings
            out = capsys.readouterr().out
            assert '"reference": "finite difference"' in out
            return len(solves), re.sub(r'"wall_time_s": [^,\n]*', "", out)

        monkeypatch.setattr(spectral, "solve_bound_states", counting_solve)
        cached = run()
        monkeypatch.setattr(spectral, "functools", types.SimpleNamespace(cache=lambda f: f))
        uncached = run()
        assert uncached[1] == cached[1]
        assert uncached[0] > cached[0]

    @pytest.mark.parametrize("family", [
        RadialOscillator(1.0, 1.0), RadialOscillator(0.7, 2.5),
        TrigDPT(1.0, 1.0), TrigDPT(1.5, 3.0),
    ], ids=repr)
    def test_identity_deformation_leaves_v_minus_unchanged(self, family):
        # certify reuses V-'s spectrum for V~- where the seed has degree 0
        # on a first-process branch: at m = 0, and at A = B on DPT branches
        # 2 and 3 at m = 1, where m + a + b = 0.  There the two potentials
        # agree bit for bit
        from isoshift import deform, spectral

        symmetric = isinstance(family, TrigDPT) and family.A == family.B
        first_process = []
        for k, m in [(k, m) for m in (0, 1) for k in (1, 2, 3, 4)]:
            d = deform.seed_polynomial(family, k, m)
            assert (d.seed.degree == 0) == (m == 0 or (symmetric and k in (2, 3)))
            if d.seed.degree:
                continue
            v_minus = partner_potentials(superpotential(family, k))[0]
            coarse = spectral.default_grid(family, k=4, m=m, n_points=None)
            for grid in (coarse, coarse.refined()):
                same = np.array_equal(deform.extend(d).V_tilde_minus.f(grid.nodes),
                                      v_minus.f(grid.nodes))
                # the second process reverses the sign of w, so V~- is V+
                assert same == (d.process == 1)
            if d.process == 1:
                first_process.append((k, m))
        assert first_process == (
            [(1, 0), (2, 0), (4, 0)] if isinstance(family, RadialOscillator) else
            [(1, 0), (2, 0), (3, 0), (4, 0)] + [(2, 1), (3, 1)] * symmetric)

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

    def test_interpolate_refuses_dpt(self, tmp_path, capsys):
        code, err = self._exit_code(capsys, [
            "interpolate", "--family", "trig_dpt", "--A", "1.5", "--B", "3", "--R", "1",
            "--out", str(tmp_path / "x"),
        ])
        assert code == 2
        assert err == "error: expected a RadialOscillator, got TrigDPT\n"

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


_LATTICE = ["0.5", "1", "1.5", "2", "2.5", "3", "3.5", "4"]
_BAD_VALUE = st.sampled_from(["0", "-0.0", "-1", "-2.5", "nan", "inf", "-inf", "abc", "1e400", ""])
# (good, bad) values of each kind of argument
_VALUES = {
    "param": (st.one_of(st.sampled_from(_LATTICE), st.floats(0.05, 5.0).map(repr)), _BAD_VALUE),
    "R": (st.one_of(st.sampled_from(["-3", "2.5"]), st.floats(-8.0, 4.0).map(repr)), _BAD_VALUE),
    "branch": (st.sampled_from(["1", "2", "3", "4"]), st.sampled_from(["0", "5", "-1", "2.5", "x"])),
    "m": (st.sampled_from(["0", "1", "2", "3"]), st.sampled_from(["-1", "1.5", "x"])),
}
_PARAMS = {"radial_oscillator": ("omega", "ell"), "trig_dpt": ("A", "B")}


@st.composite
def _argv(draw, out):
    def value(kind):
        # one value in four is bad, so that most runs get past the argument
        # checks into the command itself
        good, bad = _VALUES[kind]
        return draw(bad if draw(st.integers(0, 3)) == 3 else good)

    command = draw(st.sampled_from(["catalog", "extend", "certify", "interpolate"]))
    family = draw(st.sampled_from(sorted(_PARAMS)))
    # --name=value, so that a value such as -inf is not read as a flag
    params = [f"--{name}={value('param')}" for name in _PARAMS[family]]
    if command == "catalog":
        return [command, family, *params]
    argv = [command, "--family", family, *params]
    if command == "certify":
        return argv + [f"--branches={value('branch')}", f"--m={value('m')}", "--nmax", "2"]
    argv += [f"--branch={value('branch')}", "--grid-points", "400", "--out", out]
    if command == "extend":
        return argv + [f"--m={value('m')}", "--nmax", "2"]
    return argv + [f"--R={value('R')}"]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_fuzzed_arguments_exit_cleanly(data):
    # exit 0, 1 (a failed certification) or 2 (bad input), and never a
    # traceback, whatever the parameters, branch and m
    with tempfile.TemporaryDirectory() as out:
        argv = data.draw(_argv(out))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    assert code in (0, 1, 2), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
