import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fbmspring
from fbmspring import cli
from fbmspring.cli import CliInputError, main
from fbmspring.errors import (
    DivergentSeries,
    IndefiniteCovariance,
    InvalidExponent,
    MaxIterations,
    MissingRingModes,
    NoConvergence,
    NonpositiveG1,
    NoSignChange,
    NotPositiveDefinite,
    NotSymmetricCirculant,
    QuadratureFailure,
)


def read_csv(path):
    echo, header, rows = {}, None, []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].strip().partition("=")
            echo[key] = value
            continue
        if header is None:
            header = line
            continue
        rows.append(line.split(","))
    return echo, header, rows


class TestCouplingsCommand:
    def test_chain_low_hurst_all_positive(self, tmp_path):
        out = tmp_path / "fig1.csv"
        code = main([
            "couplings", "--mode", "chain", "--monomers", "61",
            "--hurst", "0.3", "--center", "31", "--out", str(out),
        ])
        assert code == 0
        echo, header, rows = read_csv(out)
        assert header == "index,g"
        assert len(rows) == 60
        assert all(float(g) > 0 for _, g in rows)
        assert echo["center"] == "31"

    def test_chain_high_hurst_sign_pattern(self, tmp_path):
        out = tmp_path / "fig2.csv"
        assert main([
            "couplings", "--mode", "chain", "--monomers", "61",
            "--hurst", "0.8", "--out", str(out),
        ]) == 0
        _, _, rows = read_csv(out)
        values = {int(i): float(g) for i, g in rows}
        assert values[30] > 0 and values[32] > 0  # nearest neighbors of monomer 31
        assert values[29] < 0 and values[33] < 0  # second neighbors repel

    def test_ring_mode_row_count(self, tmp_path):
        out = tmp_path / "fig4.csv"
        assert main([
            "couplings", "--mode", "ring", "--monomers", "61",
            "--hurst", "0.3", "--out", str(out),
        ]) == 0
        _, header, rows = read_csv(out)
        assert header == "distance,g"
        assert len(rows) == 30  # distinct geodesic distances

    def test_ring_rejects_high_hurst(self, tmp_path, capsys):
        out = tmp_path / "bad.csv"
        code = main([
            "couplings", "--mode", "ring", "--monomers", "61",
            "--hurst", "0.8", "--out", str(out),
        ])
        assert code == 2
        assert "hurst <= 0.5" in capsys.readouterr().err
        assert not out.exists()

    def test_ring_names_missing_modes(self, tmp_path, capsys):
        # the Brownian even ring has no weight on its even modes; H = 0.5 is
        # not above 0.5, so the message must not blame the Hurst range
        out = tmp_path / "bad.csv"
        code = main([
            "couplings", "--mode", "ring", "--monomers", "6",
            "--hurst", "0.5", "--out", str(out),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "modes 2 " in err
        assert "requires hurst <= 0.5" not in err
        assert not out.exists()

    def test_chain_near_rigid_rod_reports_pivot(self, capsys):
        # r(1) = 2^(2H - 1) - 1 is within 6e-12 of 1, so the second pivot 1 - r(1)^2
        # falls below the tolerance
        argv = ["couplings", "--mode", "chain", "--monomers", "61", "--hurst", "0.999999999999"]
        assert main(argv) == 4
        assert capsys.readouterr().err == (
            "numerical failure: matrix is not positive definite: pivot 1 = 5.544898e-12\n"
        )

    def test_manifest_and_replay_bytes(self, tmp_path):
        args = ["couplings", "--mode", "chain", "--monomers", "21", "--hurst", "0.4"]
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        assert main(args + ["--out", str(first)]) == 0
        assert main(args + ["--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()
        manifest = json.loads((tmp_path / "a.manifest.json").read_text())
        assert manifest["command"] == "couplings"
        assert manifest["outputs"] == ["a.csv"]
        assert manifest["artifact_version"]
        assert manifest["parameters"]["hurst"] == 0.4

    def test_gnuplot_script(self, tmp_path):
        out = tmp_path / "c.csv"
        assert main([
            "couplings", "--mode", "chain", "--monomers", "11",
            "--hurst", "0.3", "--out", str(out), "--gnuplot",
        ]) == 0
        script = tmp_path / "c.gp"
        assert script.exists()
        assert "c.csv" in script.read_text()

    def test_full_precision_roundtrip(self, tmp_path):
        out = tmp_path / "c.csv"
        assert main([
            "couplings", "--mode", "chain", "--monomers", "11",
            "--hurst", "0.37", "--out", str(out),
        ]) == 0
        from fbmspring.couplings import chain_coupling_matrix

        g = chain_coupling_matrix(11, 0.37).g
        _, _, rows = read_csv(out)
        for idx, val in rows:
            assert float(val) == g[5, int(idx) - 1]


class TestSpectrumCommand:
    def test_two_coupling_ring(self, tmp_path):
        out = tmp_path / "s.csv"
        assert main([
            "spectrum", "--sites", "12", "--g", "1,-0.25", "--out", str(out),
        ]) == 0
        _, header, rows = read_csv(out)
        assert header == "mode,lambda"
        assert len(rows) == 12
        lam = np.array([float(v) for _, v in rows])
        theta = 2 * np.pi * np.arange(12) / 12
        np.testing.assert_allclose(lam, (1 - np.cos(theta)) ** 2, atol=1e-12)
        assert lam[0] == 0.0

    def test_covariance_check_mode(self, tmp_path):
        out = tmp_path / "s.csv"
        assert main([
            "spectrum", "--mode", "ring", "--monomers", "6",
            "--hurst", "0.5", "--cov", "--out", str(out),
        ]) == 0
        _, _, rows = read_csv(out)
        lam = [float(v) for _, v in rows]
        np.testing.assert_allclose(lam, [0, 2, 0, 2, 0, 2], atol=1e-12)

    def test_nearest_neighbor_closed_form(self, tmp_path):
        out = tmp_path / "s.csv"
        assert main(["spectrum", "--sites", "8", "--g", "0.7", "--out", str(out)]) == 0
        _, _, rows = read_csv(out)
        lam = np.array([float(v) for _, v in rows])
        theta = 2 * np.pi * np.arange(8) / 8
        np.testing.assert_allclose(lam, 2 * 0.7 * (1 - np.cos(theta)), atol=1e-12)

    def test_g_file_model(self, tmp_path):
        model = tmp_path / "model.txt"
        model.write_text("# two-coupling ring\nN=12\ng1=1.0\ng2 -0.25\n")
        out = tmp_path / "s.csv"
        assert main(["spectrum", "--g-file", str(model), "--out", str(out)]) == 0
        _, _, rows = read_csv(out)
        lam = np.array([float(v) for _, v in rows])
        theta = 2 * np.pi * np.arange(12) / 12
        np.testing.assert_allclose(lam, (1 - np.cos(theta)) ** 2, atol=1e-12)

    def test_malformed_g_file_reports_line(self, tmp_path, capsys):
        model = tmp_path / "model.txt"
        model.write_text("N=12\ng1=1.0\nbogus line here\n")
        code = main(["spectrum", "--g-file", str(model)])
        assert code == 2
        assert ":3:" in capsys.readouterr().err

    def test_distance_out_of_range_rejected(self, tmp_path, capsys):
        model = tmp_path / "model.txt"
        model.write_text("N=6\ng5=1.0\n")
        assert main(["spectrum", "--g-file", str(model)]) == 2
        assert "distance" in capsys.readouterr().err


class TestCriticalCommand:
    def test_default_reproduces_published_value(self, tmp_path):
        out = tmp_path / "crit.json"
        assert main(["critical", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["h_star"] == pytest.approx(0.75964, abs=1e-4)
        assert payload["iterations"] == math.ceil(math.log2(0.3 / 1e-6))
        assert abs(payload["residual_coupling"]) < 1e-4
        assert payload["model"]["monomers"] == 61

    def test_tighter_tolerance_iteration_count(self, tmp_path):
        out = tmp_path / "crit.json"
        assert main(["critical", "--tol", "1e-8", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["iterations"] == math.ceil(math.log2(0.3 / 1e-8))  # 25

    def test_nearest_neighbor_exit_code(self, capsys):
        code = main(["critical", "--offset", "1", "--bracket", "0.55", "0.95"])
        assert code == 3
        assert "no sign change" in capsys.readouterr().err.lower()


class TestRingDesignCommand:
    def test_guaranteed_power_law(self, tmp_path):
        out = tmp_path / "design.json"
        assert main([
            "ring-design", "--g1", "7", "--c", "1", "--gamma", "4",
            "--sites", "32", "--out", str(out),
        ]) == 0
        payload = json.loads(out.read_text())
        assert payload["admissible"] is True
        assert payload["zeta_bound"] is True
        assert payload["finite_bound"] is True
        assert payload["lambda_min"] > 0
        assert payload["model"]["g_by_distance"][0] == 7.0

    def test_invalid_exponent_with_guarantee(self, capsys):
        code = main([
            "ring-design", "--g1", "1", "--c", "0.1", "--gamma", "2.5",
            "--sites", "16", "--infinite-guarantee",
        ])
        assert code == 2
        assert "gamma" in capsys.readouterr().err

    def test_bound_is_sufficient_only(self, tmp_path):
        # finite bound fails, exact sweep still passes
        out = tmp_path / "design.json"
        assert main([
            "ring-design", "--g1", "1", "--c", "0.115", "--gamma", "3.5",
            "--sites", "16", "--out", str(out),
        ]) == 0
        payload = json.loads(out.read_text())
        assert payload["finite_bound"] is False
        assert payload["admissible"] is True


class TestSampleCommand:
    def test_brownian_chain_iid_increments(self, tmp_path):
        out = tmp_path / "paths.csv"
        assert main([
            "sample", "--model", "chain", "--monomers", "9", "--hurst", "0.5",
            "--paths", "8000", "--seed", "12", "--out", str(out),
        ]) == 0
        report = json.loads((tmp_path / "paths.report.json").read_text())
        assert report["within_bound"] is True
        _, header, rows = read_csv(out)
        assert header == ",".join(f"v{i}" for i in range(8))
        assert len(rows) == 8000

    def test_ring_high_hurst_rejected(self, capsys):
        code = main([
            "sample", "--model", "ring", "--sites", "8", "--hurst", "0.8",
            "--paths", "10", "--seed", "0",
        ])
        assert code == 2
        assert "indefinite" in capsys.readouterr().err.lower()

    def test_reflected_ring_report(self, tmp_path):
        out = tmp_path / "ring.csv"
        assert main([
            "sample", "--model", "reflected", "--grid", "8",
            "--paths", "20000", "--seed", "99", "--out", str(out),
        ]) == 0
        report = json.loads((tmp_path / "ring.report.json").read_text())
        assert report["within_bound"] is True
        assert report["max_error_over_bound"] <= 1.0

    def test_bridge_control_fails_the_report(self, tmp_path):
        out = tmp_path / "bridge.csv"
        assert main([
            "sample", "--model", "bridge", "--grid", "8",
            "--paths", "20000", "--seed", "99", "--out", str(out),
        ]) == 0
        report = json.loads((tmp_path / "bridge.report.json").read_text())
        assert report["within_bound"] is False

    def test_replay_bytes_identical(self, tmp_path):
        args = [
            "sample", "--model", "ring", "--sites", "6", "--hurst", "0.5",
            "--paths", "500", "--seed", "5",
        ]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_reflected_grid_with_overshooting_endpoint(self, capsys):
        # 2*pi*13/13 rounds one ulp above 2*pi
        assert main(["sample", "--model", "reflected", "--grid", "13", "--paths", "2"]) == 0


class TestFourierEnergyCommand:
    def test_series_and_closed_form(self, tmp_path):
        out = tmp_path / "fourier.csv"
        assert main(["fourier-energy", "--hurst", "0.5", "--mode-max", "6", "--out", str(out)]) == 0
        _, header, rows = read_csv(out)
        assert header == "mode,value"
        values = {int(m): float(v) for m, v in rows}
        assert values[1] == pytest.approx(8 * math.pi**2, rel=1e-9)
        assert abs(values[2]) < 1e-9
        assert values[3] == pytest.approx(8 * math.pi**2 / 81, rel=1e-9)


class TestArgumentValidation:
    def test_bad_monomer_count(self, capsys):
        assert main(["couplings", "--mode", "chain", "--monomers", "2", "--hurst", "0.3"]) == 2

    def test_bad_hurst(self, capsys):
        assert main(["couplings", "--mode", "chain", "--monomers", "11", "--hurst", "1.7"]) == 2

    def test_spectrum_needs_a_model(self, capsys):
        assert main(["spectrum", "--sites", "12"]) == 2

    def test_center_bounds(self, capsys):
        assert main([
            "couplings", "--mode", "chain", "--monomers", "11",
            "--hurst", "0.3", "--center", "12",
        ]) == 2

    @pytest.mark.parametrize("command", [
        ["couplings", "--mode", "chain", "--monomers", "11", "--hurst", "1.0"],
        ["spectrum", "--mode", "chain", "--monomers", "11", "--hurst", "1.0"],
    ])
    def test_rigid_rod_chain_has_no_couplings(self, capsys, command):
        assert main(command) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "hurst = 1.0" in err

    def test_rigid_rod_chain_can_be_sampled(self, capsys):
        assert main(["sample", "--model", "chain", "--monomers", "5", "--hurst", "1.0", "--paths", "3"]) == 0


def parse_error(argv, capsys):
    """Exit code and stderr of an argument that argparse itself rejects."""
    with pytest.raises(SystemExit) as info:
        main(argv)
    return info.value.code, capsys.readouterr().err


class TestNonFiniteNumbers:
    def test_ring_design_nan_g1(self, capsys):
        code, err = parse_error(["ring-design", "--g1", "nan", "--c", "1", "--gamma", "4", "--sites", "32"], capsys)
        assert code == 2 and "argument --g1: not a finite number: 'nan'" in err

    def test_ring_design_nan_gamma_with_guarantee(self, capsys):
        argv = ["ring-design", "--g1", "7", "--c", "1", "--gamma", "nan", "--sites", "32", "--infinite-guarantee"]
        code, err = parse_error(argv, capsys)
        assert code == 2 and "argument --gamma: not a finite number: 'nan'" in err

    def test_critical_nan_tol(self, capsys):
        code, err = parse_error(["critical", "--tol", "nan"], capsys)
        assert code == 2 and "argument --tol: not a finite number: 'nan'" in err

    def test_spectrum_nan_coupling(self, capsys):
        assert main(["spectrum", "--sites", "8", "--g", "nan,0.1"]) == 2
        assert capsys.readouterr().err == "error: could not parse --g value 'nan,0.1': not a finite number: 'nan'\n"

    def test_spectrum_infinite_coupling_in_model_file(self, tmp_path, capsys):
        model = tmp_path / "model.txt"
        model.write_text("N=8\ng1=1.0\ng2 -inf\n")
        assert main(["spectrum", "--g-file", str(model)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: --g-file {model}:3: ") and "not a finite number: '-inf'" in err

    @pytest.mark.parametrize("argv, flag", [
        (["couplings", "--mode", "chain", "--monomers", "11", "--hurst", "X"], "--hurst"),
        (["spectrum", "--mode", "chain", "--monomers", "11", "--hurst", "X"], "--hurst"),
        (["critical", "--bracket", "0.6", "X"], "--bracket"),
        (["critical", "--tol", "X"], "--tol"),
        (["ring-design", "--g1", "X", "--c", "1", "--gamma", "4", "--sites", "8"], "--g1"),
        (["ring-design", "--g1", "1", "--c", "X", "--gamma", "4", "--sites", "8"], "--c"),
        (["ring-design", "--g1", "1", "--c", "1", "--gamma", "X", "--sites", "8"], "--gamma"),
        (["sample", "--model", "chain", "--monomers", "5", "--hurst", "X", "--paths", "3"], "--hurst"),
        (["fourier-energy", "--hurst", "X"], "--hurst"),
    ])
    @pytest.mark.parametrize("value", ["nan", "inf", "1e999"])
    def test_every_float_flag_rejects_non_finite(self, capsys, argv, flag, value):
        code, err = parse_error([value if token == "X" else token for token in argv], capsys)
        assert code == 2 and f"argument {flag}: not a finite number: '{value}'" in err

    def test_malformed_number_keeps_float_message(self, capsys):
        code, err = parse_error(["critical", "--tol", "abc"], capsys)
        assert code == 2 and "argument --tol: invalid float value: 'abc'" in err


class TestExitStatus:
    @pytest.mark.parametrize("exc, prefix, code", [
        (CliInputError("bad flag"), "error", 2),
        (IndefiniteCovariance(-1.0), "error", 2),
        (NonpositiveG1("g1 <= 0"), "error", 2),
        (InvalidExponent("gamma <= 3"), "error", 2),
        (NotSymmetricCirculant("c[1] != c[N-1]"), "error", 2),
        (ValueError("out of range"), "error", 2),
        (IndexError("no such monomer"), "error", 2),
        (FileNotFoundError("no such file"), "error", 2),
        (NoSignChange("same sign"), "no result", 3),
        (NotPositiveDefinite(pivot_index=1, pivot_value=0.0), "numerical failure", 4),
        (MissingRingModes([2], 0.0), "numerical failure", 4),
        (NoConvergence("eigh"), "numerical failure", 4),
        (QuadratureFailure(1.0, 1.0, 1e-10), "numerical failure", 4),
        (MaxIterations(iterations=200, width=1.0), "numerical failure", 4),
        (DivergentSeries("s <= 1"), "error", 4),
    ], ids=lambda value: type(value).__name__ if isinstance(value, Exception) else None)
    def test_error_class_sets_prefix_and_code(self, monkeypatch, capsys, exc, prefix, code):
        def fail(args):
            raise exc

        monkeypatch.setattr(cli, "_cmd_fourier_energy", fail)
        assert main(["fourier-energy", "--hurst", "0.5"]) == code
        assert capsys.readouterr().err == f"{prefix}: {exc}\n"

    def test_eigensolver_failure_exits_numerical(self, monkeypatch, capsys):
        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        assert main(["spectrum", "--mode", "chain", "--monomers", "5", "--hurst", "0.3", "--cov"]) == 4
        assert capsys.readouterr().err.startswith("numerical failure: LAPACK eigh did not converge")


def test_cli_import_leaves_scipy_out():
    src = Path(fbmspring.__file__).resolve().parents[1]
    result = subprocess.run(
        [sys.executable, "-c", "import sys, fbmspring.cli; sys.exit('scipy' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr or "importing fbmspring.cli loaded scipy"
