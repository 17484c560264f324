import contextlib
import functools
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fbmspring
from fbmspring import _blockformat, cli, couplings, critical, errors, sampling
from fbmspring.cli import main
from fbmspring.couplings import chain_coupling_matrix
from fbmspring.errors import (
    IndefiniteCovariance,
    MissingRingModes,
    NoSignChange,
    NotPositiveDefinite,
    QuadratureFailure,
)
from fbmspring.linalg import centrosymmetric_eigenvalues
from fbmspring.kernels import chain_increment_row, ring_increment_row
from fbmspring.rings import ring_coupling_profile, ring_energy_eigenvalues
from fbmspring.sampling import (
    brownian_bridge_ring,
    fourier_mode_energy,
    piecewise_ring_cov_matrix,
    reflected_brownian_ring,
    sample_circulant,
    sample_toeplitz,
    uniform_ring_grid,
)

from conftest import (
    chain_laplacian_rows,
    circulant_dense,
    empirical_covariance,
    full_matrix_split,
    toeplitz_dense,
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
        assert capsys.readouterr().err.endswith("; above hurst = 0.5 only some odd rings have one\n")
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
        assert "odd rings" not in err
        assert not out.exists()

    def test_small_odd_ring_above_half_exists(self, capsys):
        # the hint above H = 1/2 must not contradict a ring the package accepts; the exact
        # couplings (40-digit mpmath) are 1.59313605019135442... and -0.51934263029149813...
        assert main(["couplings", "--mode", "ring", "--monomers", "5", "--hurst", "0.6"]) == 0
        assert capsys.readouterr().out.endswith("distance,g\n1,1.5931360501913541\n2,-0.51934263029149808\n")

    def test_large_low_hurst_ring_exists(self, tmp_path):
        # mu_1 = 4.4e-5 here; a tolerance of 1e-9 N max|c| once called it a missing mode
        out = tmp_path / "ring.csv"
        assert main(["couplings", "--mode", "ring", "--monomers", "65536", "--hurst", "0.05",
                     "--out", str(out)]) == 0
        assert len(read_csv(out)[2]) == 32768

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

        g = chain_coupling_matrix(11, 0.37)
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
        # each documented coupling form: g<k>=<value>, g<k> <value> and <k> <value>
        model, out = tmp_path / "model.txt", tmp_path / "s.csv"
        theta = 2 * np.pi * np.arange(12) / 12
        for line in ("g2=-0.25", "g2 -0.25", "2 -0.25"):
            model.write_text(f"# two-coupling ring\nN=12\ng1=1.0\n{line}\n")
            assert main(["spectrum", "--g-file", str(model), "--out", str(out)]) == 0
            lam = np.array([float(v) for _, v in read_csv(out)[2]])
            np.testing.assert_allclose(lam, (1 - np.cos(theta)) ** 2, atol=1e-12)

    @pytest.mark.parametrize("key", ["n", "sites"])
    def test_g_file_ring_size_is_only_n_equals(self, tmp_path, capsys, key):
        model = tmp_path / "model.txt"
        model.write_text(f"{key}=12\ng1=1.0\n")
        assert main(["spectrum", "--g-file", str(model)]) == 2
        assert capsys.readouterr() == (
            "", f"error: --g-file {model}:1: malformed model line '{key}=12': unknown key '{key}'\n")

    @pytest.mark.parametrize("argv, message", [
        (["--out", "m.txt"], "--out would overwrite --g-file m.txt"),
        (["--out", "m.csv", "--gnuplot"], "the gnuplot script would overwrite --g-file m.gp"),
        (["--out", "m.csv"], "the manifest would overwrite --g-file m.manifest.json"),
    ], ids=["out", "gnuplot", "manifest"])
    def test_g_file_is_never_overwritten(self, tmp_path, monkeypatch, capsys, argv, message):
        # a replay of the manifest's command must still find its model file
        monkeypatch.chdir(tmp_path)
        model = Path(message.rsplit(" ", 1)[1])
        model.write_text("N=12\ng1=1.0\ng2 -0.25\n")
        assert main(["spectrum", "--g-file", str(model), *argv]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert model.read_text() == "N=12\ng1=1.0\ng2 -0.25\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == [model.name]

    @pytest.mark.parametrize("hurst", [0.05, 0.7])
    @pytest.mark.parametrize("monomers", [2, 3, 4, 17, 64, 65])
    def test_chain_covariance_spectrum_keeps_the_full_matrix_bits(self, tmp_path, monomers, hurst):
        out = tmp_path / "s.csv"
        argv = ["spectrum", "--mode", "chain", "--monomers", str(monomers), "--hurst", str(hurst), "--cov"]
        assert main(argv + ["--out", str(out)]) == 0
        lam = np.array([float(v) for _, v in read_csv(out)[2]])
        assert np.array_equal(lam, full_matrix_split(toeplitz_dense(chain_increment_row(monomers - 1, hurst))))

    @pytest.mark.parametrize("sites", [3, 8, 9, 64])
    def test_ring_energy_spectrum_is_the_mirrored_eigenvalues(self, tmp_path, sites):
        out = tmp_path / "s.csv"
        assert main(["spectrum", "--mode", "ring", "--monomers", str(sites), "--hurst", "0.3", "--out", str(out)]) == 0
        lam = np.array([float(v) for _, v in read_csv(out)[2]])
        half = ring_energy_eigenvalues(sites, 0.3)
        assert lam[0] == 0.0
        assert np.array_equal(lam[1 : half.size + 1], half)
        assert np.array_equal(lam[1:], lam[:0:-1])

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

    @pytest.mark.parametrize("text", ["1,,-0.25", "1,-0.25,", ",1"])
    def test_empty_coupling_field_rejected(self, capsys, text):
        # an empty field is not a zero coupling: it would shift every later g_k
        assert main(["spectrum", "--sites", "8", "--g", text]) == 2
        assert capsys.readouterr().err == f"error: could not parse --g value {text!r}: invalid float value: ''\n"

    @pytest.mark.parametrize("argv, message", [
        (["--sites", "12", "--g", "1", "--cov"], "--g cannot be combined with --cov"),
        (["--g", "1", "--mode", "ring", "--monomers", "12", "--hurst", "0.3"],
         "--g cannot be combined with --mode, --monomers, --hurst"),
        (["--g-file", "m.txt", "--hurst", "0.3"], "--g-file cannot be combined with --hurst"),
        (["--g", "1", "--g-file", "m.txt", "--monomers", "12"], "--g and --g-file cannot be combined with --monomers"),
        (["--mode", "ring", "--monomers", "12", "--hurst", "0.3", "--sites", "12"],
         "--mode cannot be combined with --sites"),
        (["--mode", "chain", "--monomers", "12", "--hurst", "0.3", "--sites", "8", "--cov"],
         "--mode cannot be combined with --sites"),
    ], ids=["g-cov", "g-mode", "g-file-hurst", "both-monomers", "ring-sites", "chain-sites"])
    def test_flags_the_model_would_ignore_are_rejected(self, tmp_path, monkeypatch, capsys, argv, message):
        monkeypatch.chdir(tmp_path)
        Path("m.txt").write_text("N=12\ng1=1.0\n")
        assert main(["spectrum", *argv, "--out", "s.csv", "--gnuplot"]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.txt"]


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

    def test_offset_zero_is_invalid_input(self, capsys):
        assert main(["critical", "--offset", "0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "offset 0" in err

    def test_tolerance_below_float_resolution_is_invalid_input(self, monkeypatch, capsys):
        monkeypatch.setattr(critical, "chain_coupling_rows", None)  # rejected before any chain is built
        assert main(["critical", "--tol", "1e-17"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: tol 1.000e-17 is below the floor 4.441e-16")

    @pytest.mark.parametrize("center, offset, partner", [(60, 3, 63), (2, -3, -1)])
    def test_partner_off_the_chain_is_named_1_based(self, monkeypatch, capsys, center, offset, partner):
        monkeypatch.setattr(critical, "chain_coupling_rows", None)  # rejected before any chain is built
        argv = ["critical", "--monomers", "61", "--center", str(center), "--offset", str(offset)]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"error: --center {center} and --offset {offset} name monomer {partner}, outside 1..61\n"
        )

    @pytest.mark.parametrize("center", [0, 62])
    def test_center_off_the_chain_is_named_1_based(self, monkeypatch, capsys, center):
        monkeypatch.setattr(critical, "chain_coupling_rows", None)  # rejected before any chain is built
        assert main(["critical", "--monomers", "61", "--center", str(center)]) == 2
        assert capsys.readouterr() == ("", f"error: --center must lie in 1..61, got {center}\n")

    def test_defaults_survive_a_wrapped_search(self, monkeypatch, capsys):
        # a decorator made with functools.wraps hides __kwdefaults__ but keeps __wrapped__
        search = critical.find_critical_hurst
        monkeypatch.setattr(critical, "find_critical_hurst", functools.wraps(search)(lambda **kw: search(**kw)))
        assert main(["critical", "--tol", "0.01"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["model"] == {"monomers": 61, "center": 31, "offset": 3, "bracket": [0.6, 0.9], "tol": 0.01}

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

    def test_large_nearest_neighbor_ring_is_admissible(self, capsys):
        # lambda_1 = 9.19e-09 lies far above the FFT's rounding on this ring (4.55e-13)
        assert main(["ring-design", "--g1", "1", "--c", "0", "--gamma", "4", "--sites", "65536"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["admissible"] is True
        assert payload["violating_modes"] == []
        assert payload["finite_bound"] is True
        assert payload["lambda_min"] == pytest.approx(9.19e-09, rel=1e-3)

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

    @pytest.mark.parametrize("sites", ["-5", "1"])
    def test_too_few_sites_named(self, capsys, sites):
        assert main(["ring-design", "--g1", "1", "--c", "0.1", "--gamma", "4", "--sites", sites]) == 2
        assert capsys.readouterr().err == "error: a ring needs at least 3 sites\n"


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
        out, err = capsys.readouterr()
        assert out == ""  # the first chunk fails before the echo lines are written
        assert "indefinite" in err.lower()

    def test_ring_above_half_names_the_covariance(self, tmp_path, capsys):
        # the library's own message, with no Hurst rule of the CLI's added to it
        argv = ["sample", "--model", "ring", "--sites", "8", "--hurst", "0.7", "--out", str(tmp_path / "s.csv")]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "error: cannot sample: covariance is indefinite: smallest eigenvalue -1.862725e+00, "
            "tolerance 1.968659e-13\n"
        )
        assert sorted(tmp_path.iterdir()) == []

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


def per_value_write_csv(path, echo, header, rows):
    """The writer that formatted each value with an f-string and joined the
    whole table into one string; the row-template writer must match its bytes."""
    lines = [f"# {key}={value}" for key, value in echo.items()]
    lines.append(header)
    lines.extend(",".join(f"{float(v):.17g}" if isinstance(v, float) else str(v) for v in row) for row in rows)
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        path.write_text(text, newline="\n")


def awkward_values(rng, dim):
    """Rows spanning 1e-300..1e300, then subnormals, signed zeros and integral floats."""
    spread = rng.standard_normal((40, dim)) * 10.0 ** rng.integers(-300, 301, size=(40, dim))
    special = np.array([
        5e-324, -2.5e-320, 2.2250738585072014e-308, -0.0, 0.0, 1.0, -3.0, 2.0**52,
        1e16, 1e17, 123456789012345678.0, -1.7976931348623157e308, 0.1, 1 / 3,
    ])
    return np.concatenate((spread, np.resize(special, (-(-special.size // dim), dim))))


# Each series command with the row list its handler built before rows were
# streamed: exact ints in the first column, floats in the second.
SERIES = {
    "couplings-chain": (
        ["couplings", "--mode", "chain", "--monomers", "61", "--hurst", "0.3", "--center", "7"],
        lambda: [(i + 1, float(g)) for i, g in enumerate(chain_coupling_matrix(61, 0.3)[6]) if i != 6],
    ),
    "couplings-ring": (
        ["couplings", "--mode", "ring", "--monomers", "64", "--hurst", "0.2"],
        lambda: [(d + 1, float(g)) for d, g in enumerate(ring_coupling_profile(64, 0.2))],
    ),
    "spectrum-chain": (
        ["spectrum", "--mode", "chain", "--monomers", "33", "--hurst", "0.7"],
        lambda: list(enumerate(map(float, centrosymmetric_eigenvalues(chain_laplacian_rows(33, 0.7))))),
    ),
    "spectrum-g": (
        ["spectrum", "--sites", "12", "--g", "1,-0.05"],
        lambda: list(enumerate(map(float, fbmspring.ring_mode_spectrum(np.array([1.0, -0.05, 0, 0, 0, 0]), 12)))),
    ),
    "fourier-energy": (
        ["fourier-energy", "--hurst", "0.3", "--mode-max", "12"],
        lambda: [(m, fourier_mode_energy(0.3, m)) for m in range(1, 13)],
    ),
    "fourier-energy-blocks": (  # a series of two whole blocks and part of a third
        ["fourier-energy", "--hurst", "0.3", "--mode-max", str(2 * cli._FOURIER_MODES + 5)],
        lambda: [(m, fourier_mode_energy(0.3, m)) for m in range(1, 2 * cli._FOURIER_MODES + 6)],
    ),
}


class TestCsvWriter:
    @pytest.mark.parametrize("dim", [1, 2, 64])
    def test_rows_match_per_value_writer(self, tmp_path, capsys, rng, dim):
        values = awkward_values(rng, dim)
        echo = {"command": "sample", "paths": len(values), "hurst": "0.29999999999999999"}
        header = ",".join(f"v{i}" for i in range(dim))
        rows = [tuple(float(v) for v in row) for row in values]
        new, ref = tmp_path / "new.csv", tmp_path / "ref.csv"
        cli._write_csv(new, echo, header, [values])
        per_value_write_csv(ref, echo, header, rows)
        assert new.read_bytes() == ref.read_bytes()
        cli._write_csv(None, echo, header, [values])
        streamed = capsys.readouterr().out
        per_value_write_csv(None, echo, header, rows)
        assert streamed == capsys.readouterr().out == ref.read_text()

    @pytest.mark.parametrize("name", SERIES)
    def test_series_commands_match_per_value_writer(self, tmp_path, capsys, monkeypatch, name):
        argv, reference_rows = SERIES[name]
        calls = []
        write_csv = cli._write_csv

        def spy(path, echo, header, blocks):
            calls.append((echo, header))
            return write_csv(path, echo, header, blocks)

        monkeypatch.setattr(cli, "_write_csv", spy)
        out, ref = tmp_path / "series.csv", tmp_path / "ref.csv"
        assert main(argv + ["--out", str(out)]) == 0
        echo, header = calls[-1]
        per_value_write_csv(ref, echo, header, reference_rows())
        assert out.read_bytes() == ref.read_bytes()
        capsys.readouterr()
        assert main(argv) == 0
        assert capsys.readouterr().out == ref.read_text()


def formatted(block):
    """Every row of a 2-D block as the CSV writer formats it."""
    return b"".join(_blockformat.BlockFormatter().rows(block))


def percent_rows(values):
    """The per-row ``%`` loop that the block formatter replaced, as bytes."""
    template = ",".join(["%.17g"] * values.shape[1]) + "\n"
    return "".join(template % tuple(row) for row in values.tolist()).encode()


def exact_ties(rng, per_exponent=40):
    """Doubles that lie exactly halfway between two 17-digit decimals, for
    every fixed-notation exponent x in -4..15: odd / 2**(17 - x) times
    10**(16 - x) is odd / 2, and odd < 2**53 keeps the quotient exact."""
    ties = []
    for x in range(-4, 16):
        scale = 2 ** (17 - x)
        lo = -(-scale * 10 ** (x + 4) // 10**4)  # 10**x <= odd / scale < 10**(x + 1)
        hi = min(2**53, scale * 10 ** (x + 5) // 10**4)
        odd = rng.integers(lo // 2, hi // 2, size=per_exponent) * 2 + 1
        ties.extend(int(k) / scale for k in odd)
    return np.array(ties)


DECADES = np.array([float(f"1e{k}") for k in range(-5, 19)])
BOUNDARY = np.concatenate((
    DECADES,
    np.nextafter(DECADES, 0.0),
    np.nextafter(DECADES, np.inf),
    [
        9.9999999999999999e-5,  # rounds up into fixed notation
        99999999999999999.0,  # carries to 1e17
        1000000000000000.25, 1000000000000000.75,  # exact ties, half to even
        0.0, np.inf, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
    ],
))


class TestBlockFormatter:
    """The block formatter prints exactly what ``'%.17g' %`` prints, value by value."""

    def test_boundary_table(self):
        table = np.concatenate((BOUNDARY, -BOUNDARY, [np.nan, np.copysign(np.nan, -1.0)]))
        for dim in (1, 2, 16):
            block = np.resize(table, (-(-table.size // dim), dim))
            assert formatted(block) == percent_rows(block)

    def test_exact_ties_round_half_even(self, rng):
        ties = exact_ties(rng)
        block = np.concatenate((ties, -ties)).reshape(-1, 8)
        assert formatted(block) == percent_rows(block)
        pair = np.array([[1000000000000000.25, 1000000000000000.75]])
        assert formatted(pair) == b"1000000000000000.2,1000000000000000.8\n"

    @settings(max_examples=300)
    @given(st.lists(st.floats(), min_size=1, max_size=40))
    def test_any_float(self, values):
        block = np.array(values, dtype=np.float64).reshape(1, -1)
        assert formatted(block) == percent_rows(block)

    def test_random_bit_patterns(self):
        rng = np.random.default_rng(17)
        bits = rng.integers(0, 2**64, size=2**20, dtype=np.uint64)
        # three draws in four get an exponent in 2**-14..2**57, the fixed-notation range and its edges
        exponent_field = np.uint64(0x7FF << 52)
        exponents = rng.integers(1023 - 14, 1023 + 58, size=bits.size).astype(np.uint64) << np.uint64(52)
        fixed = rng.random(bits.size) < 0.75
        bits[fixed] = (bits[fixed] & ~exponent_field) | exponents[fixed]
        values = bits.view(np.float64).reshape(-1, 16)
        assert b"".join(formatted(block) for block in np.array_split(values, 64)) == percent_rows(values)

    @pytest.mark.parametrize("dim", [1, 2, 16, 64])
    def test_writer_blocks_match_percent_loop(self, tmp_path, capsys, rng, dim):
        rows = 2 * (_blockformat.BLOCK_VALUES // dim) + 3  # not a whole number of blocks
        values = np.cumsum(rng.standard_normal((rows, dim)), axis=1)
        values[::5, -1] = 0.0
        values[1::5, 0] = -0.0
        out = tmp_path / "s.csv"
        cli._write_csv(out, {"command": "sample"}, "h", [values])
        expected = b"# command=sample\nh\n" + percent_rows(values)
        assert out.read_bytes() == expected
        cli._write_csv(None, {"command": "sample"}, "h", [values])
        assert capsys.readouterr().out.encode() == expected

    @pytest.mark.parametrize("dim", [1, 2, 64, 257])
    def test_every_block_boundary(self, rng, dim):
        # three boundaries of the writer's blocks, each flanked by awkward values, and one
        # block that holds nan, +-inf, +-0, subnormals and values next to powers of ten
        block = _blockformat.BLOCK_VALUES
        rows = -(-(3 * block + 5) // dim)
        flat = np.cumsum(rng.standard_normal(rows * dim)) * 10.0 ** rng.integers(-6, 18, size=rows * dim)
        awkward = np.concatenate((BOUNDARY, -BOUNDARY, [np.nan, -np.nan, np.inf, -np.inf, -0.0, -5e-324]))
        flat[block + 7 : block + 7 + awkward.size] = rng.permutation(awkward)
        for edge in range(block, flat.size, block):
            flat[edge - 3 : edge + 3] = [0.0, 1e16, np.nan, -0.0, 9.9999999999999991e-5, -1e17]
        values = flat.reshape(rows, dim)
        pieces = list(_blockformat.BlockFormatter().rows(values))
        assert [piece.endswith(b"\n") for piece in pieces[:-1]] == [block % dim == 0] * 3  # 257 straddles
        assert b"".join(pieces) == percent_rows(values)


@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "file"])
def test_writer_draws_the_first_block_before_any_output(tmp_path, capsys, to_file):
    # a table whose first block fails leaves stdout empty and writes no file, partial or whole
    def blocks():
        raise errors.IndefiniteCovariance(-1.0, 1e-12)
        yield np.zeros((1, 1))

    out = tmp_path / "t.csv" if to_file else None
    with pytest.raises(errors.IndefiniteCovariance):
        cli._write_csv(out, {"command": "sample"}, "h", blocks())
    assert capsys.readouterr() == ("", "")
    assert list(tmp_path.iterdir()) == []


def test_writer_keeps_its_working_set_mapped(monkeypatch):
    # formatting a block reuses the pages of the one before instead of faulting in fresh ones
    resource = pytest.importorskip("resource")
    if not sys.platform.startswith("linux"):
        pytest.skip("minor fault counts are read on Linux")
    values = np.random.default_rng(5).standard_normal((31_250, 64))  # 2e6 values, 122 blocks
    with open(os.devnull, "w") as sink:
        monkeypatch.setattr(sys, "stdout", sink)
        cli._write_csv(None, {}, "h", [values[:1000]])
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        cli._write_csv(None, {}, "h", [values])
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults <= 2_000


@pytest.mark.parametrize("model", [
    ["--model", "reflected", "--grid", "64"],
    ["--model", "bridge", "--grid", "64"],
    ["--model", "chain", "--monomers", "65", "--hurst", "0.3"],
    ["--model", "ring", "--sites", "64", "--hurst", "0.3"],
], ids=lambda model: model[1])
def test_sample_memory_is_a_few_batches(tmp_path, model):
    paths, dim = 20_000, 64
    tracemalloc.start()
    try:
        argv = ["sample", *model, "--paths", str(paths), "--seed", "3", "--out", str(tmp_path / "s.csv")]
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a few row chunks and the report's Gram matrix; no whole batch and no text copy of the table
    assert peak < 5 * paths * dim * 8


def stream(model, dim):
    """Flags and echo lines of a ``dim``-column ``model`` sample, its sampler and input, and the report's covariance."""
    if model == "chain":
        return (["--monomers", str(dim + 1), "--hurst", "0.7"], {"monomers": dim + 1, "hurst": cli._fmt(0.7)},
                sample_toeplitz, chain_increment_row(dim, 0.7), toeplitz_dense(chain_increment_row(dim, 0.7)))
    if model == "ring":
        return (["--sites", str(dim), "--hurst", "0.3"], {"sites": dim, "hurst": cli._fmt(0.3)},
                sample_circulant, ring_increment_row(dim, 0.3), circulant_dense(ring_increment_row(dim, 0.3)))
    sampler = reflected_brownian_ring if model == "reflected" else brownian_bridge_ring
    grid = uniform_ring_grid(dim)
    return ["--grid", str(dim)], {"grid": dim}, sampler, grid, piecewise_ring_cov_matrix(grid)


@pytest.mark.parametrize("dim", [13, 64, 256])
@pytest.mark.parametrize("model", ["reflected", "bridge", "chain", "ring"])
def test_chunked_sample_equals_one_call_batch(tmp_path, model, dim):
    flags, echoed, sampler, first, reference = stream(model, dim)
    rows = cli._CHUNK_VALUES // dim
    for paths in (1, rows + 1, 2 * rows + 3):  # none a whole number of chunks
        out = tmp_path / f"{paths}.csv"
        assert main(["sample", "--model", model, *flags, "--paths", str(paths), "--seed", "7",
                     "--out", str(out)]) == 0
        batch = sampler(first, paths, 7)
        echo = f"# command=sample\n# model={model}\n# paths={paths}\n# seed=7\n"
        echo += "".join(f"# {key}={value}\n" for key, value in echoed.items())
        header = ",".join(f"v{i}" for i in range(dim)) + "\n"
        assert out.read_bytes() == (echo + header).encode() + percent_rows(batch.values)
        report = json.loads(out.with_suffix(".report.json").read_text())
        error = np.abs(empirical_covariance(batch) - reference)
        assert report["max_abs_error"] == pytest.approx(error.max(), rel=1e-12)


def test_stdout_ring_sample_holds_a_few_chunks(monkeypatch):
    # 65536 sites: a dense reference or Gram matrix would take 34 GB, a chunk is two paths
    tracemalloc.start()
    try:
        with open(os.devnull, "w") as sink:
            monkeypatch.setattr(sys, "stdout", sink)
            assert main(["sample", "--model", "ring", "--sites", "65536", "--hurst", "0.3", "--paths", "6"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * cli._CHUNK_VALUES * 8


#: One job of each subcommand and mode, by model family, and the eigvalsh calls of the family: two per chain spectrum.
GUARDED_JOBS = {
    "chain": ([
        ["couplings", "--mode", "chain", "--monomers", "33", "--hurst", "0.7"],
        ["spectrum", "--mode", "chain", "--monomers", "33", "--hurst", "0.7"],
        ["spectrum", "--mode", "chain", "--monomers", "33", "--hurst", "0.7", "--cov"],
        ["critical", "--monomers", "33"],
        ["sample", "--model", "chain", "--monomers", "65", "--hurst", "0.7", "--paths", "300"],
    ], 4),
    "ring": ([
        ["couplings", "--mode", "ring", "--monomers", "64", "--hurst", "0.3"],
        ["spectrum", "--mode", "ring", "--monomers", "64", "--hurst", "0.3"],
        ["spectrum", "--mode", "ring", "--monomers", "64", "--hurst", "0.3", "--cov"],
        ["spectrum", "--sites", "12", "--g", "1,-0.1"],
        ["ring-design", "--g1", "1", "--c", "0.1", "--gamma", "4", "--sites", "64"],
        ["fourier-energy", "--hurst", "0.3", "--mode-max", "20"],
        ["sample", "--model", "reflected", "--grid", "64", "--paths", "300"],
        ["sample", "--model", "bridge", "--grid", "64", "--paths", "300"],
        ["sample", "--model", "ring", "--sites", "64", "--hurst", "0.3", "--paths", "300"],
    ], 0),
}


@pytest.mark.parametrize("family", ["chain", "ring"])
def test_chain_and_ring_samples_need_no_eigensolver(tmp_path, monkeypatch, capsys, family):
    # no CLI route factors a dense matrix: every np.linalg routine but eigvalsh raises, and
    # eigvalsh serves only the two half blocks of a chain spectrum
    def fail(*args, **kwargs):
        raise AssertionError("a dense factorization was called")

    for name, value in vars(np.linalg).items():
        if callable(value) and not isinstance(value, type) and not name.startswith("_") and name != "eigvalsh":
            monkeypatch.setattr(np.linalg, name, fail)
    eigvalsh, shapes = np.linalg.eigvalsh, []
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: shapes.append(a.shape) or eigvalsh(a))
    jobs, eigvalsh_calls = GUARDED_JOBS[family]
    for i, argv in enumerate(jobs):
        assert main([*argv, "--out", str(tmp_path / f"{i}.out")]) == 0, argv
    assert main(jobs[-1]) == 0  # the sample again, to stdout with no report
    assert len(shapes) == eigvalsh_calls
    assert json.loads((tmp_path / f"{len(jobs) - 1}.report.json").read_text())["dim"] == 64


@pytest.mark.parametrize("argv, message", [
    (["couplings", "--mode", "ring", "--monomers", "64", "--hurst", "0.3", "--center", "5"],
     "--mode ring cannot be combined with --center"),
    (["sample", "--model", "ring", "--sites", "8", "--hurst", "0.3", "--monomers", "33"],
     "--model ring cannot be combined with --monomers"),
    (["sample", "--model", "chain", "--monomers", "9", "--hurst", "0.3", "--sites", "8"],
     "--model chain cannot be combined with --sites"),
    (["sample", "--model", "reflected", "--hurst", "0.3", "--monomers", "9"],
     "--model reflected cannot be combined with --monomers, --hurst"),
    (["sample", "--model", "bridge", "--grid", "8", "--sites", "8"], "--model bridge cannot be combined with --sites"),
], ids=["couplings-ring-center", "ring-monomers", "chain-sites", "reflected-monomers-hurst", "bridge-sites"])
def test_flags_a_model_would_ignore_are_rejected(tmp_path, monkeypatch, capsys, argv, message):
    # as spectrum rejects them; --grid has a default, so it is never told to be unused
    monkeypatch.chdir(tmp_path)
    assert main([*argv, "--out", "s.csv"]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["couplings", "--mode", "ring", "--monomers", "2", "--hurst", "0.3"],
    ["spectrum", "--mode", "ring", "--monomers", "2", "--hurst", "0.3"],
    ["spectrum", "--mode", "ring", "--monomers", "2", "--hurst", "0.3", "--cov"],
    ["spectrum", "--sites", "2", "--g", "1"],
    ["sample", "--model", "ring", "--sites", "2", "--hurst", "0.3"],
    ["ring-design", "--g1", "1", "--c", "0", "--gamma", "4", "--sites", "2"],
], ids=["couplings", "spectrum-energy", "spectrum-cov", "spectrum-g", "sample", "ring-design"])
def test_every_ring_route_names_the_ring_size_alike(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    assert main([*argv, "--out", "o.out"]) == 2
    assert capsys.readouterr() == ("", "error: a ring needs at least 3 sites\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("monomers", ["0", "1"])
@pytest.mark.parametrize("argv", [
    ["critical"],
    ["couplings", "--mode", "chain", "--hurst", "0.3"],
    ["spectrum", "--mode", "chain", "--hurst", "0.3"],
    ["spectrum", "--mode", "chain", "--hurst", "0.3", "--cov"],
    ["sample", "--model", "chain", "--hurst", "0.3"],
], ids=["critical", "couplings", "spectrum-energy", "spectrum-cov", "sample"])
def test_every_chain_route_names_the_chain_size_alike(tmp_path, monkeypatch, capsys, argv, monomers):
    monkeypatch.chdir(tmp_path)
    assert main([*argv, "--monomers", monomers, "--out", "o.out"]) == 2
    assert capsys.readouterr() == ("", "error: a chain needs at least 2 monomers\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, message", [
    (["spectrum", "--g-file", "none.txt"],
     "cannot read --g-file none.txt: [Errno 2] No such file or directory: 'none.txt'"),
    (["spectrum", "--g-file", "m.txt", "--sites", "8"], "--g-file m.txt:2: malformed model line 'x=1': unknown key 'x'"),
    (["spectrum", "--g", "1"], "ring size missing: pass --sites or an N= line in --g-file"),
    (["spectrum", "--sites", "2", "--g", "1"], "a ring needs at least 3 sites"),
    (["spectrum", "--sites", "6", "--g", "1,2,3,4"], "got 4 couplings but a ring of 6 sites has only 3 distinct distances"),
    (["spectrum", "--mode", "chain", "--monomers", "9"], "chain spectrum needs --monomers and --hurst"),
    (["sample", "--model", "reflected", "--paths", "0"], "--paths must be >= 1"),
    (["sample", "--model", "chain", "--hurst", "0.3"], "chain sampling needs --monomers and --hurst"),
    (["sample", "--model", "ring", "--sites", "8"], "ring sampling needs --sites and --hurst"),
    (["sample", "--model", "bridge", "--grid", "1"], "need at least 2 grid points"),
    (["fourier-energy", "--hurst", "0.3", "--mode-max", "0"], "--mode-max must be >= 1"),
], ids=["g-file-unreadable", "g-file-unknown-key", "ring-size-missing", "ring-size-below-3", "too-many-g",
        "chain-spectrum-no-hurst", "paths-0", "chain-sample-no-flags", "ring-sample-no-flags", "grid-1", "mode-max-0"])
def test_rejected_input_writes_nothing(tmp_path, monkeypatch, capsys, argv, message):
    monkeypatch.chdir(tmp_path)
    Path("m.txt").write_text("N=8\nx=1\n")
    assert main([*argv, "--out", "o.csv"]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.txt"]


@pytest.mark.parametrize("argv, message", [
    (["sample", "--model", "ring", "--sites", "65536", "--hurst", "0.3", "--paths", "1"],
     "the covariance report of 65536 values per path would need about 256.0 GiB, over the 2 GiB budget for "
     "dense intermediates; write the samples to stdout, without --out or --report, to stream them without a report"),
    (["spectrum", "--mode", "chain", "--monomers", "65537", "--hurst", "0.3"],
     "the chain spectrum of 65537 monomers would need about 32.0 GiB, over the 2 GiB budget for dense "
     "intermediates; a chain of at most 16384 monomers fits"),
    (["spectrum", "--mode", "chain", "--monomers", "65537", "--hurst", "0.3", "--cov"],
     "the chain spectrum of 65537 monomers would need about 16.0 GiB, over the 2 GiB budget for dense "
     "intermediates; a chain of at most 23170 monomers fits"),
], ids=["ring-report", "chain-spectrum", "chain-cov-spectrum"])
def test_oversized_dense_intermediate_is_rejected_before_anything_runs(tmp_path, argv, message):
    # in a child capped at 4 GiB of address space, so that a run that does allocate fails fast;
    # numpy's own "Unable to allocate" message is not the budget message and fails the test
    src = Path(fbmspring.__file__).resolve().parents[1]
    code = ("import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30)); "
            "from fbmspring.cli import main; sys.exit(main(sys.argv[1:]))")
    env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"}
    result = subprocess.run([sys.executable, "-c", code, *argv, "--out", "big.csv"], cwd=tmp_path, env=env,
                            capture_output=True, text=True, timeout=60)
    assert (result.returncode, result.stdout, result.stderr) == (2, "", f"error: {message}\n")
    assert list(tmp_path.iterdir()) == []


def test_largest_chain_within_the_budget_passes_the_check(monkeypatch, capsys):
    # 8 m^2 bytes: 16384 monomers is exactly 2 GiB and passes; one more is rejected
    def stop(monomers, hurst, start, stop):
        raise ValueError("past the budget check")

    monkeypatch.setattr(couplings, "chain_coupling_rows", stop)
    assert main(["spectrum", "--mode", "chain", "--monomers", "16384", "--hurst", "0.3"]) == 2
    assert capsys.readouterr().err == "error: past the budget check\n"
    assert main(["spectrum", "--mode", "chain", "--monomers", "16385", "--hurst", "0.3"]) == 2
    assert "16385 monomers would need about 2.0 GiB, over the 2 GiB budget" in capsys.readouterr().err


def test_reflected_sample_memory_is_flat_in_paths(tmp_path):
    peaks = []
    for paths in (20_000, 200_000):
        tracemalloc.start()
        try:
            argv = ["sample", "--model", "reflected", "--grid", "16", "--paths", str(paths), "--seed", "3",
                    "--out", str(tmp_path / "s.csv")]
            assert main(argv) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.2 * peaks[0]


def test_fourier_energy_memory_is_flat_in_modes(tmp_path, monkeypatch):
    # the series goes out in blocks; a cheap stand-in for the energy keeps the traced run short
    monkeypatch.setattr(sampling, "fourier_mode_energy", lambda hurst, mode: hurst / mode**2)
    argv = ["fourier-energy", "--hurst", "0.3", "--out", str(tmp_path / "f.csv")]
    assert main(argv + ["--mode-max", "1"]) == 0  # the formatter's tables are built before tracing
    peaks = []
    for modes in (20_000, 200_000):
        tracemalloc.start()
        try:
            assert main(argv + ["--mode-max", str(modes)]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.2 * peaks[0]


def fail_on_second_chunk(monkeypatch, error):
    """Make the reflected sampler the CLI calls raise ``error`` when asked for its second row chunk."""
    chunks = []

    def sampler(grid, paths, rng):
        chunks.append(paths)
        if len(chunks) == 2:
            raise error
        return reflected_brownian_ring(grid, paths, rng)

    monkeypatch.setattr(sampling, "reflected_brownian_ring", sampler)
    return chunks


def test_failed_sample_leaves_no_files(tmp_path, monkeypatch, capsys):
    # --grid 64 makes 2048-row chunks; the first is written before the second fails
    chunks = fail_on_second_chunk(monkeypatch, MemoryError())
    argv = ["sample", "--model", "reflected", "--grid", "64", "--paths", "5000", "--out", str(tmp_path / "s.csv")]
    assert main(argv) == 2
    assert chunks == [2048, 2048]
    assert capsys.readouterr().err.startswith("error: ")
    assert sorted(tmp_path.iterdir()) == []  # no CSV, no .partial, no report, no manifest


def test_interrupted_sample_keeps_the_previous_output(tmp_path, monkeypatch):
    out = tmp_path / "s.csv"
    argv = ["sample", "--model", "reflected", "--grid", "64", "--paths", "5000", "--out", str(out)]
    assert main(argv) == 0
    before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    fail_on_second_chunk(monkeypatch, KeyboardInterrupt())
    with pytest.raises(KeyboardInterrupt):
        main(argv + ["--seed", "1"])
    assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before


@pytest.mark.parametrize("argv", [
    ["couplings", "--mode", "chain", "--monomers", "11", "--hurst", "0.3", "--gnuplot", "--out", "a.csv"],
    ["spectrum", "--sites", "8", "--g", "0.7", "--gnuplot", "--out", "a.csv"],
    ["critical", "--monomers", "21", "--out", "a.json"],
    ["ring-design", "--g1", "7", "--c", "1", "--gamma", "4", "--sites", "32", "--out", "a.json"],
    ["sample", "--model", "bridge", "--grid", "8", "--paths", "20", "--out", "a.csv"],
    ["sample", "--model", "bridge", "--grid", "8", "--paths", "20", "--out", "a.csv", "--report", "r.json"],
    ["fourier-energy", "--hurst", "0.3", "--mode-max", "4", "--gnuplot", "--out", "a.csv"],
], ids=["couplings-gnuplot", "spectrum-gnuplot", "critical", "ring-design", "sample", "sample-report",
        "fourier-energy-gnuplot"])
def test_manifest_lists_every_other_file(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0
    manifest = json.loads((tmp_path / "a.manifest.json").read_text())
    assert manifest["command"] == argv[0]
    assert sorted(manifest["outputs"]) == sorted(p.name for p in tmp_path.iterdir() if p.name != "a.manifest.json")


def test_interrupted_json_keeps_the_previous_output(tmp_path, monkeypatch):
    argv = ["critical", "--monomers", "21", "--out", str(tmp_path / "c.json")]
    assert main(argv) == 0
    before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    assert sorted(before) == ["c.json", "c.manifest.json"]

    def interrupt(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli.json, "dumps", interrupt)
    with pytest.raises(KeyboardInterrupt):
        main(argv + ["--tol", "1e-8"])
    assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before


@pytest.mark.parametrize("argv, out", [
    (["couplings", "--mode", "chain", "--monomers", "11", "--hurst", "0.3"], "nodir/c.csv"),
    (["critical", "--monomers", "21"], "nodir/c.json"),
], ids=["csv", "json"])
def test_missing_directory_names_the_requested_file(tmp_path, monkeypatch, capsys, argv, out):
    monkeypatch.chdir(tmp_path)
    assert main(argv + ["--out", out]) == 2
    assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: '{out}'\n"
    assert sorted(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, message", [
    (["sample", "--model", "reflected", "--grid", "4", "--paths", "3", "--out", "s.csv", "--report", "./s.csv"],
     "--out and --report would both be written to s.csv"),
    (["spectrum", "--sites", "6", "--g", "1", "--out", "x.gp", "--gnuplot"],
     "--out and the gnuplot script would both be written to x.gp"),
    (["sample", "--model", "reflected", "--grid", "4", "--paths", "3", "--out", "t.csv", "--report", "t.manifest.json"],
     "--report and the manifest would both be written to t.manifest.json"),
], ids=["report-is-out", "script-is-out", "report-is-manifest"])
def test_outputs_on_one_path_are_rejected_before_writing(tmp_path, monkeypatch, capsys, argv, message):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert sorted(tmp_path.iterdir()) == []


def test_stdout_stringio_and_file_give_the_same_bytes(tmp_path, capsys):
    argv = ["sample", "--model", "bridge", "--grid", "16", "--paths", "9000", "--seed", "4"]
    assert main(argv + ["--out", str(tmp_path / "s.csv")]) == 0
    expected = (tmp_path / "s.csv").read_bytes()
    print("before", end="")  # text printed before the rows stays ahead of them
    assert main(argv) == 0
    assert capsys.readouterr().out.encode() == b"before" + expected
    with contextlib.redirect_stdout(io.StringIO()) as text:
        assert main(argv) == 0
    assert text.getvalue().encode() == expected


@pytest.mark.parametrize("model", ["reflected", "bridge"])
def test_ring_sampling_leaves_numpy_ma_unimported(tmp_path, model):
    src = Path(fbmspring.__file__).resolve().parents[1]
    code = "import sys; from fbmspring.cli import main; main(sys.argv[1:]); sys.exit('numpy.ma' in sys.modules)"
    argv = ["sample", "--model", model, "--grid", "13", "--paths", "5", "--out", str(tmp_path / "s.csv")]
    result = subprocess.run([sys.executable, "-c", code, *argv], env={**os.environ, "PYTHONPATH": str(src)},
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr or "sampling imported numpy.ma"


#: Each route's argv, exit code and the package modules it loads besides the package, cli, errors and kernels.
ROUTES = {
    "couplings-chain": (["couplings", "--mode", "chain", "--monomers", "61", "--hurst", "0.3"], 0,
                        {"couplings", "linalg", "_blockformat"}),
    "couplings-ring": (["couplings", "--mode", "ring", "--monomers", "64", "--hurst", "0.3"], 0,
                       {"circulant", "rings", "_blockformat"}),
    "couplings-ring-rejected": (["couplings", "--mode", "ring", "--monomers", "64", "--hurst", "0.7"], 2,
                                {"circulant", "rings"}),
    "spectrum-ring": (["spectrum", "--mode", "ring", "--monomers", "64", "--hurst", "0.3"], 0,
                      {"circulant", "rings", "_blockformat"}),
    "spectrum-ring-cov": (["spectrum", "--mode", "ring", "--monomers", "64", "--hurst", "0.3", "--cov"], 0,
                          {"circulant", "_blockformat"}),
    "spectrum-g": (["spectrum", "--sites", "12", "--g", "1,-0.05"], 0, {"circulant", "_blockformat"}),
    "spectrum-chain": (["spectrum", "--mode", "chain", "--monomers", "61", "--hurst", "0.3"], 0,
                       {"couplings", "linalg", "_blockformat"}),
    "spectrum-chain-cov": (["spectrum", "--mode", "chain", "--monomers", "61", "--hurst", "0.3", "--cov"], 0,
                           {"linalg", "_blockformat"}),
    "critical": (["critical"], 0, {"couplings", "critical", "linalg"}),
    "critical-no-sign-change": (["critical", "--offset", "1"], 3, {"couplings", "critical", "linalg"}),
    "ring-design": (["ring-design", "--g1", "1", "--c", "0.1", "--gamma", "4", "--sites", "64"], 0,
                    {"circulant", "rings"}),
    "sample": (["sample", "--model", "chain", "--monomers", "17", "--hurst", "0.3", "--paths", "5"], 0,
               {"circulant", "sampling", "_blockformat"}),
    "fourier-energy": (["fourier-energy", "--hurst", "0.3"], 0, {"circulant", "sampling", "_blockformat"}),
}


@pytest.mark.parametrize("route", ROUTES)
def test_each_route_loads_only_the_layers_it_runs(route):
    argv, code, layers = ROUTES[route]
    src = Path(fbmspring.__file__).resolve().parents[1]
    script = ("import sys; from fbmspring.cli import main; status = main(sys.argv[1:]); "
              "print(status, *sorted(m for m in sys.modules if m.partition('.')[0] == 'fbmspring'), file=sys.stderr)")
    result = subprocess.run([sys.executable, "-c", script, *argv], env={**os.environ, "PYTHONPATH": str(src)},
                            capture_output=True, text=True, timeout=120)
    status, *modules = result.stderr.splitlines()[-1].split()
    assert int(status) == code
    always = {"fbmspring", "fbmspring.cli", "fbmspring.errors", "fbmspring.kernels"}
    assert set(modules) == always | {f"fbmspring.{layer}" for layer in layers}


class TestArgumentValidation:
    def test_bad_monomer_count(self, capsys):
        # the library owns the minimums: a chain needs 2 monomers, a ring 3 sites
        assert main(["couplings", "--mode", "chain", "--monomers", "1", "--hurst", "0.3"]) == 2
        assert capsys.readouterr() == ("", "error: a chain needs at least 2 monomers\n")
        assert main(["couplings", "--mode", "ring", "--monomers", "2", "--hurst", "0.3"]) == 2
        assert capsys.readouterr() == ("", "error: a ring needs at least 3 sites\n")

    @pytest.mark.parametrize("hurst", ["0.3", "0.7"])
    def test_two_monomer_chain_has_one_coupling(self, capsys, hurst):
        # as spectrum, critical and sample accept it: g_01 = 1/2 at every H
        assert main(["couplings", "--mode", "chain", "--monomers", "2", "--hurst", hurst]) == 0
        out, err = capsys.readouterr()
        assert err == "" and out.splitlines()[-2:] == ["index,g", "2,0.5"]

    def test_bad_hurst(self, capsys):
        assert main(["couplings", "--mode", "chain", "--monomers", "11", "--hurst", "1.7"]) == 2

    def test_spectrum_needs_a_model(self, capsys):
        assert main(["spectrum", "--sites", "12"]) == 2

    def test_center_bounds(self, capsys):
        assert main([
            "couplings", "--mode", "chain", "--monomers", "11",
            "--hurst", "0.3", "--center", "12",
        ]) == 2

    @pytest.mark.parametrize("center", [0, 62])
    def test_center_off_a_61_monomer_chain(self, capsys, center):
        argv = ["couplings", "--mode", "chain", "--monomers", "61", "--hurst", "0.3", "--center", str(center)]
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"error: --center must lie in 1..61, got {center}\n")

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


class TestSeedFlag:
    @pytest.mark.parametrize("seed", ["-1", str(2**128)])
    def test_out_of_range_seed_names_the_flag(self, capsys, seed):
        code, err = parse_error(["sample", "--model", "reflected", "--seed", seed], capsys)
        assert code == 2 and f"argument --seed: must satisfy 0 <= seed < 2**128, got {seed}" in err

    def test_malformed_seed_keeps_int_message(self, capsys):
        code, err = parse_error(["sample", "--model", "reflected", "--seed", "1.5"], capsys)
        assert code == 2 and "argument --seed: invalid int value: '1.5'" in err

    def test_largest_seed_samples_and_is_recorded(self, tmp_path):
        seed = 2**128 - 1
        out = tmp_path / "s.csv"
        argv = ["sample", "--model", "bridge", "--grid", "8", "--paths", "5", "--seed", str(seed), "--out", str(out)]
        assert main(argv) == 0
        manifest = json.loads(out.with_suffix(".manifest.json").read_text())
        assert manifest["seed"] == manifest["parameters"]["seed"] == seed
        assert read_csv(out)[0]["seed"] == str(seed)


class TestExitStatus:
    @pytest.mark.parametrize("exc, prefix, code", [
        (IndefiniteCovariance(-1.0, 1e-9), "error", 2),
        (ValueError("out of range"), "error", 2),
        (IndexError("no such monomer"), "error", 2),
        (FileNotFoundError("no such file"), "error", 2),
        (NoSignChange("same sign"), "no result", 3),
        (NotPositiveDefinite(pivot_index=1, pivot_value=0.0), "numerical failure", 4),
        (MissingRingModes([2], 0.0, 1e-15, 6, 0.5), "error", 2),
        (errors.FbmSpringError("LAPACK eigvalsh did not converge"), "numerical failure", 4),
        (QuadratureFailure(1.0, 1.0, 1e-10), "numerical failure", 4),
    ], ids=lambda value: type(value).__name__ if isinstance(value, Exception) else None)
    def test_error_class_sets_prefix_and_code(self, monkeypatch, capsys, exc, prefix, code):
        def fail(args):
            raise exc

        monkeypatch.setattr(cli, "_cmd_fourier_energy", fail)
        assert main(["fourier-energy", "--hurst", "0.5"]) == code
        assert capsys.readouterr().err == f"{prefix}: {exc}\n"

    def test_errors_that_reject_a_model_are_value_errors(self):
        # one class per failure a caller can tell apart; every other rejection is a plain ValueError
        classes = {cls for cls in vars(errors).values() if isinstance(cls, type)}
        assert classes == {errors.FbmSpringError, IndefiniteCovariance, MissingRingModes, NoSignChange,
                           NotPositiveDefinite, QuadratureFailure}
        for cls in classes:
            assert issubclass(cls, ValueError) == (cls in {IndefiniteCovariance, MissingRingModes}), cls.__name__
        assert not issubclass(MissingRingModes, NotPositiveDefinite)

    def test_out_of_memory_is_invalid_input(self, monkeypatch, capsys):
        message = "Unable to allocate 3.64 TiB for an array with shape (10000000000, 50) and data type float64"

        def fail(t_grid, paths, seed):
            raise MemoryError(message)

        monkeypatch.setattr(sampling, "reflected_brownian_ring", fail)
        assert main(["sample", "--model", "reflected", "--grid", "64", "--paths", "10000000000"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_eigensolver_failure_exits_numerical(self, monkeypatch, capsys):
        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        assert main(["spectrum", "--mode", "chain", "--monomers", "5", "--hurst", "0.3", "--cov"]) == 4
        assert capsys.readouterr().err.startswith("numerical failure: LAPACK eigvalsh did not converge")


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


def test_exit_freezes_the_import_time_objects():
    # atexit runs its hooks last-in first-out, so a hook registered before main runs after main's
    script = (
        "import atexit, gc, sys\n"
        "atexit.register(lambda: print('frozen at exit:', gc.get_freeze_count() > 0))\n"
        "from fbmspring.cli import main\n"
        "main(['fourier-energy', '--hurst', '0.3', '--mode-max', '2'])\n"
        "print('frozen after main:', gc.get_freeze_count() > 0)\n"
        "sys.exit(main(['critical', '--monomers', '11']))\n"
    )
    src = Path(fbmspring.__file__).resolve().parents[1]
    result = subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": str(src)},
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert "frozen after main: False" in lines
    assert lines[-1] == "frozen at exit: True"
    assert json.loads("\n".join(lines[lines.index("frozen after main: False") + 1 : -1]))["iterations"] == 19


def test_module_runs_as_a_script():
    src = Path(fbmspring.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    critical = subprocess.run([sys.executable, "-m", "fbmspring.cli", "critical"], env=env,
                              capture_output=True, text=True, timeout=120)
    assert critical.returncode == 0, critical.stderr
    assert json.loads(critical.stdout)["h_star"] == pytest.approx(0.75964, abs=1e-4)
    version = subprocess.run([sys.executable, "-m", "fbmspring.cli", "--version"], env=env,
                             capture_output=True, text=True, timeout=120)
    assert (version.returncode, version.stdout) == (0, f"fbmspring {fbmspring.__version__}\n")


def test_closed_pipe_exits_141_with_empty_stderr():
    # `fbmspring sample ... | head -1`: the reader leaves after one line, and nothing is wrong with the run
    src = Path(fbmspring.__file__).resolve().parents[1]
    argv = ["sample", "--model", "reflected", "--grid", "64", "--paths", "100000"]
    writer = subprocess.Popen([sys.executable, "-c", "from fbmspring.cli import run; run()", *argv],
                              env={**os.environ, "PYTHONPATH": str(src)},
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert writer.stdout.readline() == b"# command=sample\n"
    writer.stdout.close()
    status = writer.wait(timeout=120)
    assert (status, writer.stderr.read()) == (cli.EXIT_BROKEN_PIPE, b"")
    writer.stderr.close()


def test_broken_pipe_is_not_invalid_input(monkeypatch, capsys):
    def reader_left(args):
        raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(cli, "_cmd_fourier_energy", reader_left)
    assert main(["fourier-energy", "--hurst", "0.3"]) == 141
    assert capsys.readouterr().err == ""
