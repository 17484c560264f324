"""The public surface is what the paper pipeline uses, and nothing else."""

import ast
import importlib
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import fbmspring

PUBLIC = [
    "__version__",
    # linalg
    "default_tol_pd", "require_symmetric",
    # kernels
    "chain_increment_row", "ring_increment_row",
    # couplings
    "chain_coupling_matrix", "coupling_laplacian", "coupling_slice", "couplings_from_energy",
    "energy_from_couplings",
    # circulant
    "circulant_eigenvalues", "mirrored_distance_row", "ring_mode_spectrum",
    # rings
    "AdmissibilityReport", "PowerLawDesign", "check_admissible", "power_law_ring",
    "ring_coupling_profile", "single_distance_bound", "stiff_sufficient_bound",
    "zeta_minus_one_tail",
    # critical
    "coupling_at", "find_critical_hurst",
    # sampling
    "SampleBatch", "brownian_bridge_ring", "covariance_bound", "fourier_mode_energy",
    "piecewise_ring_cov_matrix", "reflected_brownian_ring", "sample_circulant", "sample_toeplitz",
    "uniform_ring_grid",
    # errors
    "FbmSpringError", "IndefiniteCovariance", "MissingRingModes", "NoSignChange", "NotPositiveDefinite",
    "QuadratureFailure",
]

SRC = Path(fbmspring.__file__).resolve().parent
MODULES = sorted(path.stem for path in SRC.glob("*.py") if path.stem != "__init__")
ENTRY_POINTS = {("cli", "build_parser"), ("cli", "main"), ("cli", "run")}


def referenced_names(module: str) -> set[str]:
    """Every name a module's code reads, imports or takes as an attribute."""
    names = set()
    for node in ast.walk(ast.parse((SRC / f"{module}.py").read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def test_all_is_the_pinned_list():
    assert len(PUBLIC) == len(set(PUBLIC)) == 38
    assert fbmspring.__all__ == PUBLIC
    for name in PUBLIC:
        assert getattr(fbmspring, name) is not None


LAYERS = ("cli", "kernels", "linalg", "couplings", "critical", "circulant", "rings", "sampling")


def test_import_loads_errors_and_kernels_only():
    # every other layer is imported on first access, and numpy with kernels
    script = ("import sys, fbmspring; "
              "print(*sorted(m for m in sys.modules if m.partition('.')[0] == 'fbmspring'), 'numpy' in sys.modules); "
              "fbmspring.ring_mode_spectrum; "
              "print(*sorted(m for m in sys.modules if m.partition('.')[0] == 'fbmspring'))")
    result = subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": str(SRC.parent)},
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == ["fbmspring fbmspring.errors fbmspring.kernels True",
                                          "fbmspring fbmspring.circulant fbmspring.errors fbmspring.kernels"]


def test_every_name_is_its_module_object():
    for name in PUBLIC[1:]:  # all but __version__
        value = getattr(fbmspring, name)
        module = importlib.import_module(value.__module__)
        assert module.__name__.rsplit(".", 1)[1] in LAYERS + ("errors",), name
        assert getattr(module, name) is value, name


def test_layers_resolve_and_dir_covers_all():
    for layer in LAYERS:
        assert getattr(fbmspring, layer) is importlib.import_module(f"fbmspring.{layer}")
    assert set(PUBLIC) <= set(dir(fbmspring))
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        fbmspring.no_such_name


def test_every_public_function_is_exported_or_called():
    references = {module: referenced_names(module) for module in MODULES}
    orphans = []
    for module in MODULES:
        namespace = importlib.import_module(f"fbmspring.{module}")
        for name, value in vars(namespace).items():
            if name.startswith("_") or not inspect.isfunction(value) or value.__module__ != namespace.__name__:
                continue
            called = any(name in references[other] for other in MODULES if other != module)
            if name not in PUBLIC and not called and (module, name) not in ENTRY_POINTS:
                orphans.append(f"{module}.{name}")
    assert orphans == []


def test_removed_names_stay_removed():
    removed = {
        "Circulant", "circulant_eigenvector_basis", "ring_lambda", "position_and_increment_spectra",
        "geodesic_distance", "build_distance_circulant", "MaxIterations", "ring_position_cov",
        "ring_laplacian_circulant", "uniform_grid_increment_cov", "grid_increments",
        "empirical_covariance", "_ring_increment_row", "default_admissibility_tol",
        "ChainModel", "RingGeometry", "CouplingProfile", "RingModel",
        "_geodesic_array", "_ring_profile", "piecewise_ring_cov",
        "CLOSED_FORM_MODE", "_endpoint_series", "_adaptive_cos_quad", "_gauss_kronrod_panel", "heapq",
        "sample_gaussian", "_product", "_exact_digits",
        "Definiteness", "DefinitenessVerdict", "classify_definiteness", "eigen_sym", "toeplitz_inverse",
        "chain_increment_cov", "ring_increment_cov", "spectrum_tol",
        "NotSymmetricCirculant", "DivergentSeries", "NonpositiveG1", "InvalidExponent", "CliInputError",
        "SignChangeQuery", "NoConvergence",
    }
    for module in MODULES:
        assert removed.isdisjoint(vars(importlib.import_module(f"fbmspring.{module}"))), module
    assert "linalg" not in referenced_names("rings") | referenced_names("sampling")


def test_version_is_the_pyproject_version():
    # the version string lives in __init__ alone: pyproject reads it from there (no tomllib on 3.10)
    pyproject = (SRC.parents[1] / "pyproject.toml").read_text()
    assert re.search(r'^dynamic = \[.*"version".*\]$', pyproject, flags=re.MULTILINE)
    assert re.search(r'^version = \{ ?attr = "fbmspring\.__version__" ?\}$', pyproject, flags=re.MULTILINE)
    assert not re.search(r'^version = "', pyproject, flags=re.MULTILINE)
    assert re.fullmatch(r"\d+\.\d+\.\d+", fbmspring.__version__)
