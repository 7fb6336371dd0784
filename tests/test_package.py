"""The package root's export table, ``madkit.__all__``, the packaging
metadata in ``pyproject.toml`` and the line width of the sources."""

import importlib
import pkgutil
import warnings
from pathlib import Path
from types import ModuleType

import pytest

import madkit

EXPORTS = [name for name in madkit.__all__ if name != "__version__"]
SUBMODULES = [
    importlib.import_module(f"madkit.{info.name}")
    for info in pkgutil.iter_modules(madkit.__path__)
]


def test_all_has_no_duplicates_and_holds_the_version():
    assert len(set(madkit.__all__)) == len(madkit.__all__)
    assert "__version__" in madkit.__all__
    assert isinstance(madkit.__version__, str)


def test_every_export_is_the_object_its_submodule_defines():
    for name in EXPORTS:
        value = getattr(madkit, name)
        homes = [m.__name__ for m in SUBMODULES if getattr(m, name, None) is value]
        assert homes, f"madkit.{name} is in no submodule"


def test_no_export_is_a_module():
    for name in EXPORTS:
        assert not isinstance(getattr(madkit, name), ModuleType), name


def test_all_is_every_public_attribute_but_the_submodules():
    public = {
        name
        for name, value in vars(madkit).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert set(madkit.__all__) == public | {"__version__"}


def test_pyproject_metadata_reads_with_the_installed_setuptools():
    pyprojecttoml = pytest.importorskip("setuptools.config.pyprojecttoml")
    path = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # [tool.setuptools] is "beta" in 65.x
        project = pyprojecttoml.read_configuration(path, expand=True)["project"]
    assert project["version"] == madkit.__version__
    module, _, name = project["scripts"]["madkit"].partition(":")
    assert (module, name) == ("madkit.cli", "main")
    assert getattr(importlib.import_module(module), name) is madkit.cli.main


def test_build_requirement_admits_the_installed_setuptools():
    setuptools = pytest.importorskip("setuptools")
    requirements = pytest.importorskip("packaging.requirements")
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    path = Path(__file__).resolve().parents[1] / "pyproject.toml"
    (wanted,) = tomllib.loads(path.read_text())["build-system"]["requires"]
    requirement = requirements.Requirement(wanted)
    assert requirement.name == "setuptools"
    assert requirement.specifier.contains(setuptools.__version__)


def test_source_lines_fit_88_columns():
    package = Path(__file__).resolve().parents[1] / "src" / "madkit"
    sources = sorted(package.glob("*.py"))
    assert sources
    long = [
        f"{path.name}:{number}"
        for path in sources
        for number, line in enumerate(path.read_text("utf-8").splitlines(), 1)
        if len(line) > 88
    ]
    assert not long, f"lines over 88 columns: {long}"
