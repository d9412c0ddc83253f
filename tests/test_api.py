"""The package's public names: everything exported resolves, nothing stale remains."""

import importlib
import pkgutil
import tomllib
from pathlib import Path

import pytest

import prismradio

# back ends of the console script, not library API
_NOT_REEXPORTED = {"__main__", "cli", "selftest"}

_LIBRARY_MODULES = sorted(
    m.name for m in pkgutil.iter_modules(prismradio.__path__) if m.name not in _NOT_REEXPORTED
)


def test_every_exported_name_resolves():
    missing = [name for name in prismradio.__all__ if not hasattr(prismradio, name)]
    assert missing == []
    assert len(set(prismradio.__all__)) == len(prismradio.__all__)


@pytest.mark.parametrize("module", _LIBRARY_MODULES)
def test_submodule_exports_are_reexported(module):
    mod = importlib.import_module(f"prismradio.{module}")
    for name in mod.__all__:
        assert name in prismradio.__all__, f"prismradio.{module}.{name} not re-exported"
        assert getattr(prismradio, name) is getattr(mod, name)


def test_library_modules_are_the_expected_ones():
    assert _LIBRARY_MODULES == ["bounds", "exact", "graphs", "labeling", "verification"]


@pytest.mark.parametrize(
    "name",
    [
        "CycleView", "position_case1", "position_case2", "position_case3", "position_case4",
        "normalize_vertex", "cycle_view", "principal_cycle", "SearchConfig",
        "standard_cycle", "is_v_tight", "triple_bound_violations", "d_offset", "omega",
    ],
)
def test_removed_names_stay_removed(name):
    assert not hasattr(prismradio, name)


@pytest.mark.parametrize("owner,name", [(prismradio.PrismGraph, "vertex_at"),
                                        (prismradio.VerificationReport, "to_dict")])
def test_removed_methods_stay_removed(owner, name):
    # orders are vertex-index arrays, and the CLI streams the report's JSON
    # from its pairs; tests/reference.py holds the report document
    assert not hasattr(owner, name)


def test_version_matches_pyproject():
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    with pyproject.open("rb") as fh:
        assert prismradio.__version__ == tomllib.load(fh)["project"]["version"]
