"""The package's public names: everything exported resolves, nothing stale remains."""

import importlib
import pkgutil

import pytest

import prismradio

# back ends of the console script, not library API
_NOT_REEXPORTED = {"cli", "selftest"}

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
        "normalize_vertex", "cycle_view", "principal_cycle",
    ],
)
def test_removed_names_stay_removed(name):
    assert not hasattr(prismradio, name)
