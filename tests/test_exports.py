"""The package exports exactly what its modules declare public."""

import importlib
import inspect

import polariton_mbc

# the package star-imports these eight modules
PHYSICS = ("cavity", "dielectric", "fluct", "greens", "hopfield", "iomodel")
SUPPORT = ("errors", "tables")


def test_every_exported_name_resolves():
    missing = [name for name in polariton_mbc.__all__ if not hasattr(polariton_mbc, name)]
    assert missing == []


def test_exported_names_are_unique():
    names = polariton_mbc.__all__
    assert sorted(names) == sorted(set(names))


def test_exports_are_the_packages_own_classes_and_functions():
    # a re-exported module without __all__ would also leak np, Sequence, ...
    foreign = [
        name
        for name in polariton_mbc.__all__
        for obj in [getattr(polariton_mbc, name)]
        if not (inspect.isclass(obj) or inspect.isfunction(obj))
        or not obj.__module__.startswith("polariton_mbc.")
    ]
    assert foreign == []


def _assert_export_through_the_package(modules):
    exported = set(polariton_mbc.__all__)
    for name in modules:
        module = importlib.import_module(f"polariton_mbc.{name}")
        assert isinstance(module.__dict__.get("__all__"), list), name
        assert set(module.__all__) <= exported, name
        for attr in module.__all__:
            assert getattr(polariton_mbc, attr) is getattr(module, attr), (name, attr)


def test_physics_modules_export_through_the_package():
    _assert_export_through_the_package(PHYSICS)


def test_support_modules_export_through_the_package():
    _assert_export_through_the_package(SUPPORT)
