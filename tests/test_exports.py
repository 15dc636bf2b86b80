"""The package's export lists agree with the physics modules'."""

import importlib

import polariton_mbc

PHYSICS = ("cavity", "dielectric", "fluct", "greens", "hopfield", "iomodel")


def test_every_exported_name_resolves():
    missing = [name for name in polariton_mbc.__all__ if not hasattr(polariton_mbc, name)]
    assert missing == []


def test_physics_modules_export_through_the_package():
    exported = set(polariton_mbc.__all__)
    for name in PHYSICS:
        module = importlib.import_module(f"polariton_mbc.{name}")
        assert set(module.__all__) <= exported, name
        for attr in module.__all__:
            assert getattr(polariton_mbc, attr) is getattr(module, attr), (name, attr)
