"""The package namespace: every public name is listed once, by its module."""

import importlib

import anisowidth

MODULES = ("mixed_norm", "exponents", "ball_widths", "width_oracle", "trig_approx")


def test_package_exports_the_concatenated_module_lists():
    modules = [importlib.import_module(f"anisowidth.{name}") for name in MODULES]
    assert anisowidth.__all__ == [name for m in modules for name in m.__all__]
    assert len(set(anisowidth.__all__)) == len(anisowidth.__all__)
    for m in modules:
        for name in m.__all__:
            assert getattr(anisowidth, name) is getattr(m, name)
    # the one exported name its module used not to list
    assert "smoothness_vector" in modules[1].__all__
