"""The package's public names: exactly the public definitions of its layers."""

import importlib
import inspect

import pytest

import sollink

LAYERS = ("qfield", "sol", "cycles", "special_fn", "qseries", "errors")


def _public_definitions() -> dict:
    """name -> the function or class a layer defines under that name"""
    definitions = {}
    for layer in LAYERS:
        module = importlib.import_module(f"sollink.{layer}")
        for name, obj in vars(module).items():
            defined_here = getattr(obj, "__module__", None) == module.__name__
            if defined_here and not name.startswith("_") and (inspect.isfunction(obj) or inspect.isclass(obj)):
                definitions[name] = obj
    return definitions


def test_all_lists_every_public_definition():
    assert set(sollink.__all__) - {"__version__"} == set(_public_definitions())
    assert len(sollink.__all__) == len(set(sollink.__all__))


def test_every_listed_name_resolves():
    for name in sollink.__all__:
        assert hasattr(sollink, name), name


def test_every_name_is_its_layers_object():
    for name, obj in _public_definitions().items():
        assert getattr(sollink, name) is obj, name
    assert sollink.make_field is sollink.qfield.make_field


def test_unknown_names_are_errors():
    with pytest.raises(AttributeError):
        sollink.nope
    with pytest.raises(ImportError):
        from sollink import nope  # noqa: F401


def test_dir_lists_every_public_name():
    assert set(dir(sollink)) >= set(sollink.__all__)
