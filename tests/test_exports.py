"""The package's public names: exactly the public definitions of its layers."""

import importlib
import inspect

import sollink

LAYERS = ("qfield", "sol", "cycles", "special_fn", "qseries", "errors")


def _public_definitions() -> set:
    names = set()
    for layer in LAYERS:
        module = importlib.import_module(f"sollink.{layer}")
        for name, obj in vars(module).items():
            defined_here = getattr(obj, "__module__", None) == module.__name__
            if defined_here and not name.startswith("_") and (inspect.isfunction(obj) or inspect.isclass(obj)):
                names.add(name)
    return names


def test_all_lists_every_public_definition():
    assert set(sollink.__all__) - {"__version__"} == _public_definitions()
    assert len(sollink.__all__) == len(set(sollink.__all__))


def test_every_listed_name_resolves():
    for name in sollink.__all__:
        assert hasattr(sollink, name), name
