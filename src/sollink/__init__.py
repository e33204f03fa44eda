"""Exact linking numbers in Sol torus bundles and on cycle boundaries over
real quadratic fields, with a float evaluator of the completed series that
pairs with them.  All linking data is exact rational; floats appear only in
the analytic layer (beta kernel, orbit-minimum series, series evaluation).

The public names are loaded lazily: `sollink.make_field` imports
`sollink.qfield` on first use, so importing the package (or the CLI) does not
load the layers it does not run."""

import importlib

# public name -> the layer submodule that defines it
_SUBMODULE = {
    "ConsistencyError": "errors",
    "InputError": "errors",
    "FieldData": "qfield",
    "NormClass": "qfield",
    "QuadElem": "qfield",
    "enumerate_norm_classes": "qfield",
    "fundamental_unit": "qfield",
    "is_squarefree": "qfield",
    "make_field": "qfield",
    "reduce_totally_positive": "qfield",
    "CapChain": "sol",
    "SolManifold": "sol",
    "area_period": "sol",
    "boundary_cycle": "sol",
    "build_cap": "sol",
    "cap_intersect": "sol",
    "expected_boundary": "sol",
    "glueing_from_unit": "sol",
    "link_fiber": "sol",
    "make_sol": "sol",
    "BoundaryComponent": "cycles",
    "LinkTable": "cycles",
    "boundary_components": "cycles",
    "link_boundary_closed": "cycles",
    "link_table": "cycles",
    "beta_fn": "special_fn",
    "beta_scaled": "special_fn",
    "InteriorTable": "qseries",
    "QExpansion": "qseries",
    "RatioReport": "qseries",
    "WEvalParams": "qseries",
    "WEvalReport": "qseries",
    "combine_interior": "qseries",
    "eval_W": "qseries",
    "holomorphic_ratio_test": "qseries",
    "lk_qexpansion": "qseries",
    "min_series_coeff": "qseries",
}

__version__ = "0.1.0"

__all__ = [*_SUBMODULE, "__version__"]


def __getattr__(name: str):
    # Looked up on every access and never stored here, so a name replaced on
    # its layer module (a test's monkeypatch, a tracer) is what callers get.
    layer = _SUBMODULE.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{layer}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_SUBMODULE})
