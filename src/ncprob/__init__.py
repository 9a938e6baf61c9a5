"""Exact free-cumulant calculus on non-crossing partitions, free products of
*-probability spaces, and executable freeness/positivity verification.

Every name is imported from the module that defines it.  The root offers
only the three names the benchmark's set-up child (``ncbench/child.py``)
reads from it, bound on first use by the module ``__getattr__`` (PEP 562),
so that importing the root, as every command does, loads no submodule.
"""

_LAZY = {
    "ComplexRational": "scalar",
    "MomentSequence": "cumulant_calculus",
    "product_space_from_json": "free_product",
}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    globals()[name] = getattr(import_module(f".{_LAZY[name]}", __name__), name)
    return globals()[name]
