"""Lazy package exports (PEP 562).

A package ``__init__`` lists the names it re-exports and the submodule
each lives in; nothing is imported until a name is first read.  A
figure sweep touches a fraction of the package, so this keeps the
frontend, the C exporters, the baselines and the tables out of its
start-up.  Usage::

    __getattr__, __dir__, __all__ = lazy_exports(__name__, {
        "repro.lang.frontend": ("compile_source", "simdize_source"),
    })
"""

from __future__ import annotations

import sys
from importlib import import_module


def lazy_exports(package: str, exports: dict[str, tuple[str, ...]]):
    """``(__getattr__, __dir__, __all__)`` for ``package``.

    ``exports`` maps a submodule to the names the package re-exports
    from it.  A resolved name is stored in the package namespace, so
    ``__getattr__`` runs once per name.
    """
    home = {name: module for module, names in exports.items()
            for name in names}

    def __getattr__(name: str):
        module = home.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = getattr(import_module(module), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | set(home))

    return __getattr__, __dir__, list(home)
