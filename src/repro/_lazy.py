"""Lazy package namespaces (PEP 562).

A package that re-exports names from its submodules would import all of
them the moment anything under it is imported — ``python -m
repro.experiments query`` would load the whole simulator just to read a
store.  :func:`lazy_exports` gives such a package a module
``__getattr__`` that imports a submodule the first time one of its
names is read, and a ``__dir__`` that lists those names before then.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Mapping, Sequence, Tuple, Union

#: A re-exported name: the name itself, or ``(public name, attribute)``
#: when the package exports the submodule's attribute under an alias.
Export = Union[str, Tuple[str, str]]


def lazy_exports(package: str,
                 submodules: "Mapping[str, Sequence[Export]]",
                 ) -> "tuple[Callable[[str], Any], Callable[[], list[str]]]":
    """The ``(__getattr__, __dir__)`` pair of a lazy package namespace.

    ``submodules`` maps a submodule of ``package`` (relative name) to
    the names the package re-exports from it.  A resolved name is
    stored in the package's namespace, so each is looked up once.
    ``__getattr__.targets`` maps every name to its ``(module,
    attribute)``.
    """
    targets: "dict[str, tuple[str, str]]" = {}
    for submodule, names in submodules.items():
        for name in names:
            public, attribute = (name, name) if isinstance(name, str) else name
            targets[public] = (f"{package}.{submodule}", attribute)

    def __getattr__(name: str) -> Any:
        try:
            module, attribute = targets[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}") from None
        value = getattr(importlib.import_module(module), attribute)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> "list[str]":
        return sorted(set(vars(sys.modules[package])) | set(targets))

    __getattr__.targets = targets
    return __getattr__, __dir__
