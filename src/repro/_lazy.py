"""Lazy package re-exports (PEP 562 module ``__getattr__``).

A package ``__init__`` runs on the way to every one of its submodules, so an
``__init__`` that imports its whole re-export list makes ``import
repro.rdf.parser`` pay for the serving stack, the containment procedures and
SciPy.  Packages instead declare which module defines each exported name and
take ``__getattr__``, ``__dir__`` and ``__all__`` from :func:`lazy_exports`: a
name's module is imported on first access (``repro.X``, ``from repro import
X``, ``from repro import *``) and the value is then cached in the package
namespace.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Dict, List, Mapping, Sequence, Tuple


def lazy_exports(
    package: str, exports: Mapping[str, Sequence[str]]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]], List[str]]:
    """``(__getattr__, __dir__, __all__)`` for ``package``, given ``{module: names}``."""
    home: Dict[str, str] = {
        name: module for module, names in exports.items() for name in names
    }

    def __getattr__(name: str) -> Any:
        module = home.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(home))

    return __getattr__, __dir__, list(home)
