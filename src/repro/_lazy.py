"""Lazy package exports (PEP 562).

A package ``__init__`` that imported the modules it re-exports from
would load them, and everything they import, into every process that
touches any module of the package: ``import repro.core.journal`` would
pay for numpy, the MILP and the DES.  Instead each package ``__init__``
names the module each of its exports lives in::

    __all__, __getattr__, __dir__ = lazy_exports(__name__, {
        "repro.core.explorer": ("HumanIntranetExplorer",),
    })

A name's module is imported the first time the name is read
(``from repro import make_problem``, ``repro.core.DesignSpace``,
``from repro import *``), and ``import repro.x.y`` loads only ``y`` and
what ``y`` itself imports.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict, List, Sequence, Tuple


def lazy_exports(
    package: str, modules: Dict[str, Sequence[str]]
) -> Tuple[List[str], Callable[[str], object], Callable[[], List[str]]]:
    """``(__all__, __getattr__, __dir__)`` for ``package``, which exports
    each name in ``modules[module]`` from ``module``."""
    where = {name: module for module, names in modules.items() for name in names}

    def __getattr__(name: str):
        module = where.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        value = getattr(importlib.import_module(module), name)
        # Later reads find the name without calling this function.
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(where))

    return list(where), __getattr__, __dir__
