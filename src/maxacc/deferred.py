"""Modules imported on first use.

scipy.linalg and jsonschema take most of a cold start, and the finite-state
verdict and sweep, `maxacc report` and every valid model file need neither.
A module that needs one holds a DeferredModule under the name it would have
imported: `lingauss.sla` for the linear-Gaussian checks and Riccati solves,
and `modelfile.jsonschema` for the messages of a rejected document.
"""

from __future__ import annotations

import importlib


class DeferredModule:
    """Stands in for the module `name`, importing it on the first attribute read.

    importlib.import_module takes the module's import lock, so a thread that
    reads while another thread imports waits for the finished module. Each
    attribute read is kept on the stand-in, so later reads are plain lookups,
    and setting an attribute here overrides it only for this stand-in's users.
    """

    def __init__(self, name: str) -> None:
        self._name = name

    def __getattr__(self, attr: str):
        value = getattr(importlib.import_module(self._name), attr)
        setattr(self, attr, value)
        return value
