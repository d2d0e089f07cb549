"""Span recording around calls into polyfam's layers, from outside the package.

A ``Tracer`` wraps the public functions of each layer module (and the public
methods and arithmetic operators of the value classes defined there), every
registered identity checker, and ``fractions.Fraction.__new__`` (counted, not
timed).  Each wrapped call appends one span -- name, start, end, parent -- to
flat in-memory arrays; nothing is written until the run ends.  ``remove()``
puts every original object back.  polyfam's source is never modified.

Self time is a span's duration minus the time covered by its child spans.
"""

from __future__ import annotations

import dataclasses
import fractions
import sys
import time
import types
from array import array

PACKAGE = "polyfam"
LAYERS = ("rationals", "stirling", "poly", "series", "families", "identities", "cli")
# layers whose classes are value types or tables; identities and cli classes
# are report records and parser plumbing, whose cost belongs to their caller
CLASS_LAYERS = ("rationals", "stirling", "poly", "series", "families")
OPERATORS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
             "__neg__", "__pow__", "__call__", "__str__")


def _bits(value) -> int:
    """Largest numerator or denominator bit length inside a family value."""
    if isinstance(value, fractions.Fraction):
        return max(value.numerator.bit_length(), value.denominator.bit_length())
    if isinstance(value, int):
        return value.bit_length()
    if isinstance(value, (tuple, list)):
        return max((_bits(v) for v in value), default=0)
    if hasattr(value, "coeffs"):
        return _bits(value.coeffs)
    if hasattr(value, "mantissa"):
        return max(_bits(value.mantissa), _bits(value.base))
    return 0


class Tracer:
    def __init__(self) -> None:
        self.starts = array("d")
        self.ends = array("d")
        self.names = array("i")
        self.parents = array("i")
        self.name_list: list[str] = []
        self.stack: list[int] = []
        self.fraction_new = 0
        self.max_bits = 0
        self._patches: list[tuple[object, str, object]] = []
        self._registry_originals: dict = {}

    # -- wrapping ---------------------------------------------------------
    def _wrap(self, name: str, fn, measure_bits: bool = False):
        nid = len(self.name_list)
        self.name_list.append(name)
        starts, ends, names, parents, stack = self.starts, self.ends, self.names, self.parents, self.stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            starts.append(0.0)
            stack.append(idx)
            starts[idx] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if measure_bits:
                bits = _bits(result)
                if bits > self.max_bits:
                    self.max_bits = bits
            return result

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        return wrapper

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = {name: sys.modules[f"{PACKAGE}.{name}"] for name in LAYERS}
        namespaces = [m for key, m in sys.modules.items() if key == PACKAGE or key.startswith(PACKAGE + ".")]
        for layer, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if isinstance(obj, type):
                    if layer in CLASS_LAYERS:
                        self._wrap_class(layer, obj)
                elif callable(obj):
                    wrapper = self._wrap(f"{layer}.{attr}", obj, measure_bits=layer == "families")
                    # rebind every module-level reference, since callers
                    # import these functions by name
                    for ns in namespaces:
                        for ref, val in list(vars(ns).items()):
                            if val is obj:
                                self._set(ns, ref, wrapper)
        registry = modules["identities"].REGISTRY
        for identity_id, identity in list(registry.items()):
            self._registry_originals[identity_id] = identity
            registry[identity_id] = dataclasses.replace(
                identity, check=self._wrap(f"identities.check:{identity_id}", identity.check))
        original_new = fractions.Fraction.__dict__["__new__"]
        new_fn = original_new.__func__

        def counting_new(cls, *args, **kwargs):
            self.fraction_new += 1
            return new_fn(cls, *args, **kwargs)

        self._set(fractions.Fraction, "__new__", staticmethod(counting_new))

    def _wrap_class(self, layer: str, cls: type) -> None:
        for attr, val in list(cls.__dict__.items()):
            if attr.startswith("_") and attr not in OPERATORS:
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(val, staticmethod):
                self._set(cls, attr, staticmethod(self._wrap(name, val.__func__)))
            elif isinstance(val, types.FunctionType):
                self._set(cls, attr, self._wrap(name, val))

    def remove(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        registry = sys.modules[f"{PACKAGE}.identities"].REGISTRY
        registry.update(self._registry_originals)
        self._registry_originals.clear()

    # -- reduction ----------------------------------------------------------
    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        count = len(self.names)
        child = [0.0] * count
        starts, ends, parents = self.starts, self.ends, self.parents
        for i in range(count):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        out: dict[str, dict[str, float]] = {}
        for i in range(count):
            name = self.name_list[self.names[i]]
            dur = ends[i] - starts[i]
            entry = out.get(name)
            if entry is None:
                entry = out[name] = {"calls": 0, "incl_s": 0.0, "self_s": 0.0}
            entry["calls"] += 1
            entry["incl_s"] += dur
            entry["self_s"] += dur - child[i]
        return out
