"""Declarative device perturbations — sweeps as *deltas*, not clones.

The sweep code used to scatter ad-hoc ``dataclasses.replace`` /
``scale_path`` chains through every analysis module.  A
:class:`Variant` instead *describes* a perturbation — an ordered list
of primitive deltas (scale a dotted path, set a dotted path, scale a
logic-block field, or an arbitrary transform) — and applies it to any
base description on demand.

Variants are immutable and composable: every builder method returns an
extended copy, and :meth:`Variant.merged` concatenates two variants.
Because a variant is data (up to the custom-transform escape hatch), a
sweep definition can be inspected, labelled and reused across base
devices — exactly what the corner, Monte-Carlo and sensitivity sweeps
need.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Tuple

from ..description import DramDescription

Transform = Callable[[DramDescription], DramDescription]

#: Logic-block fields clamped to a physical ceiling of 1.0 when scaled.
_LOGIC_UNIT_FIELDS = ("layout_density", "wiring_density", "toggle")


@dataclass(frozen=True)
class _Delta:
    """One primitive perturbation step."""

    kind: str
    """``scale``, ``set``, ``logic`` or ``call``."""
    target: str = ""
    """Dotted parameter path, or logic-block field name."""
    value: Any = None
    """Factor (scale/logic), new value (set) or transform (call)."""

    def apply(self, device: DramDescription) -> DramDescription:
        if self.kind == "scale":
            return device.scale_path(self.target, self.value)
        if self.kind == "set":
            return device.replace_path(self.target, self.value)
        if self.kind == "logic":
            return _scale_logic_blocks(device, self.target, self.value)
        return self.value(device)


def _scale_logic_blocks(device: DramDescription, field: str,
                        factor: float) -> DramDescription:
    """Scale one field of every logic block, with physical clamps."""
    blocks = []
    for block in device.logic_blocks:
        scaled = getattr(block, field) * factor
        if field == "n_gates":
            scaled = max(1, int(round(scaled)))
        if field in _LOGIC_UNIT_FIELDS:
            scaled = min(1.0, scaled)
        blocks.append(dataclasses.replace(block, **{field: scaled}))
    return device.evolve(logic_blocks=tuple(blocks))


@dataclass(frozen=True)
class Variant:
    """An ordered, immutable bundle of description deltas."""

    label: str = ""
    """Optional human-readable name (corner/sample labels)."""
    deltas: Tuple[_Delta, ...] = ()

    # -- builders ------------------------------------------------------
    def scaled(self, path: str, factor: float) -> "Variant":
        """Extend with: multiply the dotted-path parameter by a factor."""
        return self._extended(_Delta("scale", path, factor))

    def scaled_paths(self, paths: Iterable[str],
                     factor: float) -> "Variant":
        """Extend with the same factor over several dotted paths."""
        variant = self
        for path in paths:
            variant = variant.scaled(path, factor)
        return variant

    def with_value(self, path: str, value: Any) -> "Variant":
        """Extend with: set the dotted-path parameter to a value."""
        return self._extended(_Delta("set", path, value))

    def scaled_logic(self, field: str, factor: float) -> "Variant":
        """Extend with: scale one field of every peripheral logic block
        (gate counts round to ≥1, densities/toggle clamp at 1.0)."""
        return self._extended(_Delta("logic", field, factor))

    def transformed(self, transform: Transform) -> "Variant":
        """Extend with an arbitrary device transform (escape hatch for
        coupled perturbations such as rail/efficiency co-scaling)."""
        return self._extended(_Delta("call", "", transform))

    def merged(self, other: "Variant") -> "Variant":
        """This variant followed by ``other`` (labels joined)."""
        label = "+".join(part for part in (self.label, other.label)
                         if part)
        return Variant(label=label, deltas=self.deltas + other.deltas)

    def labelled(self, label: str) -> "Variant":
        """The same deltas under a new label."""
        return Variant(label=label, deltas=self.deltas)

    def _extended(self, delta: _Delta) -> "Variant":
        return Variant(label=self.label, deltas=self.deltas + (delta,))

    # -- application ---------------------------------------------------
    def apply(self, device: DramDescription) -> DramDescription:
        """The base description with every delta applied in order."""
        for delta in self.deltas:
            device = delta.apply(device)
        return device

    def __call__(self, device: DramDescription) -> DramDescription:
        return self.apply(device)

    def __bool__(self) -> bool:
        return bool(self.deltas)


def scaling(paths: Iterable[str], factor: float,
            label: str = "") -> Variant:
    """A variant scaling each of ``paths`` by ``factor``."""
    return Variant(label=label).scaled_paths(paths, factor)
