"""JSON interchange for device descriptions.

The DSL (:mod:`repro.dsl`) is the human-facing format; this module is the
machine-facing one: a stable JSON schema for storing descriptions in
configuration systems or passing them between tools.  Round trips are
exact for every field.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List

from ..errors import DescriptionError
from .dram import DramDescription
from .floorplan import ArrayArchitecture, PhysicalFloorplan
from .logic import LogicBlock
from .pattern import Command, Pattern
from .signaling import SegmentKind, SignalNet, SignalSegment, Trigger
from .specification import Specification, TimingParameters
from .technology import TechnologyParameters
from .voltages import Rail, VoltageSet

SCHEMA_VERSION = 1


def to_dict(device: DramDescription) -> Dict[str, Any]:
    """Serialise a description to plain JSON-compatible data."""
    array = device.floorplan.array
    return {
        "schema_version": SCHEMA_VERSION,
        "name": device.name,
        "interface": device.interface,
        "node": device.node,
        "constant_current": device.constant_current,
        "technology": device.technology.as_dict(),
        "voltages": device.voltages.as_dict(),
        "floorplan": {
            "array": {
                "bitline_direction": array.bitline_direction,
                "bits_per_bitline": array.bits_per_bitline,
                "bits_per_swl": array.bits_per_swl,
                "bitline_arch": array.bitline_arch.value,
                "blocks_per_csl": array.blocks_per_csl,
                "wl_pitch": array.wl_pitch,
                "bl_pitch": array.bl_pitch,
                "width_sa_stripe": array.width_sa_stripe,
                "width_swd_stripe": array.width_swd_stripe,
            },
            "horizontal": list(device.floorplan.horizontal),
            "vertical": list(device.floorplan.vertical),
            "widths": dict(device.floorplan.widths),
            "heights": dict(device.floorplan.heights),
            "array_types": sorted(device.floorplan.array_types),
        },
        "signaling": [_net_to_dict(net) for net in device.signaling],
        "spec": {
            "io_width": device.spec.io_width,
            "datarate": device.spec.datarate,
            "n_clock_wires": device.spec.n_clock_wires,
            "f_dataclock": device.spec.f_dataclock,
            "f_ctrlclock": device.spec.f_ctrlclock,
            "bank_bits": device.spec.bank_bits,
            "row_bits": device.spec.row_bits,
            "col_bits": device.spec.col_bits,
            "n_misc_control": device.spec.n_misc_control,
            "prefetch": device.spec.prefetch,
            "burst_length": device.spec.burst_length,
            "bank_groups": device.spec.bank_groups,
        },
        "timing": {
            "trc": device.timing.trc,
            "trrd": device.timing.trrd,
            "trrd_l": device.timing.trrd_l,
            "tfaw": device.timing.tfaw,
            "trcd": device.timing.trcd,
            "twr": device.timing.twr,
            "trtp": device.timing.trtp,
            "trp": device.timing.trp,
            "tras": device.timing.tras,
            "trfc": device.timing.trfc,
            "tref_interval": device.timing.tref_interval,
            "rows_per_refresh": device.timing.rows_per_refresh,
        },
        "logic_blocks": [_block_to_dict(block)
                         for block in device.logic_blocks],
        "pattern": [command.value for command in device.pattern],
    }


def _net_to_dict(net: SignalNet) -> Dict[str, Any]:
    return {
        "name": net.name,
        "trigger": net.trigger.value,
        "operations": sorted(op.value for op in net.operations),
        "rail": net.rail.value,
        "component": net.component,
        "segments": [
            {
                "kind": segment.kind.value,
                "start": list(segment.start),
                "end": list(segment.end) if segment.end else None,
                "fraction": segment.fraction,
                "direction": segment.direction,
                "wires": segment.wires,
                "toggle": segment.toggle,
                "buffer_w_n": segment.buffer_w_n,
                "buffer_w_p": segment.buffer_w_p,
                "mux_ratio": segment.mux_ratio,
            }
            for segment in net.segments
        ],
    }


def _block_to_dict(block: LogicBlock) -> Dict[str, Any]:
    return {
        "name": block.name,
        "n_gates": block.n_gates,
        "w_n": block.w_n,
        "w_p": block.w_p,
        "transistors_per_gate": block.transistors_per_gate,
        "layout_density": block.layout_density,
        "wiring_density": block.wiring_density,
        "operations": sorted(op.value for op in block.operations),
        "toggle": block.toggle,
        "trigger": block.trigger.value,
        "rail": block.rail.value,
        "component": block.component,
    }


def from_dict(data: Dict[str, Any]) -> DramDescription:
    """Rebuild a description from :func:`to_dict` output."""
    if not isinstance(data, dict):
        raise DescriptionError(
            "a JSON description must be an object, not "
            f"{type(data).__name__}")
    version = data.get("schema_version")
    if version != SCHEMA_VERSION:
        raise DescriptionError(
            f"unsupported description schema version {version!r}"
        )
    array_data = data["floorplan"]["array"]
    floorplan = PhysicalFloorplan(
        array=ArrayArchitecture(**array_data),
        horizontal=tuple(data["floorplan"]["horizontal"]),
        vertical=tuple(data["floorplan"]["vertical"]),
        widths=dict(data["floorplan"]["widths"]),
        heights=dict(data["floorplan"]["heights"]),
        array_types=frozenset(data["floorplan"]["array_types"]),
    )
    nets: List[SignalNet] = []
    for net_data in data["signaling"]:
        segments = tuple(
            SignalSegment(
                kind=SegmentKind(seg["kind"]),
                start=tuple(seg["start"]),
                end=tuple(seg["end"]) if seg["end"] else None,
                fraction=seg["fraction"],
                direction=seg["direction"],
                wires=seg["wires"],
                toggle=seg["toggle"],
                buffer_w_n=seg["buffer_w_n"],
                buffer_w_p=seg["buffer_w_p"],
                mux_ratio=seg["mux_ratio"],
            )
            for seg in net_data["segments"]
        )
        nets.append(SignalNet(
            name=net_data["name"],
            segments=segments,
            trigger=Trigger(net_data["trigger"]),
            operations=frozenset(net_data["operations"]),
            rail=Rail(net_data["rail"]),
            component=net_data["component"],
        ))
    blocks = tuple(
        LogicBlock(
            name=block["name"],
            n_gates=block["n_gates"],
            w_n=block["w_n"],
            w_p=block["w_p"],
            transistors_per_gate=block["transistors_per_gate"],
            layout_density=block["layout_density"],
            wiring_density=block["wiring_density"],
            operations=frozenset(block["operations"]),
            toggle=block["toggle"],
            trigger=Trigger(block["trigger"]),
            rail=Rail(block["rail"]),
            component=block["component"],
        )
        for block in data["logic_blocks"]
    )
    from .signaling import SignalingFloorplan

    return DramDescription(
        name=data["name"],
        interface=data["interface"],
        node=data["node"],
        technology=TechnologyParameters(**data["technology"]),
        voltages=VoltageSet(**data["voltages"]),
        floorplan=floorplan,
        signaling=SignalingFloorplan(tuple(nets)),
        spec=Specification(**data["spec"]),
        timing=TimingParameters(**data["timing"]),
        logic_blocks=blocks,
        pattern=Pattern(tuple(Command(token)
                              for token in data["pattern"])),
        constant_current=data["constant_current"],
    )


def dumps_json(device: DramDescription, indent: int = 2) -> str:
    """Serialise a description to a JSON string."""
    return json.dumps(to_dict(device), indent=indent)


def loads_json(text: str) -> DramDescription:
    """Parse a JSON string into a description."""
    return from_dict(json.loads(text))
