"""Physical-address decoding into channel/rank/bank/row/column slices.

External traces address memory with flat physical byte addresses; the
trace engine wants (bank, row) coordinates.  :class:`AddressDecoder`
carves an address into bit fields, LSB upward: ``offset_bits`` of
within-access offset first, then the policy-ordered core fields, then
rank and channel at the top.

Policies (naming reads MSB → LSB below channel/rank):

``row-bank-column`` (default, page-interleaved)
    ``| channel | rank | row | bank | column | offset |`` —
    consecutive cache lines walk one row, maximizing row hits.

``bank-row-column`` (bank-interleaved)
    ``| channel | rank | bank | row | column | offset |`` —
    consecutive rows sit in one bank; streams hop banks rarely.

``decode`` / ``encode`` round-trip exactly for in-range fields.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..core.trace import TraceError


#: Supported bit-slice orderings.
POLICIES = ("row-bank-column", "bank-row-column")


@dataclass(frozen=True)
class DecodedAddress:
    """One physical address split into coordinate fields."""

    channel: int = 0
    rank: int = 0
    bank: int = 0
    row: int = 0
    column: int = 0


@dataclass(frozen=True)
class AddressDecoder:
    """Configurable bit-slice mapping from physical addresses."""

    bank_bits: int
    row_bits: int
    col_bits: int
    channel_bits: int = 0
    rank_bits: int = 0
    offset_bits: int = 0
    policy: str = "row-bank-column"

    def __post_init__(self) -> None:
        if self.policy not in POLICIES:
            known = ", ".join(POLICIES)
            raise TraceError(f"unknown decode policy {self.policy!r} "
                             f"(known: {known})", 0.0, None)
        for name in ("bank_bits", "row_bits", "col_bits"):
            if getattr(self, name) <= 0:
                raise TraceError(f"{name} must be positive", 0.0, None)
        for name in ("channel_bits", "rank_bits", "offset_bits"):
            if getattr(self, name) < 0:
                raise TraceError(f"{name} must not be negative",
                                 0.0, None)

    # ------------------------------------------------------------------
    @property
    def address_bits(self) -> int:
        """Total significant address bits (including the offset)."""
        return (self.offset_bits + self.col_bits + self.row_bits
                + self.bank_bits + self.rank_bits + self.channel_bits)

    def _fields(self) -> List[Tuple[str, int]]:
        """(name, width) pairs in LSB → MSB order above the offset."""
        if self.policy == "row-bank-column":
            core = [("column", self.col_bits),
                    ("bank", self.bank_bits),
                    ("row", self.row_bits)]
        else:
            core = [("column", self.col_bits),
                    ("row", self.row_bits),
                    ("bank", self.bank_bits)]
        return core + [("rank", self.rank_bits),
                       ("channel", self.channel_bits)]

    def field_layout(self) -> Dict[str, Tuple[int, int]]:
        """Field name → ``(lsb_shift, width)`` over the raw address.

        The flat shift/mask view of :meth:`decode` — the columnar
        kernel slices whole address arrays with it (``(addresses >>
        shift) & mask``) and lands bit-identical coordinates.
        """
        layout: Dict[str, Tuple[int, int]] = {}
        shift = self.offset_bits
        for name, bits in self._fields():
            layout[name] = (shift, bits)
            shift += bits
        return layout

    # ------------------------------------------------------------------
    @property
    def shard_bits(self) -> int:
        """Address bits identifying the (channel, rank) pair."""
        return self.channel_bits + self.rank_bits

    @property
    def num_shards(self) -> int:
        """Distinct (channel, rank) pairs this decoder produces.

        Rank and channel are the top two fields under every policy,
        so ``(address >> rank_shift) & (num_shards - 1)`` is the pair
        index that :meth:`flat_bank` puts above the bank bits; the
        columnar kernel builds its flat bank indices that way.
        """
        return 1 << self.shard_bits

    def decode(self, address: int) -> DecodedAddress:
        """Split a physical byte address into coordinates."""
        if address < 0:
            raise TraceError("address must not be negative", 0.0, None)
        value = address >> self.offset_bits
        fields = {}
        for name, bits in self._fields():
            fields[name] = value & ((1 << bits) - 1)
            value >>= bits
        return DecodedAddress(**fields)

    def encode(self, decoded: DecodedAddress) -> int:
        """Inverse of :meth:`decode` (offset bits encode as zero)."""
        value = 0
        shift = self.offset_bits
        for name, bits in self._fields():
            part = getattr(decoded, name)
            if part < 0 or part >= (1 << bits):
                raise TraceError(
                    f"{name} {part} does not fit in {bits} bits",
                    0.0, None,
                )
            value |= part << shift
            shift += bits
        return value

    def flat_bank(self, decoded: DecodedAddress) -> int:
        """Flatten (channel, rank, bank) into one bank index.

        With nonzero channel/rank bits each (channel, rank, bank)
        triple becomes a distinct bank for the replay engine, so the
        flat index can exceed the device's own bank count — one reason
        record traces replay leniently only.
        """
        return (((decoded.channel << self.rank_bits) | decoded.rank)
                << self.bank_bits) | decoded.bank

    # ------------------------------------------------------------------
    @classmethod
    def from_device(cls, device, policy: str = "row-bank-column",
                    channel_bits: int = 0, rank_bits: int = 0,
                    offset_bits: Optional[int] = None) -> "AddressDecoder":
        """Decoder matching a device's own bank/row/column geometry.

        ``offset_bits`` defaults to the byte width of one column access
        (``bits_per_access / 8``), so consecutive accesses land on
        consecutive columns.
        """
        spec = device.spec
        if offset_bits is None:
            access_bytes = max(1, spec.bits_per_access // 8)
            offset_bits = max(0, access_bytes.bit_length() - 1)
        return cls(
            bank_bits=spec.bank_bits,
            row_bits=spec.row_bits,
            col_bits=spec.col_bits,
            channel_bits=channel_bits,
            rank_bits=rank_bits,
            offset_bits=offset_bits,
            policy=policy,
        )
