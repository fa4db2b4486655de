"""External trace-file formats: k6, gem5/mase and NDJSON lines.

All three formats carry memory *transactions* — a physical address, an
operation and an integer cycle stamp — one per line:

``k6`` (DRAMSim2 / Kill-Llama)
    ``0x7FF2C8A0 P_MEM_RD 186`` — ops ``P_MEM_RD`` / ``P_FETCH`` /
    ``P_LOCK_RD`` read, ``P_MEM_WR`` / ``P_LOCK_WR`` write, plus plain
    ``READ`` / ``WRITE`` and the ``REF`` extension.

``mase`` (gem5 / mase)
    ``0x2971CFA0 IFETCH 62`` — ops ``IFETCH`` / ``READ`` read,
    ``WRITE`` write.

``jsonl``
    One JSON object per line: ``{"address": "0x100", "op": "read",
    "cycle": 4}`` (``address`` may be an integer).

Parsers stream lazily — they accept any line iterable and yield
:class:`TraceRecord` objects one at a time; malformed lines raise
:class:`TraceFormatError` with 1-based line numbers.  Files and
uploads reach the parsers through one byte → line reader
(:func:`iter_line_batches`): files as :data:`BLOCK_BYTES` blocks
(:func:`open_trace_bytes`, gunzipped when the gzip magic leads),
uploads as their wire chunks (:func:`iter_decompressed` when
gzipped), so both split lines, number them and report truncation
identically.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import zlib
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional

from ..core.trace import TraceError
from ..errors import ModelError


#: Canonical operation kinds carried by :class:`TraceRecord`.
KINDS = ("read", "write", "refresh")

#: k6 / DRAMSim2 operation vocabulary → canonical kind.
K6_OPS: Dict[str, str] = {
    "p_mem_rd": "read",
    "p_fetch": "read",
    "p_lock_rd": "read",
    "p_mem_wr": "write",
    "p_lock_wr": "write",
    "read": "read",
    "rd": "read",
    "write": "write",
    "wr": "write",
    "ref": "refresh",
    "refresh": "refresh",
}

#: gem5 / mase operation vocabulary → canonical kind.
MASE_OPS: Dict[str, str] = {
    "ifetch": "read",
    "read": "read",
    "write": "write",
    "ref": "refresh",
    "refresh": "refresh",
}


class TraceFormatError(TraceError):
    """A trace line failed to parse; carries its 1-based line number."""

    def __init__(self, message: str, line: int = 0,
                 source: str = "<trace>"):
        self.reason = message
        self.line = line
        self.source = source
        self.time = 0.0
        self.index = line
        ModelError.__init__(self, f"{source}:{line}: {message}")


@dataclass(frozen=True)
class TraceRecord:
    """One parsed transaction of an external trace."""

    address: int
    """Physical byte address."""
    kind: str
    """Canonical operation: ``read``, ``write`` or ``refresh``."""
    cycle: int
    """Integer cycle stamp from the trace line."""
    line: int = 0
    """1-based source line number (for error reporting)."""


def _skip(line: str) -> bool:
    stripped = line.strip()
    return not stripped or stripped.startswith(("#", ";", "//"))


def _parse_address(token: str, number: int, source: str) -> int:
    try:
        address = int(token, 16)
    except ValueError:
        raise TraceFormatError(f"bad address {token!r}", number, source)
    if address < 0:
        raise TraceFormatError(f"negative address {token!r}", number,
                               source)
    return address


def _parse_cycle(token: str, number: int, source: str) -> int:
    try:
        cycle = int(token, 0)
    except ValueError:
        raise TraceFormatError(f"bad cycle {token!r}", number, source)
    if cycle < 0:
        raise TraceFormatError(f"negative cycle {token!r}", number,
                               source)
    return cycle


def _iter_columns(lines: Iterable[str], ops: Dict[str, str],
                  source: str, start: int = 1) -> Iterator[TraceRecord]:
    for number, line in enumerate(lines, start=start):
        if _skip(line):
            continue
        tokens = line.split()
        if len(tokens) != 3:
            raise TraceFormatError(
                f"expected '<address> <op> <cycle>', got {line.strip()!r}",
                number, source,
            )
        kind = ops.get(tokens[1].lower())
        if kind is None:
            raise TraceFormatError(f"unknown operation {tokens[1]!r}",
                                   number, source)
        yield TraceRecord(
            address=_parse_address(tokens[0], number, source),
            kind=kind,
            cycle=_parse_cycle(tokens[2], number, source),
            line=number,
        )


def iter_k6(lines: Iterable[str], source: str = "<trace>",
            start: int = 1) -> Iterator[TraceRecord]:
    """Parse k6 / DRAMSim2 trace lines lazily.

    ``start`` is the 1-based source line number of the first line —
    batch parsers hand line windows here with their global offset so
    error messages keep whole-file line numbers.
    """
    return _iter_columns(lines, K6_OPS, source, start=start)


def iter_mase(lines: Iterable[str], source: str = "<trace>",
              start: int = 1) -> Iterator[TraceRecord]:
    """Parse gem5 / mase trace lines lazily."""
    return _iter_columns(lines, MASE_OPS, source, start=start)


def iter_jsonl(lines: Iterable[str], source: str = "<trace>",
               start: int = 1) -> Iterator[TraceRecord]:
    """Parse NDJSON trace lines lazily."""
    for number, line in enumerate(lines, start=start):
        if _skip(line):
            continue
        try:
            payload = json.loads(line)
        except ValueError:
            raise TraceFormatError("line is not valid JSON", number,
                                   source)
        if not isinstance(payload, dict):
            raise TraceFormatError("line is not a JSON object", number,
                                   source)
        address = payload.get("address", payload.get("addr"))
        if isinstance(address, str):
            address = _parse_address(address, number, source)
        if not isinstance(address, int) or address < 0:
            raise TraceFormatError("missing or bad 'address'", number,
                                   source)
        op = str(payload.get("op", payload.get("kind", ""))).lower()
        kind = K6_OPS.get(op)
        if kind is None:
            raise TraceFormatError(f"unknown operation {op!r}", number,
                                   source)
        cycle = payload.get("cycle", payload.get("time"))
        if not isinstance(cycle, int) or cycle < 0:
            raise TraceFormatError("missing or bad 'cycle'", number,
                                   source)
        yield TraceRecord(address=address, kind=kind, cycle=cycle,
                          line=number)


#: Registered line parsers by format name.
FORMATS = {
    "k6": iter_k6,
    "mase": iter_mase,
    "jsonl": iter_jsonl,
}


def detect_format(line: str) -> str:
    """Best-effort format guess from the first payload line."""
    stripped = line.strip()
    if stripped.startswith("{"):
        return "jsonl"
    tokens = stripped.split()
    if len(tokens) == 3 and tokens[1].lower() in ("ifetch",):
        return "mase"
    return "k6"


def iter_records(lines: Iterable[str], fmt: str,
                 source: str = "<trace>",
                 start: int = 1) -> Iterator[TraceRecord]:
    """Dispatch to the parser registered for ``fmt``."""
    parser = FORMATS.get(fmt)
    if parser is None:
        known = ", ".join(sorted(FORMATS))
        raise TraceFormatError(f"unknown trace format {fmt!r} "
                               f"(known: {known})", 0, source)
    return parser(lines, source=source, start=start)


# ----------------------------------------------------------------------
# Byte-stream plumbing: one reader for files and chunked uploads.

#: Bytes per file read, and the most decompressed bytes one gunzip
#: step yields — the size of the service's wire chunk.  Small blocks
#: keep the resident set flat: on a 2-vCPU host, 1 MiB blocks raised
#: the peak RSS of a 150k-line gzipped replay from 66 to 71 MB for no
#: speed gain.
BLOCK_BYTES = 64 * 1024

#: Batch size behind the line-at-a-time :func:`iter_lines`: small, so
#: sniffing a format decodes about one block, yet large enough that
#: the per-batch cost vanishes.
_FLATTEN_LINES = 1024

_GZIP_MAGIC = b"\x1f\x8b"


def iter_decompressed(chunks: Iterable[bytes]) -> Iterator[bytes]:
    """Incrementally gunzip a byte-chunk stream (constant memory).

    Handles multi-member gzip streams (members are concatenated) and
    yields at most :data:`BLOCK_BYTES` per block however well the input
    compresses.  A stream that ends inside a member, or is not gzip,
    raises :class:`TraceFormatError` at line 0 — bytes carry no line
    numbers; :func:`iter_line_batches` re-raises it at the line
    reached.
    """
    decomp = zlib.decompressobj(16 + zlib.MAX_WBITS)
    in_member = False
    try:
        for chunk in chunks:
            data = bytes(chunk)
            while data:
                in_member = True
                out = decomp.decompress(data, BLOCK_BYTES)
                if out:
                    yield out
                if decomp.eof:
                    data = decomp.unused_data
                    decomp = zlib.decompressobj(16 + zlib.MAX_WBITS)
                    in_member = False
                else:
                    data = decomp.unconsumed_tail
        tail = decomp.flush()
    except zlib.error as exc:
        raise TraceFormatError(f"corrupt gzip stream ({exc})") from None
    if tail:
        yield tail
    if in_member and not decomp.eof:
        raise TraceFormatError("gzip stream truncated: the input ends "
                               "inside a compressed member")


def open_trace_bytes(path) -> Iterator[bytes]:
    """A trace file as byte blocks of at most :data:`BLOCK_BYTES`,
    gunzipped when the file starts with the gzip magic.

    The file opens on the first ``next`` and closes when the stream
    ends or the generator is closed.
    """
    with open(path, "rb") as raw:
        blocks = iter(functools.partial(raw.read, BLOCK_BYTES), b"")
        first = next(blocks, b"")
        blocks = itertools.chain((first,), blocks)
        if first[:2] == _GZIP_MAGIC:
            blocks = iter_decompressed(blocks)
        yield from blocks


def iter_line_batches(byte_blocks: Iterable[bytes], batch_lines: int,
                      source: str = "<trace>") -> Iterator[List[str]]:
    """Split a byte-block stream into lists of exactly ``batch_lines``
    text lines; only the last list may be shorter.

    The one byte → line reader behind trace files and uploads.  Each
    block is cut at its last line end, decoded once (UTF-8, bad bytes
    replaced) and split in C; the partial line after the cut carries
    into the next block, so one batch plus one block is resident
    whatever the input length.  Line ends follow the universal-newline
    rule of text files: ``\\n``, ``\\r\\n`` and a lone ``\\r`` each end
    a line, also when a ``\\r\\n`` straddles two blocks.  Lines carry no
    terminator; a final unterminated line is still yielded.

    A block source that fails part-way (a truncated or corrupt gzip
    stream) raises :class:`TraceFormatError` naming ``source`` and the
    last line reached.
    """
    if batch_lines < 1:
        raise ValueError("batch_lines must be positive")
    pending: List[str] = []
    partial: List[bytes] = []  # the unterminated line after the cut
    emitted = 0
    after_cr = False  # the last block ended in "\r": drop a leading "\n"
    try:
        for block in byte_blocks:
            if not block:
                continue
            if after_cr and block[:1] == b"\n":
                block = block[1:]
            after_cr = block.endswith(b"\r")
            if b"\r" in block:
                block = block.replace(b"\r\n", b"\n").replace(b"\r",
                                                              b"\n")
            cut = block.rfind(b"\n")
            if cut < 0:
                partial.append(block)
                continue
            partial.append(block[:cut])
            pending += b"".join(partial).decode("utf-8",
                                                "replace").split("\n")
            partial = [block[cut + 1:]]
            while len(pending) >= batch_lines:
                # Cut the batch off before handing it out, so its
                # line references are not held twice while it folds.
                batch = pending[:batch_lines]
                del pending[:batch_lines]
                emitted += batch_lines
                yield batch
    except TraceFormatError as exc:
        reached = emitted + len(pending) + (1 if any(partial) else 0)
        raise TraceFormatError(exc.reason, reached, source) from None
    last = b"".join(partial)
    if last:
        pending.append(last.decode("utf-8", "replace"))
    if pending:
        yield pending


def iter_lines(byte_blocks: Iterable[bytes],
               source: str = "<trace>") -> Iterator[str]:
    """Split a byte-block stream into text lines: the flattened
    :func:`iter_line_batches`, same line ends, same errors."""
    return itertools.chain.from_iterable(
        iter_line_batches(byte_blocks, _FLATTEN_LINES, source))


@contextlib.contextmanager
def open_trace_lines(path, source: Optional[str] = None
                     ) -> Iterator[Iterator[str]]:
    """``with open_trace_lines(path) as lines:`` — a trace file's text
    lines (:func:`iter_lines` over :func:`open_trace_bytes`), the file
    closed on exit.  Errors name ``source``, by default the path."""
    blocks = open_trace_bytes(path)
    try:
        yield iter_lines(blocks, source or str(path))
    finally:
        blocks.close()
