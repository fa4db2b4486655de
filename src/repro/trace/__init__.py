"""Streaming ingestion of external memory traces (k6, mase, NDJSON).

Public surface: line parsers and the one byte → line reader
(:mod:`formats`), the configurable physical-address bit-slice decoder
(:mod:`decoder`), the lazy record → command → energy pipeline and
the file replay behind ``repro trace`` and ``trace`` jobs
(:mod:`ingest`), and the batch replayer with its columnar kernel
(:mod:`columnar`, numpy-optional) that file replays and ``/trace``
uploads share.  Backends take the engine's names,
:data:`repro.engine.BACKENDS`, checked by
:func:`repro.engine.resolve_backend`.
"""

from .decoder import POLICIES, AddressDecoder, DecodedAddress
from .formats import (FORMATS, TraceFormatError, TraceRecord,
                      detect_format, iter_decompressed, iter_jsonl,
                      iter_k6, iter_line_batches, iter_lines, iter_mase,
                      iter_records, open_trace_bytes, open_trace_lines)
from .ingest import (DEFAULT_CLOCK, STRICT_REFUSAL, commands_from_records,
                     evaluate_trace_file, read_trace, replay_trace_file,
                     resolve_trace_format)
from .columnar import ColumnarReplayer, parse_columns, replay_lines_columnar

__all__ = [
    "POLICIES",
    "AddressDecoder",
    "DecodedAddress",
    "FORMATS",
    "TraceFormatError",
    "TraceRecord",
    "detect_format",
    "iter_decompressed",
    "iter_jsonl",
    "iter_k6",
    "iter_line_batches",
    "iter_lines",
    "iter_mase",
    "iter_records",
    "open_trace_bytes",
    "open_trace_lines",
    "DEFAULT_CLOCK",
    "STRICT_REFUSAL",
    "commands_from_records",
    "evaluate_trace_file",
    "read_trace",
    "replay_trace_file",
    "resolve_trace_format",
    "ColumnarReplayer",
    "parse_columns",
    "replay_lines_columnar",
]
