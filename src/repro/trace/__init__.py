"""Streaming ingestion of external memory traces (k6, mase, NDJSON).

Public surface: line parsers and the one byte → line reader
(:mod:`formats`), the configurable physical-address bit-slice decoder
(:mod:`decoder`), the lazy record → command → energy pipeline and
the file replay behind ``repro trace`` and ``trace`` jobs
(:mod:`ingest`), and the one backend resolver and batch replayer
with its columnar kernel (:mod:`columnar`, numpy-optional).
"""

from .decoder import POLICIES, AddressDecoder, DecodedAddress
from .formats import (FORMATS, TraceFormatError, TraceRecord,
                      detect_format, iter_decompressed, iter_jsonl,
                      iter_k6, iter_line_batches, iter_lines, iter_mase,
                      iter_records, open_trace_bytes, open_trace_lines)
from .ingest import (DEFAULT_CLOCK, STRICT_REFUSAL, accumulate_records,
                     commands_from_records, evaluate_trace_file,
                     read_trace, replay_trace_file,
                     resolve_trace_format)
from .columnar import (TRACE_BACKENDS, ColumnarReplayer,
                       columnar_available, parse_columns,
                       replay_lines_columnar, resolve_trace_backend,
                       trace_downgrades)

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
    "TRACE_BACKENDS",
    "accumulate_records",
    "commands_from_records",
    "evaluate_trace_file",
    "read_trace",
    "replay_trace_file",
    "resolve_trace_format",
    "ColumnarReplayer",
    "columnar_available",
    "parse_columns",
    "replay_lines_columnar",
    "resolve_trace_backend",
    "trace_downgrades",
]
