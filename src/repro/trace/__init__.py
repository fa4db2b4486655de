"""Streaming ingestion of external memory traces (k6, mase, NDJSON).

Public surface: line parsers and the one byte → line reader
(:mod:`formats`), the configurable physical-address bit-slice decoder
(:mod:`decoder`), the lazy record → command → energy pipeline
(:mod:`ingest`), the columnar batch kernel (:mod:`columnar`,
numpy-optional) and rank-sharded process-parallel replay with exact
merge (:mod:`parallel`).
"""

from .decoder import POLICIES, AddressDecoder, DecodedAddress
from .formats import (FORMATS, TraceFormatError, TraceRecord,
                      detect_format, iter_decompressed, iter_jsonl,
                      iter_k6, iter_line_batches, iter_lines, iter_mase,
                      iter_records, open_trace_bytes, open_trace_lines)
from .ingest import (DEFAULT_CLOCK, TRACE_BACKENDS,
                     accumulate_records, commands_from_records,
                     evaluate_trace_file, read_trace,
                     replay_trace_file, resolve_trace_format)
from .columnar import (ColumnarReplayer, choose_trace_backend,
                       columnar_available, parse_columns,
                       replay_lines_columnar, replay_records_columnar,
                       trace_downgrades)
from .parallel import (evaluate_file_sharded, fold_file_shards,
                       replay_records_sharded, shard_assignments)

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
    "TRACE_BACKENDS",
    "accumulate_records",
    "commands_from_records",
    "evaluate_trace_file",
    "read_trace",
    "replay_trace_file",
    "resolve_trace_format",
    "ColumnarReplayer",
    "choose_trace_backend",
    "columnar_available",
    "parse_columns",
    "replay_lines_columnar",
    "replay_records_columnar",
    "trace_downgrades",
    "evaluate_file_sharded",
    "fold_file_shards",
    "replay_records_sharded",
    "shard_assignments",
]
