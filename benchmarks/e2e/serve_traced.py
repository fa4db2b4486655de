"""``repro serve`` with every layer of the span table wrapped.

Installs the same wrappers as a traced library run, then hands the
remaining arguments to the ``repro`` CLI entry point, so the process
layout matches an untraced run.  The service drains and returns on
SIGTERM; the spans and counters it recorded are then written, gzipped
JSON, to ``--spans``.

Usage: ``python benchmarks/e2e/serve_traced.py --spans PATH serve
--port 0``
"""

from __future__ import annotations

import argparse
import gzip
import json
import sys
from typing import List

from harness import use_src


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--spans", required=True)
    args, rest = parser.parse_known_args(argv)
    use_src()
    import spans
    from repro import cli

    recorder = spans.Recorder()
    spans.install(recorder)
    try:
        return cli.main(rest)
    finally:
        with gzip.open(args.spans, "wt", encoding="utf-8") as handle:
            json.dump({"spans": recorder.spans,
                       "counts": recorder.counts}, handle)


if __name__ == "__main__":
    sys.exit(main())
