"""Run the tjcm command line with layer spans recorded.

    python3 benchmarks/traced_cli.py SPANS_JSON OP_ID <tjcm arguments...>

Behaves like ``tjcm <arguments>`` (same stdout, files and exit code) and
writes the spans of the call, plus the wall time of ``tjcm.cli.main``, to
SPANS_JSON.  The spans use this process's clock.
"""

from __future__ import annotations

import json
import sys
import time

import spans


def main() -> int:
    out_path, op, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    import tjcm.cli

    recorder = spans.Recorder(op)
    spans.install(recorder)
    t0 = time.perf_counter()
    try:
        code = tjcm.cli.main(argv)
    finally:
        body = time.perf_counter() - t0
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"body_s": body, "spans": recorder.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
