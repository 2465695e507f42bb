"""Run one `gridshare` CLI request with spans around the public functions.

    python bench/traced_cli.py <spans.json> <request id> <gridshare arguments...>

Behaves as `python -m gridshare.cli <gridshare arguments...>` and, when the
request ends, writes its spans and its import times to <spans.json>.
"""

import time

_t0 = time.perf_counter_ns()
import numpy  # noqa: E402,F401

_t1 = time.perf_counter_ns()
import gridshare.cli  # noqa: E402

_t2 = time.perf_counter_ns()

import json  # noqa: E402
import sys  # noqa: E402

from spans import Recorder  # noqa: E402


def main() -> int:
    spans_path, request = sys.argv[1], sys.argv[2]
    recorder = Recorder(request)
    recorder.install()
    try:
        return gridshare.cli.main(sys.argv[3:])
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"import_numpy_ns": _t1 - _t0, "import_gridshare_ns": _t2 - _t1,
                       "spans": recorder.spans}, fh)


if __name__ == "__main__":
    sys.exit(main())
