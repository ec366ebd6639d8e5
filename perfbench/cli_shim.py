"""Traced stand-in for ``python -m bdalg``: imports bdalg.cli, wraps the
library with the benchmark's tracer, calls ``main(argv)`` and appends a JSON
report (span summary, spans, import and main times) as the last stderr line.

    python cli_shim.py <group> <verb> [options...]
"""
import json
import sys
import time

t0 = time.perf_counter()
import bdalg.cli  # noqa: E402

import_s = time.perf_counter() - t0

from tracing import Tracer  # noqa: E402


def main() -> int:
    tracer = Tracer()
    tracer.install()
    entry = tracer.wrap("cli.main", bdalg.cli.main)
    misses0 = tracer.poly_cache.cache_info().misses
    tracer.op_id = 0
    tracer.on = True
    t1 = time.perf_counter()
    try:
        rc = entry(sys.argv[1:])
    finally:
        main_s = time.perf_counter() - t1
        tracer.on = False
    sys.stdout.flush()
    spans = {k: v if k == "names" else v.tolist() for k, v in tracer.export().items()}
    report = {"summary": tracer.summary(), "spans": spans,
              "import_s": import_s, "main_s": main_s,
              "poly_cache_misses": tracer.poly_cache.cache_info().misses - misses0}
    print(json.dumps(report), file=sys.stderr)
    return rc


if __name__ == "__main__":
    sys.exit(main())
