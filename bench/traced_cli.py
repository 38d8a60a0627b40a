"""Run one `hiret` CLI command with the span recorder installed.

Usage: ``python3 bench/traced_cli.py SPANS_OUT OP_ID -- <hiret arguments>``.
Times ``import hiret.cli`` as the ``cli.import`` span, wraps the public
functions listed in ``spans.py``, runs ``hiret.cli.main`` and writes the
spans to ``SPANS_OUT`` as JSON. Exits with the CLI's exit code.
"""

import sys
import time
from pathlib import Path

from spans import CLI_WRAPS, INGEST_WRAPS, QUERY_WRAPS, Tracer


def main() -> int:
    out, op, sep, *cli_args = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: traced_cli.py SPANS_OUT OP_ID -- <hiret arguments>")
    tracer = Tracer()
    tracer.op = op
    start = time.perf_counter()
    import hiret.cli

    tracer.record("cli.import", start, time.perf_counter())
    tracer.wrap_all(CLI_WRAPS + INGEST_WRAPS + QUERY_WRAPS)
    code = hiret.cli.main(cli_args)
    tracer.write(Path(out))
    return code


if __name__ == "__main__":
    sys.exit(main())
