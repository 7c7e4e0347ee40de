"""Run one agdeform CLI command with every layer target traced.

Usage: python3 perfbench/traced_cli.py TRACE_OUT -- <agdeform cli args>

The CLI's own stdout and exit code pass through unchanged.  The per-target
aggregates are written as JSON to TRACE_OUT after the originals have been
put back, so a wrapper that fails to come off makes this exit nonzero.
"""

from __future__ import annotations

import json
import sys

from tracer import Tracer


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        sys.stderr.write(__doc__)
        return 2
    trace_out, cli_args = argv[0], argv[2:]
    from agdeform import cli

    tracer = Tracer()
    tracer.install()
    try:
        code = cli.main(cli_args)
    finally:
        tracer.restore()
    sys.stdout.flush()
    with open(trace_out, "w", encoding="utf-8") as fh:
        json.dump(tracer.snapshot(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
