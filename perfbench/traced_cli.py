"""Run one atckit CLI call in-process with span tracing on.

Usage: python3 traced_cli.py SPANS_JSON RUN_ID -- ATCKIT_ARGV...

atckit must be importable (the benchmark puts the checkout's ``src`` on
PYTHONPATH). The spans are written to SPANS_JSON when the call returns,
and the process exits with the CLI's own exit code.
"""

import sys

from tracing import Tracer, install


def main(argv: list[str]) -> int:
    spans_path, run_id, sep, *cli_argv = argv
    if sep != "--":
        raise SystemExit("usage: traced_cli.py SPANS_JSON RUN_ID -- ATCKIT_ARGV...")
    import atckit.cli

    tracer = Tracer(run_id)
    install(tracer)
    try:
        return tracer.call("cli.main", atckit.cli.main, (cli_argv,))
    finally:
        tracer.write(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
