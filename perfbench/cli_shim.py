"""Run one eulercert CLI command with the span tracer installed.

    python3 perfbench/cli_shim.py SUMMARY.json -- certify ex_3_10 --samples 1000

Used by the traced run of ``cli_batch`` in place of ``python3 -m eulercert.cli``.
It installs the tracer, runs the command with the same stdout, stderr and
exit code, and writes the span summary to SUMMARY.json.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import spans  # noqa: E402


def main() -> int:
    out_path, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: cli_shim.py SUMMARY.json -- COMMAND [ARGS...]")
    import eulercert.cli as cli

    tracer = spans.Tracer()
    tracer.install()
    try:
        code = cli.main(argv)
    except SystemExit as e:  # argparse usage errors
        code = e.code if isinstance(e.code, int) else 2
    finally:
        tracer.uninstall()
        sys.stdout.flush()
    with open(out_path, "w") as fh:
        json.dump(tracer.summary(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
