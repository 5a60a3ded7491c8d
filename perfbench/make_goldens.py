"""Record the golden output digests the benchmark checks against.

    PYTHONPATH=src python3 perfbench/make_goldens.py --seeds 0-29

Run it from the repository root at the commit whose outputs are the
reference.  It certifies every preset once per seed and runs the CLI
operations in process, then writes ``perfbench/goldens.json``.  A later
change that alters a report on purpose records new goldens and says why.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads as wl  # noqa: E402


def _cli_output(cli, op) -> bytes:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(op.argv))
    if code != op.exit_code:
        raise SystemExit(f"{op.name}: exit {code}, expected {op.exit_code}")
    if op.out_file:
        with open(op.out_file, "rb") as fh:
            return fh.read()
    return buf.getvalue().encode()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="0-29", help="inclusive range, e.g. 0-29")
    args = ap.parse_args(argv)

    import eulercert as ec
    import eulercert.cli as cli

    commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True).stdout.strip()
    sols = {pid: ec.preset(pid) for pid in ec.preset_ids()}
    goldens = {"commit": commit, "certify_presets": {}, "cli_batch": {"static": {}, "seeded": {}}}
    workdir = os.path.join(os.getcwd(), ".perfbench_work", "goldens")
    os.makedirs(workdir, exist_ok=True)
    try:
        wl.write_cli_inputs(ec, workdir)
        for seed in wl.seed_range(args.seeds):
            per = {}
            for op in wl.certify_ops(ec, sols, seed, {}):
                report = op.run(ec)
                if report.verdict != "pass":
                    raise SystemExit(f"seed {seed}: {op.name} does not pass")
                per[op.name.split(":", 1)[1]] = wl.sha256(wl.report_bytes(report))
            goldens["certify_presets"][str(seed)] = per
            seeded = {}
            for op in wl.cli_ops(seed, workdir):
                if op.exit_code == 2:
                    continue
                digest = wl.sha256(_cli_output(cli, op))
                if op.seeded:
                    seeded[op.name] = digest
                else:
                    goldens["cli_batch"]["static"].setdefault(op.name, digest)
            goldens["cli_batch"]["seeded"][str(seed)] = seeded
            print(f"seed {seed}: done", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(wl.GOLDENS_PATH, "w") as fh:
        json.dump(goldens, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
