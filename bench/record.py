"""Record the expected outcome of every workload input set into expected.json.

Usage (from the root of a checkout, at the commit whose outputs are the
reference):

    python3 bench/record.py

For every workload and each of the NUM_INPUT_SETS input sets it runs the
CLI pipeline once and stores every command's exit code and checked values
(PASS/FAIL verdicts, final psi_upper and d_target, transport distance).
The file is rewritten whole, so all its entries come from one commit.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

from pipeline import BENCH_DIR, ROOT, Session, cli_pipeline
from workloads import NUM_INPUT_SETS, WORKLOADS, generate


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    recorded = {}
    work = ROOT / ".bench_work"
    work.mkdir(exist_ok=True)
    for name in WORKLOADS:
        recorded[name] = {}
        for k in range(NUM_INPUT_SETS):
            tmp = Path(tempfile.mkdtemp(prefix=f"record-{name}-", dir=work))
            session = Session(expected=None)
            try:
                workload = generate(name, k, tmp / "inputs")
                cli_pipeline(workload, session, tmp, 0)
            finally:
                shutil.rmtree(tmp, ignore_errors=True)
            if session.failures:
                print(f"{name} set {k}: {session.failures}", file=sys.stderr)
                return 1
            recorded[name][str(k)] = session.observed
            print(f"{name} set {k}: {json.dumps(session.observed)}", flush=True)
    (BENCH_DIR / "expected.json").write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
