"""Record reference.json: digests of the fixed reference calls and of every
call in the finite pools the batches draw from.

Run from the root of a checkout whose outputs are trusted:

    python3 bench/record_reference.py

A call that raises, or fails its self-checks, gets no digest.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import workloads as wl
from run import import_package


def main() -> int:
    root = Path.cwd()
    mg, oracles = import_package(root)
    pools = wl.Pools(mg)
    scratch = Path(tempfile.mkdtemp(dir=root))
    runner = wl.Runner(mg, oracles, scratch, reference={})
    calls = [c for w in wl.WORKLOADS for c in wl.reference_calls(mg, pools, w)]
    calls += wl.lookup_pool(mg, pools)
    digests, skipped = {}, []
    try:
        for call in calls:
            try:
                result = runner.execute(call)
            except Exception as exc:  # recorded as missing, never as a digest
                skipped.append(f"{call!r}: {type(exc).__name__}")
                continue
            why = runner.check(call, result)
            if why:
                skipped.append(f"{call!r}: {why}")
                continue
            digests[wl.call_key(call)] = wl.digest(result)
    finally:
        shutil.rmtree(scratch)
    out = Path(__file__).resolve().parent / "reference.json"
    out.write_text(json.dumps({"calls": digests}, indent=0, sort_keys=True) + "\n")
    print(f"{len(digests)} digests written to {out.name}; {len(skipped)} calls skipped")
    for line in skipped:
        print("  skipped", line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
