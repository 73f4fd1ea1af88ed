"""Run ``python -m repro ARGS`` in this process with the layer wrappers on.

Usage: ``python perfbench/cli_traced.py OUT ARGS...``.  Writes the span
summary and the loop's record counts to the JSON file ``OUT`` and exits
with the CLI's own status.  The traced cli-railcab run spawns this in
place of ``python -m repro`` so the child's layers are attributed too.
"""

from __future__ import annotations

import json
import runpy
import sys

from layers import LayerTrace, traced


def main() -> int:
    out, args = sys.argv[1], sys.argv[2:]
    trace = LayerTrace()
    sys.argv = ["repro", *args]
    status = 0
    with traced(trace):
        try:
            runpy.run_module("repro", run_name="__main__", alter_sys=True)
        except SystemExit as exit:
            code = exit.code
            status = 0 if code is None else code if isinstance(code, int) else 1
    payload = {"trace": trace.summary(), "counts": trace.counts}
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
    return status


if __name__ == "__main__":
    sys.exit(main())
