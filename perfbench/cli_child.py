"""Run one `fsp` CLI command with the benchmark's tracing wrappers installed.

Usage: python3 cli_child.py SUMMARY_JSON OP_ID SPAWN_EPOCH -- <fsp arguments>

It installs the same wrappers as the in-process workloads, calls
`fsp.cli.main`, and writes the span summary and raw spans to SUMMARY_JSON
when the command ends or when SIGTERM arrives at its deadline.  The
`cli.startup_s` counter is the wall time from SPAWN_EPOCH, taken by the
parent just before it started this process, to the call into `main`.
"""

import json
import signal
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracing  # noqa: E402


def _terminate(signum, frame):
    raise SystemExit(124)


def main():
    out_path, op_id, spawn_epoch = sys.argv[1], int(sys.argv[2]), float(sys.argv[3])
    argv = sys.argv[sys.argv.index("--") + 1:]
    import fsp.cli

    tracer = tracing.Tracer()
    tracer.op_id = op_id
    installation = tracing.Installation(tracer).install()
    signal.signal(signal.SIGTERM, _terminate)
    tracer.add("cli.startup_s", time.time() - spawn_epoch)
    rc = 1
    try:
        rc = fsp.cli.main(argv)
    finally:
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        tracer.close_all()
        installation.remove()
        payload = {"summary": tracer.summary(), "spans": tracer.records(),
                   "missing_targets": installation.missing}
        Path(out_path).write_text(json.dumps(payload), encoding="utf-8")
    return rc


if __name__ == "__main__":
    sys.exit(main())
