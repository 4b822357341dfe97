"""One set-up sample: start the interpreter, import ``condid.cli`` and make
one untimed warm-up call, then print ``ready``.  The parent process times
this from launch to the ``ready`` line.

    python3 perfbench/probe.py --workload tables --src SRC --out DIR
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys

THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


def warmup(cli, workload: str, bundled: str, out_dir: str) -> int:
    """The warm-up call each workload makes before it is measured."""
    if workload == "tables":
        argv = ["simulate", "--table", "1", "--reps", "200", "--k-max", "2",
                "--workers", "1", "--output", os.path.join(out_dir, "warmup.csv")]
    else:
        argv = ["analyze", "--input", bundled, "--output", os.path.join(out_dir, "warmup.json")]
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        return cli.main(argv)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--src", required=True)
    parser.add_argument("--bundled", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, args.src)
    from condid import cli

    rc = warmup(cli, args.workload, args.bundled, args.out)
    print("ready" if rc == 0 else f"failed {rc}", flush=True)
    return rc


if __name__ == "__main__":
    raise SystemExit(main())
