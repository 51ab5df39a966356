"""Differential digest of one benchmark workload's outputs.

Usage (from the repository root):

    python3 tools/digest.py --workload conv_verify --seed 1 [--root DIR]

Writes the workload's inputs with ``perfbench/gen.py`` into a temporary
directory, runs every command of the workload once through
``latreach.cli.main`` in this process (as ``perfbench/worker.py`` runs one
batch), and prints one JSON line: each command's name, exit code and the
SHA-256 of its output.  A reach dump is hashed as written but without its
``wall_time_s``; ``verify`` and ``falsify`` stdout without ``wall_time_s``
and per-pixel ``time_s`` (``perfbench/run.py``'s ``without_timing``);
``backtrack`` stdout as printed.  ``latreach`` is imported from
``DIR/src``, by default this checkout's, so two trees that print the same
line for a workload and seed gave the same outputs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import sys
import tempfile
from pathlib import Path

# one BLAS thread, as in the benchmark's timed processes
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import gen  # noqa: E402
from run import without_timing  # noqa: E402
from worker import run_batch  # noqa: E402


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def output_digest(rec) -> str:
    """The SHA-256 of what one command record of ``run_batch`` outputs."""
    if rec["name"] == "backtrack" or rec["rc"] == 4:  # 4: an error
        return sha256(rec["stdout"].encode())
    if rec["name"] == "reach_out":
        argv = rec["argv"]
        dump = Path(argv[argv.index("--out") + 1]).read_bytes()
        return sha256(re.sub(rb', "wall_time_s": [^,}]*', b"", dump))
    doc = without_timing(json.loads(rec["stdout"]))
    return sha256(json.dumps(doc, sort_keys=True).encode())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--root", type=Path, default=ROOT,
                    help="checkout whose src/latreach runs (default: this one)")
    args = ap.parse_args(argv)
    src = args.root.resolve() / "src"
    sys.path.insert(0, str(src))
    import latreach.cli
    if Path(latreach.__file__).resolve().parent != src / "latreach":
        raise ImportError(f"latreach imported from {latreach.__file__}")

    with tempfile.TemporaryDirectory() as work:
        plan = gen.generate(args.workload, args.seed, Path(work))
        records = run_batch(latreach.cli.main, plan)
        commands = [[r["name"], r["rc"], output_digest(r)] for r in records]
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "commands": commands}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
