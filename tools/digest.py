"""Differential digest of one benchmark workload's outputs.

Usage (from the repository root):

    python3 tools/digest.py --workload conv_verify --seed 1 [--root DIR]
    python3 tools/digest.py --workload conv_verify --seed 1 --against DIR

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

``--against DIR`` runs the workload on both trees instead, each in a
child process, and compares their outputs.  Exit codes, set counts, face
records (ids, dims, children), pinned dump scalars and every non-float
value of a verdict must match exactly; a float may differ.  It prints one
JSON line with the worst difference of a vertex row, of a region row and
of any other float array or number, each relative to its own scale (the
largest absolute entry of the two, at least 1), and the exact mismatches
found; it exits 1 when there is one.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import re
import subprocess
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


class Diff:
    """What two runs' outputs differ in: the exact mismatches, and the
    worst relative difference of each kind of float."""

    def __init__(self):
        self.mismatches, self.cap = [], 0
        self.worst = {"vertex_row": 0.0, "region_row": 0.0, "other": 0.0}

    def exact(self, where, a, b):
        if a != b and len(self.mismatches) < self.cap:
            self.mismatches.append(f"{where}: {a!r} != {b!r}")

    def floats(self, kind, a, b):
        """Note the difference of two equally long float lists (or two
        numbers) relative to their scale: their largest finite absolute
        entry, at least 1, as in the zero band."""
        a, b = (x if isinstance(x, list) else [x] for x in (a, b))
        scale = max([1.0] + [abs(v) for v in a + b if math.isfinite(v)])
        for x, y in zip(a, b):
            if x != y and not (x != x and y != y):  # both NaN count as equal
                gap = abs(x - y) / scale
                self.worst[kind] = max(self.worst[kind], gap
                                       if math.isfinite(gap) else math.inf)

    def json(self, where, a, b, kind="other"):
        """Compare two decoded JSON values: floats by ``floats``, the rest
        exactly, a list of numbers as one row."""
        def number(x):
            return isinstance(x, (int, float)) and not isinstance(x, bool)
        if isinstance(a, float) or isinstance(b, float):
            if number(a) and number(b):
                return self.floats(kind, float(a), float(b))
        elif (isinstance(a, list) and isinstance(b, list) and len(a) == len(b)
              and any(isinstance(x, float) for x in a + b)
              and all(map(number, a + b))):
            return self.floats(kind, [float(x) for x in a],
                               [float(x) for x in b])
        if isinstance(a, dict) and isinstance(b, dict):
            self.exact(f"{where} keys", sorted(a), sorted(b))
            for key in sorted(a.keys() & b.keys()):
                self.json(f"{where}.{key}", a[key], b[key], kind)
        elif isinstance(a, list) and isinstance(b, list):
            self.exact(f"{where} length", len(a), len(b))
            for i, (x, y) in enumerate(zip(a, b)):
                self.json(f"{where}[{i}]", x, y, kind)
        else:
            self.exact(where, a, b)


def dump_scalars(path) -> dict:
    """The pinned scalars of a result dump, read from its two ends."""
    with open(path, "rb") as f:
        head = f.read(4096).decode()
        f.seek(max(0, f.seek(0, 2) - 4096))
        tail = f.read().decode()
    head = head[:head.index(', "sets": [')] + "}"
    tail = "{" + tail[tail.rindex('], "set_count": ') + 3:]
    return {**json.loads(head), **json.loads(tail)}


def compare_dumps(diff, where, a, b, iter_set_records) -> None:
    """Compare two result dumps record by record, holding one of each."""
    sa, sb = dump_scalars(a), dump_scalars(b)
    sa.pop("wall_time_s")
    sb.pop("wall_time_s")
    diff.json(f"{where} scalars", sa, sb)
    n = 0
    records = zip(iter_set_records(a), iter_set_records(b))
    for i, (x, y) in enumerate(records):
        n += 1
        diff.exact(f"{where} set {i} faces", x["faces"], y["faces"])
        for key, kind in (("vertices", "vertex_row"),
                          ("region", "region_row")):
            diff.exact(f"{where} set {i} {key} rows", len(x[key]), len(y[key]))
            for u, v in zip(x[key], y[key]):
                diff.exact(f"{where} set {i} {key} width", len(u), len(v))
                diff.floats(kind, u, v)
    diff.exact(f"{where} sets read", n, sa["set_count"])


def stdout_doc(rec):
    """A command's stdout as ``output_digest`` reads it: JSON without its
    timing (and a reach's without the dump's path, which differs between
    runs), or the text of an error."""
    try:
        doc = without_timing(json.loads(rec["stdout"]))
    except json.JSONDecodeError:
        return rec["stdout"]
    if rec["name"] == "reach_out":
        doc["out"] = None
    return doc


def against(args) -> int:
    """Run the workload on this tree and on ``args.against``; compare."""
    with tempfile.TemporaryDirectory() as tmp:
        runs = []
        for root in (args.root, args.against):
            work = Path(tmp) / str(len(runs))
            subprocess.run([sys.executable, __file__, "--workload",
                            args.workload, "--seed", str(args.seed), "--root",
                            str(root), "--keep", str(work)], check=True)
            runs.append(json.loads((work / "records.json").read_text()))
        sys.path.insert(0, str(args.root.resolve() / "src"))
        from latreach.engine import iter_set_records

        diff = Diff()
        mine, theirs = runs
        diff.cap = 1
        diff.exact("commands", [r["name"] for r in mine],
                   [r["name"] for r in theirs])
        commands = []
        for i, (x, y) in enumerate(zip(mine, theirs)):
            where = f"{x['name']} {i}"
            diff.cap = len(diff.mismatches) + 5  # the first 5 per command
            commands.append([x["name"], x["rc"], y["rc"]])
            diff.exact(f"{where} exit code", x["rc"], y["rc"])
            diff.json(f"{where} stdout", stdout_doc(x), stdout_doc(y))
            if x["name"] == "reach_out" and x["rc"] == 0 == y["rc"]:
                compare_dumps(diff, where, x["dump"], y["dump"],
                              iter_set_records)
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "against": str(args.against), "commands": commands,
                      "worst_relative": diff.worst,
                      "mismatches": diff.mismatches}))
    return 1 if diff.mismatches else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--root", type=Path, default=ROOT,
                    help="checkout whose src/latreach runs (default: this one)")
    ap.add_argument("--against", type=Path,
                    help="compare the outputs with this checkout's")
    ap.add_argument("--keep", type=Path, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.against is not None:
        return against(args)
    src = args.root.resolve() / "src"
    sys.path.insert(0, str(src))
    import latreach.cli
    if Path(latreach.__file__).resolve().parent != src / "latreach":
        raise ImportError(f"latreach imported from {latreach.__file__}")

    with tempfile.TemporaryDirectory() as work:
        if args.keep is not None:  # a run of --against: keep the outputs
            work = args.keep
            work.mkdir(parents=True)
        plan = gen.generate(args.workload, args.seed, Path(work))
        records = run_batch(latreach.cli.main, plan)
        if args.keep is not None:
            for r in records:
                if r["name"] == "reach_out":
                    r["dump"] = r["argv"][r["argv"].index("--out") + 1]
            (args.keep / "records.json").write_text(json.dumps(records))
            return 0
        commands = [[r["name"], r["rc"], output_digest(r)] for r in records]
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "commands": commands}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
