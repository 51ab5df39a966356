"""Run one workload's commands through ``latreach.cli.main`` in this process.

Usage: python3 perfbench/worker.py PLAN SECONDS TRACE OUT

Reads the plan written by ``run.py`` and runs batches of its passes, one
command at a time, until SECONDS have gone by: the first batch whole, later
ones up to the pass during which the time runs out.  Writes every
command's argv, exit code, stdout and ``perf_counter`` wall time to OUT as
JSON, with the process's peak resident memory.  A reach dump is renamed to
``<dump>.<batch>`` after each batch, for the checker.

With TRACE=1 it runs one batch untraced and then the same batch traced,
and adds the tracer's per-layer summary, its cross-check against the
program's counters, and the wall time of both batches.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
from pathlib import Path

from tracer import Tracer

ROOT = Path(__file__).resolve().parents[1]


def import_latreach():
    """Import the package from this checkout's ``src``, nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import latreach.cli
    import latreach.engine
    import latreach.layers
    if Path(latreach.__file__).resolve().parent != src / "latreach":
        raise ImportError(f"latreach imported from {latreach.__file__}")
    return {"cli": latreach.cli, "engine": latreach.engine,
            "layers": latreach.layers}


def run_command(main, cmd, context, call=None):
    """Run one CLI command with stdout captured; return its record."""
    argv = [a.format(**context) for a in cmd["argv"]]
    buf = io.StringIO()
    c0 = time.process_time()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        rc = main(argv) if call is None else call(main, argv)
    seconds = time.perf_counter() - t0
    rec = {"name": cmd["name"], "argv": argv, "rc": rc,
           "stdout": buf.getvalue(), "seconds": seconds,
           "cpu_seconds": time.process_time() - c0}
    if cmd["name"] == "reach_out":
        out = argv[argv.index("--out") + 1]
        rec["dump_bytes"] = os.path.getsize(out)
    return rec


def run_batch(main, plan, call=None, stop=None):
    """One batch: every pass of the plan in order; returns command records.

    ``stop()`` is asked after each pass; when it says so, the batch ends
    early.
    """
    records = []
    for pi, commands in enumerate(plan["passes"]):
        context = {}
        for cmd in commands:
            rec = run_command(main, cmd, context, call)
            rec["pass"] = pi
            records.append(rec)
            if cmd["name"] == "reach_out" and rec["rc"] == 0:
                count = json.loads(rec["stdout"])["set_count"]
                nxt = next(c for c in commands if c["name"] == "backtrack")
                context["set_id"] = nxt["set_pick"] % count
        if stop is not None and stop():
            break
    return records


def keep_dump(plan, b) -> None:
    """Move this batch's dump aside so the next batch cannot overwrite it."""
    if "dump" in plan and os.path.exists(plan["dump"]):
        os.replace(plan["dump"], f"{plan['dump']}.{b}")


def main(argv) -> int:
    plan_path, seconds, trace, out_path = argv
    seconds, trace = float(seconds), trace == "1"
    plan = json.loads(Path(plan_path).read_text())
    modules = import_latreach()
    cli_main = modules["cli"].main

    result = {"batches": []}
    start = time.perf_counter()
    if not trace:
        def window_over():
            return time.perf_counter() - start >= seconds

        # the first batch runs whole; later ones stop when the window ends
        while not result["batches"] or not window_over():
            stop = window_over if result["batches"] else None
            result["batches"].append(run_batch(cli_main, plan, stop=stop))
            keep_dump(plan, len(result["batches"]) - 1)
    else:
        t0 = time.perf_counter()
        result["batches"].append(run_batch(cli_main, plan))
        untraced = time.perf_counter() - t0
        keep_dump(plan, 0)
        tracer = Tracer(modules)
        tracer.install()
        try:
            t0 = time.perf_counter()
            result["batches"].append(run_batch(
                cli_main, plan,
                call=lambda fn, a: tracer.run_span("cli.main", fn, a)))
            traced = time.perf_counter() - t0
        finally:
            tracer.uninstall()
        keep_dump(plan, 1)
        tracer.write(Path(out_path).with_suffix(".trace.json"))
        result["trace"] = {"summary": tracer.summary(),
                           "crosscheck": tracer.crosscheck(),
                           "untraced_s": untraced, "traced_s": traced}
    result["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    Path(out_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
