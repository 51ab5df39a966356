"""Seeded end-to-end benchmark of the latreach command line.

Usage (from the repository root):

    python3 perfbench/run.py --workload mlp_exact --seed 1 --seconds 20 --trace 0

One run generates the workload's inputs from the seed, times the set-up of
a fresh process, runs the workload's commands through
``latreach.cli.main`` in a worker process (one command at a time, closed
loop, one client, ``--workers 1``), checks every output with the
independent checker, and prints each metric by name and unit.  The last
line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--trace 0`` reports the end-to-end metrics
of ``BENCHMARK.json``; ``--trace 1`` runs one batch untraced and one traced
and reports the per-layer metrics.  Full results, with an environment
record, go to ``.bench_work/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import check
import gen

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 9
RUN_LIMIT_S = 170.0  # the whole run must end within 180 s

SETUP_SNIPPET = """\
import sys, time
t0 = time.perf_counter()
import latreach
latreach.load_model(sys.argv[1])
print(time.perf_counter() - t0)
"""


def loadavg():
    try:
        return Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        return None


def commit():
    """The checkout's commit if it is a git work tree, else None."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def source_digest():
    h = hashlib.sha256()
    for p in sorted((ROOT / "src" / "latreach").glob("*.py")):
        h.update(p.name.encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def child_env():
    """Environment of the timed processes: this checkout's ``src`` first,
    and one BLAS thread, so a run keeps to the single client it models."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def measure_setup(model, deadline) -> list:
    """``import latreach`` plus ``load_model`` in fresh processes."""
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, "-c", SETUP_SNIPPET, model], env=child_env(),
            capture_output=True, text=True, check=True,
            timeout=max(1.0, deadline - time.monotonic()))
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return times


def last_json(text):
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def without_timing(doc):
    """A verdict with the fields that change run to run removed."""
    doc = dict(doc)
    doc.pop("wall_time_s", None)
    if "per_pixel" in doc:
        doc["per_pixel"] = [{k: v for k, v in r.items() if k != "time_s"}
                            for r in doc["per_pixel"]]
    return doc


def check_batches(plan, batches) -> tuple[dict, dict]:
    """Check every command record; return failures per command and digests."""
    model = check.Model(plan["model"])
    fails: dict = {}
    digests = {}
    verdicts: dict = {}
    for b, records in enumerate(batches):
        dump_doc = None
        for i, rec in enumerate(records):
            key = (b, i)
            doc = last_json(rec["stdout"])
            f = check.check_exit(rec["name"], rec["rc"], doc)
            if doc is None:
                f.append(f"{rec['name']}: stdout holds no JSON")
            elif rec["name"] == "reach_out":
                dump_doc = json.loads(Path(f"{plan['dump']}.{b}").read_text())
                f += check.check_dump(dump_doc, model, plan["baseline"],
                                      plan["coords"], plan["epsilon"])
                if doc.get("set_count") != plan["expect_sets"]:
                    f.append(f"reach: {doc.get('set_count')} sets, expected "
                             f"{plan['expect_sets']}")
                digests[b] = check.digest(dump_doc)
            elif rec["name"] == "backtrack":
                if dump_doc is None:
                    f.append("backtrack without a dump")
                else:
                    sid = int(rec["argv"][rec["argv"].index("--set-id") + 1])
                    f += check.check_backtrack(
                        doc, dump_doc["sets"][sid], model, plan["constraint"],
                        plan["baseline"], plan["coords"], plan["epsilon"])
            elif rec["name"] == "verify":
                args = (model, plan["baseline"], plan["coords"],
                        plan["epsilon"])
                f += check.check_witnesses(doc, *args)
                f += check.check_not_safe(doc, *args)
                if doc.get("status") != plan["expect_status"]:
                    f.append(f"verify: {doc.get('status')}, expected "
                             f"{plan['expect_status']}")
                if doc.get("set_count") != plan["expect_sets"]:
                    f.append(f"verify: {doc.get('set_count')} sets, expected "
                             f"{plan['expect_sets']}")
            elif rec["name"] == "falsify":
                image = check.image_from_bytes(plan["passes"][rec["pass"]][0]
                                               ["image"])
                f += check.check_witnesses(doc, model, image,
                                           range(image.size), plan["epsilon"])
                if doc.get("status") not in ("UNSAFE", "UNKNOWN"):
                    f.append(f"falsify: status {doc.get('status')}")
                if not 1 <= doc.get("pixels_tried", 0) <= 24:
                    f.append("falsify: pixels_tried outside 1..24")
            if doc is not None and rec["name"] in ("verify", "falsify"):
                # the same inputs must give the same verdict every batch
                first = verdicts.setdefault(rec["pass"], without_timing(doc))
                if first != without_timing(doc):
                    f.append(f"{rec['name']}: verdict differs between batches")
            if f:
                fails[key] = f
        dump_doc = None
    if len(set(digests.values())) > 1:
        for b in digests:
            fails.setdefault((b, 0), []).append("dump digest differs between "
                                                "batches")
    return fails, digests


def end_to_end(batches, setup_times, peak_rss) -> dict:
    pass_s = [sum(r["seconds"] for r in records if r["pass"] == p)
              for records in batches
              for p in sorted({r["pass"] for r in records})]
    return {"setup_s": statistics.median(setup_times),
            "result_s": statistics.median(pass_s),
            "peak_rss_mb": peak_rss}


def per_layer(plan, batches, trace) -> dict:
    s = trace["summary"]
    m = dict(s)
    for key in [k for k in s if k.endswith(".classify_calls")]:
        out = s.get(key.replace(".classify_calls", ".sets_out"), 0)
        m[key.replace(".classify_calls", ".classify_per_set_out")] = (
            s[key] / out if out else 0.0)
    m["cli.self_s"] = s.get("cli.main.self_s", 0.0)
    m["cli.verify.scan_s"] = s.get("cli.verify.self_s", 0.0)
    m["trace.overhead_ratio"] = trace["traced_s"] / trace["untraced_s"] - 1.0
    untraced = batches[0]
    for name in ("reach_out", "backtrack"):
        m[f"cli.{name}.s"] = sum(r["seconds"] for r in untraced
                                 if r["name"] == name)
    m["cli.dump_mb"] = sum(r.get("dump_bytes", 0) for r in untraced) / 1e6
    model = check.Model(plan["model"])
    tried = []
    steps = improving = 0
    for rec in batches[1]:
        doc = last_json(rec["stdout"]) if rec["name"] == "falsify" else None
        if not doc:
            continue
        tried.append(doc["pixels_tried"])
        # a step is useful when it lowers the margin it started from
        y = model.forward(check.image_from_bytes(
            plan["passes"][rec["pass"]][0]["image"]))[0]
        prev = y[doc["class"]] - np.delete(y, doc["class"]).max()
        for step in doc["per_pixel"]:
            steps += 1
            improving += step["margin"] < prev
            prev = step["margin"]
    m["cli.falsify.pixels_tried"] = statistics.fmean(tried) if tried else 0.0
    m["cli.falsify.improving_ratio"] = improving / steps if steps else 0.0
    return m


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S
    if not (ROOT / "src" / "latreach" / "__init__.py").is_file():
        print(f"error: no latreach sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = spec["per_layer" if args.trace else "end_to_end"]

    env = {"python": platform.python_version(), "numpy": np.__version__,
           "cpu_count": os.cpu_count(), "loadavg_start": loadavg(),
           "workload": args.workload, "seed": args.seed,
           "seconds": args.seconds, "trace": args.trace, "commit": commit(),
           "source_sha256": source_digest()}
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = WORK / f"{tag}-{os.getpid()}"
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    try:
        plan = gen.generate(args.workload, args.seed, work)
        plan_path = work / "plan.json"
        plan_path.write_text(json.dumps(plan))
        setup_times = measure_setup(plan["model"], deadline)
        out_path = work / "worker.json"
        subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(plan_path),
             str(args.seconds), str(args.trace), str(out_path)],
            env=child_env(), check=True,
            timeout=max(1.0, deadline - time.monotonic()))
        out = json.loads(out_path.read_text())
        batches = out["batches"]
        fails, digests = check_batches(plan, batches)
        if args.trace:
            trace_fails = out["trace"]["crosscheck"]
            if trace_fails:
                for i in range(len(batches[-1])):
                    fails.setdefault((len(batches) - 1, i), []).extend(
                        trace_fails)
            values = per_layer(plan, batches, out["trace"])
            shutil.copy(work / "worker.trace.json",
                        results / f"{tag}.trace.json")
        else:
            values = end_to_end(batches, setup_times,
                                out["peak_rss_mb"])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(len(r) for r in batches)
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)),
                           "unit": m["unit"]} for m in section}
    env["loadavg_end"] = loadavg()
    report = {"env": env, "metrics": metrics, "digests": digests,
              "setup_s_all": setup_times,
              "commands": [[{"name": r["name"], "rc": r["rc"],
                             "seconds": r["seconds"],
                             "cpu_seconds": r["cpu_seconds"],
                             "status": (last_json(r["stdout"]) or {}).get(
                                 "status")} for r in recs]
                           for recs in batches],
              "failures": {f"{b}.{i}": f for (b, i), f in fails.items()}}
    (results / f"{tag}.json").write_text(json.dumps(report, indent=1))

    print(json.dumps({"env": env}))
    for (b, i), f in sorted(fails.items()):
        for msg in f:
            print(f"FAIL batch {b} command {i}: {msg}")
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not fails, "attempted": attempted,
                      "failed": len(fails), "metrics": metrics}))
    return 0 if not fails else 1


if __name__ == "__main__":
    sys.exit(main())
