"""Benchmark for sameorder: end-to-end timings and a traced per-layer table.

    python3 perfbench/run.py --workload theorem|collisions|reports \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the engine is imported from
``src/``.  Each pass runs in a fresh child process (perfbench/child.py), one
at a time: a closed loop with one client, ``threads=1``.  Passes start until
``--seconds`` have gone by, and every figure is a median over the passes.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (importing
sameorder, numpy included, in a fresh process), ``pass_s`` (one pass) and
``peak_rss_mb`` (``ru_maxrss`` of the pass process).  ``setup_s`` and
``pass_s`` are in reference seconds: wall time scaled by the host speed an
in-process probe measures while the interval runs (hostclock.py), because
on a shared host the raw wall time of one pass swings by up to 2x with the
load of other tenants.  The raw wall medians and host factors are printed
beside them.  It also prints the p50 and tail of cold ``report_for``
latency, which the traced run reports as the unbounded ``reports.cold_*``
metrics: they are 0 on the workloads that make no such call.

``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics: the traced
pass wraps each layer's public functions in spans (see tracer.py), and
coverage and overhead compare it with the untraced pass.  Layer times are
scaled to reference seconds by their pass's host factor, as ``pass_s`` is.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds the
run's stamp, failures and layer table.  A pass whose outputs fail the
correctness gate voids the run: no timings, exit code 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

# Import time is a fraction of a second, so every run takes many samples
# of it: one per pass, plus import-only children after each pass until they
# have used SETUP_SHARE of the run so far, and at least SETUP_SAMPLES in all.
SETUP_SAMPLES = 16
SETUP_SHARE = 0.15
# Every run must end well inside 180 s, whatever --seconds says.
HARD_LIMIT_S = 170.0
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)

PREDICTED = {
    "theorem": ["matrices.build_s", "core.simple_s"],
    "collisions": ["core.enumerate_s"],
    "reports": ["core.orders_s", "core.simple_s"],
}
# Left out on purpose; each can enter later as its own benchmark change.
EXCLUDED = {
    "hunts at 360, 504, 2448, 5616, 6048 and 25920":
        "they crash today on C(N) with N >= 257 (one-byte permutation keys), "
        "so a fix would read as a slowdown",
    "pair products of two matrix groups":
        "element_orders alone spends 3.6 s on SL(2,3) x SL(2,5) and about 17 s "
        "on PSL(2,7) x PSL(2,5), far beyond a pass of a few seconds",
}


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(workload: str, seed: int, mode: str, out_dir: Path, started: float) -> dict:
    budget = HARD_LIMIT_S - (time.monotonic() - started)
    if budget <= 1:
        raise BenchError("out of time before the pass could start")
    cmd = [sys.executable, str(HERE / "child.py"), str(ROOT), workload, str(seed), mode,
           str(out_dir)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                              timeout=budget)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} pass of {workload} did not end within {budget:.0f} s") from exc
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise BenchError(f"{mode} pass of {workload} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(samples: list) -> tuple:
    """Highest percentile of TAIL_LADDER with at least ten samples above it.

    Returns (percentile, value); with too few samples for any rung the
    median stands in, labelled as p50.
    """
    ordered = sorted(samples)
    n = len(ordered)
    for pct in TAIL_LADDER:
        rank = max(1, math.ceil(pct / 100 * n))
        value = ordered[rank - 1]
        if sum(1 for x in ordered if x > value) >= 10:
            return pct, value
    return 50.0, statistics.median(ordered)


def git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "sameorder").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def measure(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    """Run passes until the time is up; return every child's result by mode.

    The children work in a directory of this run's own (traced passes leave
    their spans there); an untraced run removes it when it is done.
    """
    out_dir = OUT / f"{workload}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    started = time.monotonic()
    runs = {"plain": [], "traced": [], "setup": []}
    setup_time = 0.0
    while not runs["plain"] or time.monotonic() - started < seconds:
        if trace:
            # alternate which side of a pair goes first
            modes = ("plain", "traced") if len(runs["traced"]) % 2 == 0 else ("traced", "plain")
        else:
            modes = ("plain",)
        for mode in modes:
            runs[mode].append(run_child(workload, seed, mode, out_dir, started))
        while not trace and setup_time < SETUP_SHARE * (time.monotonic() - started):
            t0 = time.monotonic()
            runs["setup"].append(run_child(workload, seed, "setup", out_dir, started))
            setup_time += time.monotonic() - t0
    while not trace and sum(map(len, runs.values())) < SETUP_SAMPLES:
        runs["setup"].append(run_child(workload, seed, "setup", out_dir, started))
    if not trace:
        shutil.rmtree(out_dir)
    return runs


def cold_latency(passes: list) -> dict:
    """p50 and tail of cold report_for calls in reference ms; zeros where none ran."""
    latencies = [1000 * s * p["factor"] for p in passes for kind, s in p["ops"] if kind == "cold"]
    if not latencies:
        return {"p50_ms": 0.0, "tail_ms": 0.0, "tail_percentile": None, "samples": 0}
    pct, tail_ms = tail(latencies)
    return {"p50_ms": statistics.median(latencies), "tail_ms": tail_ms,
            "tail_percentile": pct, "samples": len(latencies)}


def end_to_end(passes: list, setups: list) -> dict:
    return {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "pass_s": {"value": statistics.median(p["ref_s"] for p in passes), "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(p["rss_mb"] for p in passes), "unit": "MB"},
    }


LAYER_TIMES = ("dsl.parse", "matrices.build", "perms.build", "core.enumerate", "core.orders",
               "core.classes", "core.center", "core.simple", "core.derived", "core.cert",
               "reports.build", "reports.render", "reports.cache_store", "reports.cache_load")
LAYER_COUNTS = ("dsl.parses", "matrices.elements", "matrices.gens", "matrices.gens_kept",
                "core.elements", "core.classes", "reports.cache_hits", "reports.cache_misses",
                "reports.cache_corrupt")


def per_layer(plain: list, traced: list) -> tuple:
    def med(values):
        return statistics.median(list(values))

    metrics = {}
    for name in LAYER_TIMES:
        metrics[name + "_s"] = {"value": med(p["layers"].get(name, 0.0) * p["factor"]
                                             for p in traced), "unit": "s"}
    for name in LAYER_COUNTS:
        metrics[name] = {"value": med(p["layer_counts"].get(name, 0) for p in traced),
                         "unit": "count"}
    warm = med(p["counts"].get("warm_lookups", 0) for p in traced)
    metrics["reports.hit_ratio"] = {
        "value": metrics["reports.cache_hits"]["value"] / warm if warm else 0.0, "unit": "ratio"}
    wall = med(p["ref_s"] for p in plain)
    covered = med(sum(p["layers"].values()) * p["factor"] for p in traced)
    # cold latency from the untraced passes, so no span overhead lands in it
    cold = cold_latency(plain)
    metrics["reports.cold_p50_ms"] = {"value": cold["p50_ms"], "unit": "ms"}
    metrics["reports.cold_tail_ms"] = {"value": cold["tail_ms"], "unit": "ms"}
    metrics["verify.self_s"] = {"value": med(p["orchestration_s"] * p["factor"] for p in traced),
                                "unit": "s"}
    for name in ("verify.candidates", "verify.collisions"):
        metrics[name] = {"value": med(p["counts"].get(name, 0) for p in traced), "unit": "count"}
    metrics["trace.coverage"] = {"value": covered / wall, "unit": "ratio"}
    metrics["trace.overhead_s"] = {"value": med(p["ref_s"] for p in traced) - wall, "unit": "s"}
    return metrics, {"warm_lookups": warm, "untraced_pass_s": wall, "layer_total_s": covered,
                     "cold_latency": cold}


def dominance(workload: str, metrics: dict) -> dict:
    """Whether the predicted layers are the leading ones in the traced pass."""
    times = {k: v["value"] for k, v in metrics.items()
             if k.endswith("_s") and k.split(".")[0] not in ("trace", "verify")}
    ranked = sorted(times, key=times.get, reverse=True)
    predicted = PREDICTED[workload]
    leaders = ranked[:len(predicted)]
    total = sum(times.values())
    return {"predicted": predicted, "leaders": leaders,
            "share_of_layers": {k: round(times[k] / total, 3) for k in ranked[:4]} if total else {},
            "matches": set(leaders) == set(predicted)}


def print_table(title: str, metrics: dict):
    print(title)
    for name, m in metrics.items():
        print(f"  {name:<24} {m['value']:>14.6g} {m['unit']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(PREDICTED))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "sameorder" / "__init__.py").is_file():
        print(f"no engine source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        runs = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, OSError, ValueError) as exc:
        print(f"benchmark failed: {exc!r}", file=sys.stderr)
        return 1

    passes = runs["plain"] + runs["traced"]
    gate = sorted({line for p in passes for line in p["gate"]})
    attempted = sum(p["attempted"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    by_type = dict(Counter(f"{f['op']}:{f['error']}" for f in failures))
    detail = {
        "stamp": {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "nproc": os.cpu_count(), "python": passes[0]["python"],
            "numpy": passes[0]["numpy"], "git_commit": git_commit(),
            "source_sha256": source_digest(), "threads": 1,
            "passes": {"plain": len(runs["plain"]), "traced": len(runs["traced"])},
            "pass_walls_s": {m: [round(p["wall_s"], 4) for p in runs[m]] for m in ("plain", "traced")},
            "pass_ref_s": {m: [round(p["ref_s"], 4) for p in runs[m]] for m in ("plain", "traced")},
            "host_factors": {m: [round(p["factor"], 4) for p in runs[m]] for m in ("plain", "traced")},
            "setup_samples": len(passes) + len(runs["setup"]),
            "pass_cpu_s": {m: [round(p["cpu_s"], 4) for p in runs[m]] for m in ("plain", "traced")},
            "gc": "gc.collect() in the pass process after import, before the clock starts",
            "host_clock": "reference seconds = (wall - probe time) * REF_PROBE_S / harmonic "
                          "mean of probe durations (perfbench/hostclock.py)",
        },
        "failed_ratio": {"failed": len(failures), "attempted": attempted,
                         "value": len(failures) / attempted if attempted else 0.0},
        "failures_by_type": by_type,
        "failing_expressions": sorted({f["expression"] for f in failures}),
        "gate": gate,
        "excluded": EXCLUDED,
    }
    correct = not gate
    if not correct:
        metrics = {}
    elif args.trace:
        metrics, extra = per_layer(runs["plain"], runs["traced"])
        detail["layers"] = extra
        detail["dominance"] = dominance(args.workload, metrics)
        print_table(f"per-layer metrics, {args.workload} (traced median of "
                    f"{len(runs['traced'])} passes)", metrics)
        d = detail["dominance"]
        print(f"  predicted leaders {d['predicted']}: "
              f"{'match' if d['matches'] else 'DO NOT MATCH, leaders are ' + str(d['leaders'])}")
    else:
        setups = [p["setup_s"] for p in passes + runs["setup"]]
        metrics = end_to_end(runs["plain"], setups)
        cold = detail["cold_latency"] = cold_latency(runs["plain"])
        print_table(f"end-to-end metrics, {args.workload} (median of "
                    f"{len(runs['plain'])} passes, {len(setups)} imports)", metrics)
        raw = detail["raw_wall"] = {
            "pass_wall_s": statistics.median(p["wall_s"] for p in runs["plain"]),
            "setup_wall_s": statistics.median(p["setup_wall_s"] for p in passes + runs["setup"]),
            "host_factor": statistics.median(p["factor"] for p in runs["plain"]),
        }
        print(f"  raw wall: pass {raw['pass_wall_s']:.6g} s, import {raw['setup_wall_s']:.6g} s "
              f"at host factor {raw['host_factor']:.4g} (unbounded)")
        if cold["samples"]:
            print(f"  cold report_for latency   p50 {cold['p50_ms']:.6g} ms, "
                  f"p{cold['tail_percentile']:g} {cold['tail_ms']:.6g} ms "
                  f"of {cold['samples']} samples (unbounded, see per-layer reports.cold_*)")
    fr = detail["failed_ratio"]
    print(f"  {'failed_ratio':<24} {fr['value']:>14.6g} ratio "
          f"({fr['failed']} of {fr['attempted']} ops: {by_type or 'none'}"
          f"{'; ' + ', '.join(detail['failing_expressions']) if failures else ''})")
    for line in gate:
        print(f"  GATE FAILED: {line}")
    print(json.dumps(detail))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(failures),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
