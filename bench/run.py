#!/usr/bin/env python3
"""The selcalc benchmark.

    python3 bench/run.py --workload corpus --seed 1 --seconds 35 --trace 0

Run from the root of a checkout.  ``--trace 0`` runs one workload as a
closed loop (one client, ``jobs=1``) for ``--seconds`` seconds and reports
the end-to-end metrics, its times scaled to a nominal host speed gauged
by ``reference.py`` (the raw times are printed beside them); ``--trace
1`` is the separate traced run that
reports the per-layer metrics.  Lines before the last give every metric by
name with its unit, the environment, the input limits and each failure;
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller record
(latencies, and spans for the traced run) is written under ``.bench_out/``.

Exit code: 0 when every output matched its reference, 1 when any item
raised or mismatched, 2 when the checkout holds no selcalc sources.
bench/README.md describes the workloads, metrics and policies.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOAD_NAMES = ("corpus", "deep", "suites")
SETUP_PROBES = 9          # fresh interpreters timed per run for setup_s
TRACE_IMPORT_PROBES = 3   # fresh interpreters timed per traced run for cli.import_s
PROBE_EVERY_S = 0.25      # wall time between host-speed probes in the timed phase

END_TO_END = {"items_per_s": "1/s", "item_p50_ms": "ms", "item_tail_ms": "ms",
              "setup_s": "s", "peak_rss_mb": "MB"}

# span names whose mean self time per call is a per-layer metric
LAYER_SPANS = ("syntax.parse_program", "syntax.typecheck",
               "operational.eval_effect", "strategies.select_fast",
               "strategies.select_bruteforce", "selection.denote",
               "selection.agree_at", "selection.observe", "equations.canon",
               "equations.purity")
SUITE_NAMES = ("monad-laws", "theta-morphism", "adequacy-prob-T2",
               "adequacy-prob-T3", "canon-sound", "purity-prob",
               "axioms-fig3", "axioms-fig4")
PER_LAYER = {
    **{f"{s}.s": "s" for s in LAYER_SPANS},
    "syntax.nodes_per_s": "1/s",
    "operational.effect_nodes": "count",
    "strategies.strategy_count": "count",
    "monads.atom_key.hit_ratio": "ratio",
    "monads.atom_key.lookups": "count",
    "monads.kernel_suites.s": "s",
    "equations.prob_dedup_ratio": "ratio",
    "testgen.gen.s": "s",
    "cli.import_s": "s",
    **{f"cli.run_suite.{s}.s": "s" for s in SUITE_NAMES},
    "trace.overhead_pct": "%",
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description="selcalc benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny inputs and one set-up probe, for the self-test")
    ap.add_argument("--plant-wrong", action="store_true",
                    help="corrupt one timed item's expected answer, "
                         "for the self-test")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


@dataclass
class Record:
    item: object
    out: object
    error: str | None
    seconds: float


def run_item(wl, it, tr, seed) -> Record:
    with tr.item(f"item.{wl.name}", f"{wl.name}:{seed}:{it.index}"):
        t0 = time.perf_counter()
        try:
            out, err = wl.run(it, tr), None
        except Exception as e:  # counted as a failed item, never dropped
            out, err = None, f"{type(e).__name__}: {e}"
        dt = time.perf_counter() - t0
    return Record(it, out, err, dt)


def check_record(wl, rec: Record, tr, seed) -> list[str]:
    """Check one output against its reference; describe each failure with
    its (workload, seed, index)."""
    if rec.error is not None:
        errs = [f"raised {rec.error}"]
    else:
        with tr.item(f"check.{wl.name}", f"{wl.name}:{seed}:{rec.item.index}"):
            try:
                errs = wl.check(rec.item, rec.out, tr)
            except Exception as e:
                errs = [f"check raised {type(e).__name__}: {e}"]
    return [f"{wl.name} seed {seed} item {rec.item.index}: {e}" for e in errs]


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten items beyond it, and its
    value: the eleventh largest latency (the largest when there are at most
    ten)."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return 100.0, xs[-1]
    return 100.0 * (n - 10) / n, xs[n - 11]


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def environment() -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "selcalc").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "recursion_limit": sys.getrecursionlimit(),
            "source_sha256": digest.hexdigest()[:16],
            "platform": platform.platform()}


def clear_cache(selcalc) -> None:
    """Empty ``atom_key``'s LRU cache, where the program has one."""
    if hasattr(selcalc.atom_key, "cache_clear"):
        selcalc.atom_key.cache_clear()


def prepare(wl) -> list:
    """The inputs made before the first timed item: the warm-up items and
    the first timed one."""
    return [wl.item(k) for k in range(wl.warmup + 1)]


def setup_probe(args) -> int:
    """Child side of the set-up measurement: import, prepare, report."""
    t0 = time.perf_counter()
    import selcalc  # noqa: F401
    t1 = time.perf_counter()
    from tracing import NullTracer
    from workloads import WORKLOADS
    prepare(WORKLOADS[args.workload](args.seed, args.tiny, NullTracer()))
    print(json.dumps({"import_s": t1 - t0, "prep_s": time.perf_counter() - t1}),
          flush=True)
    return 0


def measure_setup(args, probes: int) -> tuple[list[float], list[float]]:
    """Time ``probes`` fresh interpreters from spawn until the workload is
    prepared, after one untimed probe that warms the bytecode cache.
    Returns the wall times and the times ``import selcalc`` took."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        cmd.append("--tiny")
    walls, imports = [], []
    for k in range(probes + 1):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            wall = time.perf_counter() - t0
            proc.stdout.read()
            code = proc.wait(timeout=600)
        if code != 0 or not line:
            raise RuntimeError(f"set-up probe exited with code {code}")
        if k:
            walls.append(wall)
            imports.append(json.loads(line)["import_s"])
    return walls, imports


def timed_run(args) -> dict:
    walls, _ = measure_setup(args, 1 if args.tiny else SETUP_PROBES)
    import selcalc
    from reference import Gauge
    from tracing import NullTracer
    from workloads import WORKLOADS
    null, gauge = NullTracer(), Gauge()
    wl = WORKLOADS[args.workload](args.seed, args.tiny, null)
    failures: list[str] = []
    failed = 0
    lat: list[float] = []
    probe_of: list[int] = []  # the last host-speed probe before each item
    *warm, it = prepare(wl)
    if args.plant_wrong:
        wl.plant(it)
    for w in warm:
        errs = check_record(wl, run_item(wl, w, null, args.seed), null, args.seed)
        failed += bool(errs)
        failures += errs
    # the cache starts empty for the timed phase on every commit
    clear_cache(selcalc)
    # Distinct items, one after another, for the given wall time.  Each is
    # checked as it finishes, outside its timed span, so that no output is
    # kept.
    start = last_probe = time.perf_counter()
    gauge.probe()
    while time.perf_counter() - start < args.seconds:
        if time.perf_counter() - last_probe >= PROBE_EVERY_S:
            gauge.probe()
            last_probe = time.perf_counter()
        rec = run_item(wl, it, null, args.seed)
        lat.append(rec.seconds)
        probe_of.append(len(gauge.samples) - 1)
        if len(lat) == wl.first_items:
            rss = peak_rss_mb()
        errs = check_record(wl, rec, null, args.seed)
        failed += bool(errs)
        failures += errs
        it = wl.item(it.index + 1)
    wall = time.perf_counter() - start
    if len(lat) < wl.first_items:
        rss = peak_rss_mb()

    def timed(lat):
        pct, tail_s = tail(lat[:wl.first_items])
        return {"items_per_s": len(lat) / sum(lat),
                "item_p50_ms": statistics.median(lat) * 1e3,
                "item_tail_ms": tail_s * 1e3}, pct

    # scaled to the nominal host: each latency by the host factor around it
    values, pct = timed([x / gauge.factor(j) for x, j in zip(lat, probe_of)])
    raw, _ = timed(lat)
    values["setup_s"] = statistics.median(walls)
    values["peak_rss_mb"] = rss
    info = {"workload": args.workload, "seed": args.seed,
            "timed_items": len(lat), "warmup_items": len(warm),
            "tail_items": min(len(lat), wl.first_items),
            "busy_s": sum(lat), "wall_s": wall, "tail_percentile": pct,
            "host_factor": gauge.factor(), "raw": raw,
            "setup_samples_s": walls, "inputs": wl.notes,
            "latencies_s": lat, "probes_s": gauge.samples}
    return {"values": values, "units": END_TO_END,
            "attempted": len(warm) + len(lat), "failed": failed,
            "failures": failures, "info": info}


def traced_run(args) -> dict:
    """Run rounds of fresh items of the workload until ``--seconds`` have
    passed.  A round runs its items untraced and traced, in turn first;
    per-layer metrics come from the traced passes, the overhead from
    comparing the two."""
    _, imports = measure_setup(args, 1 if args.tiny else TRACE_IMPORT_PROBES)
    import selcalc
    from tracing import NullTracer, Tracer
    from workloads import WORKLOADS
    null, tracer = NullTracer(), Tracer()
    wl = WORKLOADS[args.workload](args.seed, args.tiny, tracer)
    key = selcalc.atom_key
    spent = {null: 0.0, tracer: 0.0}
    hits = misses = attempted = failed = rounds = 0
    failures: list[str] = []
    *warm, it = prepare(wl)
    for w in warm:  # warm-up, untimed
        errs = check_record(wl, run_item(wl, w, null, args.seed), null, args.seed)
        attempted += 1
        failed += bool(errs)
        failures += errs
    k = it.index
    start = time.perf_counter()
    while rounds == 0 or time.perf_counter() - start < args.seconds:
        items = [wl.item(k + i) for i in range(wl.trace_slice)]
        k += wl.trace_slice
        for tr in ((null, tracer) if rounds % 2 == 0 else (tracer, null)):
            clear_cache(selcalc)
            recs = [run_item(wl, x, tr, args.seed) for x in items]
            spent[tr] += sum(r.seconds for r in recs)
            if tr is tracer and hasattr(key, "cache_info"):
                info = key.cache_info()
                hits, misses = hits + info.hits, misses + info.misses
            for rec in recs:
                errs = check_record(wl, rec, tracer, args.seed)
                attempted += 1
                failed += bool(errs)
                failures += errs
        rounds += 1

    st = tracer.self_times()

    def mean_self(name):
        total, n = st.get(name, (0.0, 0))
        return total / n if n else 0.0

    parse_total = st.get("syntax.parse_program", (0.0, 0))[0]
    pr = tracer.counts["equations.pr_branches"]
    values = {f"{s}.s": mean_self(s) for s in LAYER_SPANS}
    values.update({
        "syntax.nodes_per_s": tracer.counts["syntax.nodes"] / parse_total if parse_total else 0.0,
        "operational.effect_nodes": tracer.mean_count("operational.effect_nodes"),
        "strategies.strategy_count": tracer.mean_count("strategies.strategy_count"),
        "monads.atom_key.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "monads.atom_key.lookups": (hits + misses) / rounds,
        "monads.kernel_suites.s": mean_self("cli.run_suite.monad-laws")
        + mean_self("cli.run_suite.theta-morphism"),
        "equations.prob_dedup_ratio": tracer.counts["equations.canon_branches"] / pr if pr else 0.0,
        "testgen.gen.s": mean_self("testgen.gen_program"),
        "cli.import_s": statistics.median(imports),
        **{f"cli.run_suite.{s}.s": mean_self(f"cli.run_suite.{s}") for s in SUITE_NAMES},
        "trace.overhead_pct": 100.0 * (spent[tracer] / spent[null] - 1),
    })
    info = {"workload": args.workload, "seed": args.seed, "rounds": rounds,
            "items_per_pass": wl.trace_slice, "inputs": wl.notes,
            "atom_key": {"hits": hits, "misses": misses},
            "spans": tracer.to_json()}
    return {"values": values, "units": PER_LAYER, "attempted": attempted,
            "failed": failed, "failures": failures, "info": info}


def report(args, result: dict) -> None:
    info = result["info"]
    env = environment()
    print("environment: " + json.dumps(env))
    if args.trace:
        print(f"traced run of {args.workload}, seed {args.seed}: {info['rounds']} "
              f"round(s) of {info['items_per_pass']} items, each run untraced "
              "and traced")
    else:
        print(f"workload {args.workload}, seed {args.seed}: {info['timed_items']} "
              f"distinct items busy for {info['busy_s']:.3f} s of "
              f"{info['wall_s']:.3f} s (the rest is checking and making inputs) "
              f"after {info['warmup_items']} warm-up items; closed loop, one "
              "client, jobs=1")
        print(f"host factor {info['host_factor']:.4g} (median over the timed "
              "phase): the item times below are scaled to the nominal host "
              "(bench/reference.py)")
    print("inputs: " + json.dumps(info["inputs"]))
    attempted, failed = result["attempted"], result["failed"]
    print(f"failed_frac {failed / attempted:.6g} ({failed} of {attempted} items)")
    for msg in result["failures"]:
        print(f"FAILED {msg}", file=sys.stderr)
    for name, value in result["values"].items():
        extra = ""
        if name == "item_tail_ms":
            extra = (f"  (p{info['tail_percentile']:.2f} of the first "
                     f"{info['tail_items']} timed items)")
        if name in info.get("raw", {}):
            extra += f"  (raw {info['raw'][name]:.6g})"
        print(f"{name} {value:.6g} {result['units'][name]}{extra}")
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({"environment": env, **result}, default=str))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": result["units"][k]}
                    for k, v in result["values"].items()}}))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "selcalc" / "__init__.py").is_file():
        print(f"error: no selcalc sources under {SRC}; run the benchmark from "
              "the root of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        return setup_probe(args)
    result = traced_run(args) if args.trace else timed_run(args)
    report(args, result)
    return 0 if result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
