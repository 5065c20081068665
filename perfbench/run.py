"""Repository benchmark for CoE serving: one workload per invocation.

Usage, from the repository root::

    python3 perfbench/run.py --workload offline_zipf_cluster --seed 1 \\
        --seconds 25 --trace 0

``--workload all`` runs every workload in turn, each in its own process.
``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json``
with nothing wrapped. ``--trace 1`` alternates untraced repeats with
traced ones and reports the per-layer metrics instead. The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it say what
ran and what was checked. A run also writes its samples (and, traced,
its spans) to ``perfbench/results/``.

Metric definitions, clocks and the reasons for each workload are in
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import numpy  # noqa: E402

from perfbench import tracing  # noqa: E402
from perfbench.workloads import WORKLOADS, CheckFailed  # noqa: E402
from repro.coe.metrics import percentile  # noqa: E402
from repro.systems.platforms import clear_cost_caches  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RESULTS_DIR = ROOT / "perfbench" / "results"
#: setup_s is a median over SETUP_BLOCKS blocks of set-ups made before
#: the first repeat, plus one set-up per repeat and EXTRA_SETUPS after
#: each, so the samples span the whole run.
SETUP_BLOCKS = 10
EXTRA_SETUPS = 2
#: Time of ``speed_probe_s`` on the reference machine when it is quiet.
#: Host-time metrics of CPU-bound work are scaled to this speed, because
#: the shared reference machine's speed drifts by up to 2.3x within
#: minutes and every CPU-bound task drifts with it.
PROBE_REFERENCE_S = 0.15


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
    }


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_repeats(run_one, seconds: float, min_repeats: int) -> list:
    """Call ``run_one`` until ``seconds`` would be overrun.

    A repeat starts only when the median repeat so far still fits in
    the time left, so a run measures about ``seconds`` in total. Garbage
    from the previous repeat is collected first, outside every timer.
    """
    start = perf_counter()
    results, walls = [], []
    while True:
        gc.collect()
        t = perf_counter()
        results.append(run_one(len(results)))
        walls.append(perf_counter() - t)
        elapsed = perf_counter() - start
        if (len(results) >= min_repeats
                and elapsed + statistics.median(walls) > seconds):
            return results


def timed_setup(workload) -> float:
    clear_cost_caches()
    t = perf_counter()
    workload.setup()
    return perf_counter() - t


def check_repeats(workload, repeats) -> None:
    """Sim reports must repeat exactly; run-to-run drift is a bug."""
    if workload.kind == "sim" and len({r.digest for r in repeats}) != 1:
        raise CheckFailed("simulated report changed between repeats")


def speed_probe_s() -> float:
    """Host seconds of a fixed task that runs no repository code.

    Building, sorting and tallying 100k small tuples allocates and
    chases pointers the way the simulator's Python does, so the probe
    slows down with the machine and with nothing else.
    """
    rng = random.Random(1)
    start = perf_counter()
    items = [(rng.random(), i, f"e{i % 150}") for i in range(100_000)]
    items.sort()
    tally: dict = {}
    for _, i, key in items:
        tally[key] = tally.get(key, 0) + i
    return perf_counter() - start


def end_to_end(workload, seed: int, seconds: float, log) -> tuple:
    """Untraced repeats; returns (metrics, repeats, samples, recorders).

    Each host time is scaled by the speed probe taken just before it:
    each block of set-ups by its block's probe, each repeat by its own.
    """
    blocks = [
        (speed_probe_s(),
         [timed_setup(workload) for _ in range(EXTRA_SETUPS + 1)])
        for _ in range(SETUP_BLOCKS)
    ]

    def run_one(i):
        probe = speed_probe_s()
        rep = workload.repeat(seed)
        extra = [timed_setup(workload) for _ in range(EXTRA_SETUPS)]
        return rep, probe, [rep.setup_s, *extra]

    runs = timed_repeats(run_one, seconds, workload.min_repeats)
    repeats = [rep for rep, _, _ in runs]
    blocks += [(probe, setups) for _, probe, setups in runs]
    check_repeats(workload, repeats)
    log(f"repeats {len(repeats)}; simulated report digest "
        f"{repeats[0].digest or 'n/a (wall clock)'}")
    log(f"latency sample: {repeats[0].completed} completed requests "
        f"of {repeats[0].requests}")
    log(workload.check_oracle(seed))
    requests = sum(r.requests for r in repeats)
    host_s = [r.host_s for r in repeats]
    # Pooled over all repeats: steadier than a median of per-repeat
    # rates when the machine's speed drifts within a run.
    raw_rps = requests / sum(host_s)
    scaled_rps = requests / sum(
        rep.host_s * PROBE_REFERENCE_S / probe for rep, probe, _ in runs)
    raw_setup_s = statistics.median(
        x for _, setups in blocks for x in setups)
    log(f"unscaled: setup_s {raw_setup_s:.6g} host_requests_per_s "
        f"{raw_rps:.6g}; machine speed "
        f"{PROBE_REFERENCE_S / statistics.median(p for p, _ in blocks):.3f}"
        f" of reference")
    metrics = {
        "setup_s": statistics.median(
            x * PROBE_REFERENCE_S / probe
            for probe, setups in blocks for x in setups),
        # The live pipeline waits on its arrival schedule, not the CPU,
        # so its rate is not scaled.
        "host_requests_per_s": (
            scaled_rps if workload.kind == "sim" else raw_rps),
        "peak_rss_mb": peak_rss_mb(),
    }
    for name in repeats[0].model:
        metrics[name] = statistics.median(r.model[name] for r in repeats)
    samples = {
        "setup_s": [x for _, setups in blocks for x in setups],
        "setup_probe_s": [probe for probe, _ in blocks],
        "host_s": host_s,
        "host_probe_s": [probe for _, probe, _ in runs],
    }
    return metrics, repeats, samples, []


def layer_metrics(workload, rep, rec) -> dict:
    """Per-layer metrics of one traced repeat.

    Times are inclusive span durations, except the ``*_self_s`` ones;
    counts come from the wrappers or from the program's own reports.
    """
    total = rec.total_times()
    selfs = rec.self_times()
    groups = rec.counts["scheduling.groups"]
    shapes = rec.counts["engine.phase_shapes"]
    drain_s = total.get("sim.run", 0.0)
    lags = sorted(rec.samples["clock.wake_lag_ms"])
    scored = rec.counts["predictor.scored"]
    out = {
        "generate.wall_s": total["generate"],
        "scheduling.order_s": total.get("scheduling.order", 0.0),
        "scheduling.coalesce_s": total.get("scheduling.coalesce", 0.0),
        "scheduling.groups": groups,
        "scheduling.mean_batch": rep.requests / groups if groups else 0.0,
        "engine.phase_s": total.get("engine.phase", 0.0),
        "engine.phase_shapes": shapes,
        "engine.phase_memo_share": 1.0 - shapes / groups if groups else 0.0,
        "cluster_engine.admit_self_s": selfs.get("cluster_engine.serve", 0.0),
        "cluster_engine.submits": rec.counts["cluster_engine.submits"],
        "sim.drain_s": drain_s,
        "sim.drain_self_s": selfs.get("sim.run", 0.0),
        "columnar.lower_s": total.get("columnar.lower", 0.0),
        "columnar.drain_s": total.get("columnar.drain", 0.0),
        "columnar.drains": rec.calls("columnar.drain"),
        "runtime.activate_calls": rec.calls("runtime.activate"),
        "runtime.activate_s": total.get("runtime.activate", 0.0),
        "cache.eviction_order_calls": rec.calls("cache.eviction_order"),
        "cache.eviction_order_s": total.get("cache.eviction_order", 0.0),
        "predictor.accuracy": (
            rec.counts["predictor.correct"] / scored if scored else 0.0),
        "metrics.report_s": total.get("metrics.report", 0.0),
        "clock.wakes": len(lags),
        "clock.wake_lag_p50_ms": percentile(lags, 50) if lags else 0.0,
        "clock.wake_lag_p99_ms": percentile(lags, 99) if lags else 0.0,
        "trace.unattributed_frac": selfs["pipeline"] / total["pipeline"],
    }
    # The program's own figures override the wrappers' where both exist
    # (the live engine coalesces in its dispatcher, not through a call
    # the wrappers see).
    out.update(workload.layer_counts(rep))
    events = out.get("sim.events_run", 0)
    out["sim.host_us_per_event"] = drain_s / events * 1e6 if events else 0.0
    return out


#: Layers that run before the drain starts.
FRONT_END = ("generate", "scheduling.order", "scheduling.coalesce",
             "engine.phase", "cluster_engine.serve")


def log_self_times(rec, log) -> None:
    """Print one traced repeat's self times as shares of the pipeline.

    The shares are of the traced pipeline less the harness spans; the
    self times below the pipeline add up to exactly that.
    """
    selfs = rec.self_times()
    totals = rec.total_times()
    pipeline = totals["pipeline"]
    layers = {n: v for n, v in selfs.items()
              if n not in ("setup", tracing.HARNESS)}
    for name, value in sorted(layers.items(), key=lambda kv: -kv[1]):
        log(f"  self {name:<24} {value:9.4f} s {value / pipeline:7.1%}")
    log(f"  self times sum to {sum(layers.values()):.4f} s of the "
        f"{pipeline:.4f} s traced pipeline; harness "
        f"{selfs.get(tracing.HARNESS, 0.0):.4f} s left out")
    if "cluster_engine.serve" in totals:
        front = sum(selfs.get(n, 0.0) for n in FRONT_END)
        log(f"  front end {front / pipeline:.1%} of the traced pipeline; "
            f"Simulator.run inclusive "
            f"{totals.get('sim.run', 0.0) / pipeline:.1%}")


def per_layer(workload, seed: int, seconds: float, log) -> tuple:
    """Alternate untraced and traced repeats; medians of each side.

    Returns (metrics, repeats, samples, recorders) like ``end_to_end``.
    """
    recorders = []

    def pair(i):
        plain = workload.repeat(seed)
        rec = tracing.Recorder(f"{workload.name}-seed{seed}-repeat{i}")
        with tracing.installed(rec):
            traced = workload.repeat(seed, span=rec.span, keep=True)
        recorders.append(rec)
        layers = layer_metrics(workload, traced, rec)
        return plain, traced, layers

    pairs = timed_repeats(pair, seconds, min_repeats=1)
    plain = [p[0] for p in pairs]
    traced = [p[1] for p in pairs]
    check_repeats(workload, plain + traced)
    log(f"traced pairs {len(pairs)}; simulated report digest "
        f"{traced[0].digest or 'n/a (wall clock)'}")
    log(workload.check_oracle(seed))
    names = [m["name"] for m in SPEC["per_layer"]]
    metrics = {}
    for name in names:
        values = [p[2].get(name, 0.0) for p in pairs]
        metrics[name] = statistics.median(values)
    metrics["trace.overhead_frac"] = (
        statistics.median(r.host_s for r in traced)
        / statistics.median(r.host_s for r in plain) - 1.0)
    log_self_times(recorders[-1], log)
    samples = {
        "untraced_host_s": [r.host_s for r in plain],
        "traced_host_s": [r.host_s for r in traced],
    }
    return metrics, plain + traced, samples, recorders


def run_all(args) -> int:
    """Run every workload in its own process and print one table.

    Separate processes keep one workload's peak memory and warm caches
    out of the next one's numbers.
    """
    results, status = {}, 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True,
        )
        sys.stderr.write(proc.stderr)
        status = status or proc.returncode
        lines = proc.stdout.strip().splitlines()
        results[name] = json.loads(lines[-1]) if lines else None
        for line in lines[:-1]:
            print(f"[{name}] {line}", flush=True)
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=float(SPEC["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    workload = WORKLOADS[args.workload]

    def log(line: str) -> None:
        print(line, flush=True)

    env = environment()
    log(f"workload {workload.name} seed {args.seed} trace {args.trace} "
        f"python {env['python']} numpy {env['numpy']} nproc {env['nproc']}")
    measure = per_layer if args.trace else end_to_end
    try:
        metrics, repeats, samples, recorders = measure(
            workload, args.seed, args.seconds, log)
    except Exception:
        # A run that raises or fails a check counts every request it
        # attempted as failed, and reports no metrics.
        traceback.print_exc()
        attempted = getattr(workload, "num_requests", 1)
        print(json.dumps({"correct": False, "attempted": attempted,
                          "failed": attempted, "metrics": {}}))
        return 1

    wanted = SPEC["per_layer"] if args.trace else SPEC["end_to_end"]
    result = {
        "correct": True,
        "attempted": sum(r.requests for r in repeats),
        # Every repeat passed its conservation check: each request was
        # completed or deliberately shed.
        "failed": 0,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in wanted
        },
    }
    for m in wanted:
        log(f"{m['name']:<38} {metrics[m['name']]:>16.6g} {m['unit']}")
    RESULTS_DIR.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    with open(RESULTS_DIR / f"{stem}.json", "w") as fh:
        json.dump({"environment": env, "digest": repeats[0].digest,
                   "samples": samples, **result}, fh, indent=1)
    if recorders:
        tracing.write_spans(RESULTS_DIR / f"{stem}-spans.json", recorders)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
