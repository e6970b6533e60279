"""Wall-clock benchmark of the QNP simulator on three paper workloads.

    python3 qnpbench/run.py --workload grid_soak --seed 1 --seconds 40 --trace 0
    python3 qnpbench/run.py --write-manifest      # regenerate BENCHMARK.json

Run from the root of a source checkout.  Each sample is one workload run
in a fresh single-threaded process (``child.py``): set-up (import, network
build, routing, circuit install) and then the simulation of the seeded
input.  Samples repeat until ``--seconds`` is used up (at least
``MIN_ROUNDS``); the metrics are medians over them, except the pair rate,
which pools all samples.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced samples (counts, cold/warm routing) with traced ones (per-layer
self time from ``tracer.py``) and reports the per-layer metrics.  Either
way every sample's outputs are checked, and the behaviour fingerprint
(``workloads.FINGERPRINT``) must repeat exactly across samples, traced or
not.  The last line printed is the JSON result.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from workloads import FINGERPRINT, WORKLOADS  # noqa: E402

#: Layer names as the tracer reports them (``tracer.LAYERS``; not imported
#: here because the tracer needs ``repro`` on the path).
LAYERS = ("netsim", "hardware", "linklayer", "network", "core", "quantum",
          "control", "traffic", "apps", "obs")
RUN_SECONDS = 40
#: Fewest sample rounds per run, whatever ``--seconds`` says.
MIN_ROUNDS = 3
#: A sample that takes longer has hung.
CHILD_TIMEOUT_S = 120
#: Stop starting rounds after this long, to end well within 180 s.
MAX_RUN_S = 130

END_TO_END = [
    {"name": "pairs_per_wall_s", "unit": "pairs/s", "better": "higher",
     "bound": 0.25},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
]


def _per_layer() -> list:
    metrics = []
    for layer in LAYERS:
        metrics += [(f"{layer}.self_s", "s", "lower"),
                    (f"{layer}.share", "ratio", "lower"),
                    (f"{layer}.calls", "count", "lower")]
    metrics += [
        ("netsim.events", "count", "lower"),
        ("netsim.events_per_wall_s", "events/s", "higher"),
        ("linklayer.attempts", "count", "lower"),
        ("linklayer.pairs", "count", "higher"),
        ("linklayer.pair_yield", "ratio", "higher"),
        ("linklayer.ns_per_attempt", "ns", "lower"),
        ("core.swaps", "count", "lower"),
        ("core.discarded", "count", "lower"),
        ("core.expired", "count", "lower"),
        ("core.e2e_yield", "ratio", "higher"),
        ("network.arbiter_grants", "count", "lower"),
        ("network.arbiter_wait_sim_s", "sim_s", "lower"),
        ("quantum.us_per_call", "us", "lower"),
        ("control.route_cold_s", "s", "lower"),
        ("control.route_warm_s", "s", "lower"),
        ("control.routes", "count", "lower"),
        ("traffic.sessions_submitted", "count", "higher"),
        ("traffic.sessions_completed", "count", "higher"),
        ("obs.observations", "count", "lower"),
        ("obs.ns_per_observation", "ns", "lower"),
        ("apps.pairs_consumed", "count", "higher"),
        # Behaviour checks, fixed by the seed: never a speed.
        ("sim.pairs_confirmed", "count", "higher"),
        ("sim.pairs_per_sim_s", "pairs/sim_s", "higher"),
        ("sim.mean_fidelity", "fidelity", "higher"),
        ("sim.request_fail_ratio", "ratio", "lower"),
        ("trace.coverage", "ratio", "higher"),
        ("trace.overhead", "ratio", "lower"),
    ]
    return [{"name": name, "unit": unit, "better": better}
            for name, unit, better in metrics]


PER_LAYER = _per_layer()


def manifest() -> dict:
    """The ``BENCHMARK.json`` describing this benchmark."""
    return {
        "command": ["python3", "qnpbench/run.py"],
        "paths": ["qnpbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": workload.name, "why": workload.why}
                      for workload in WORKLOADS.values()],
        "end_to_end": END_TO_END,
        "per_layer": PER_LAYER,
    }


def run_child(workload: str, seed: int, traced: bool) -> dict:
    """One sample in a fresh single-threaded process; raises on failure."""
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    command = [sys.executable, str(BENCH_DIR / "child.py"),
               "--workload", workload, "--seed", str(seed)]
    if traced:
        command.append("--traced")
    done = subprocess.run(command, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"sample exited {done.returncode}:\n"
                           f"{done.stderr.strip()}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def sample(workload: str, seed: int, seconds: float, trace: bool):
    """Run sample rounds until the time is used; returns the samples."""
    plain, traced, errors = [], [], []
    start = time.perf_counter()
    rounds = 0
    while True:
        for is_traced in ((False, True) if trace else (False,)):
            try:
                result = run_child(workload, seed, is_traced)
            except (RuntimeError, ValueError, IndexError,
                    subprocess.TimeoutExpired) as exc:
                errors.append(f"{'traced' if is_traced else 'plain'}: {exc}")
                continue
            (traced if is_traced else plain).append(result)
        rounds += 1
        elapsed = time.perf_counter() - start
        next_end = elapsed * (rounds + 1) / rounds
        if rounds >= MIN_ROUNDS and (next_end > seconds
                                     or next_end > MAX_RUN_S):
            return plain, traced, errors


def validate(plain: list, traced: list, errors: list) -> list:
    """Every problem with the samples' outputs (empty when correct)."""
    problems = list(errors)
    if not plain:
        problems.append("no untraced sample finished")
    for result in plain + traced:
        failed = sorted(name for name, ok in result["checks"].items()
                        if not ok)
        if failed:
            problems.append(f"output checks failed: {', '.join(failed)}")
    fingerprints = {json.dumps({key: result["counts"][key]
                                for key in FINGERPRINT})
                    for result in plain + traced}
    if len(fingerprints) > 1:
        problems.append("behaviour fingerprint differs between samples:\n  "
                        + "\n  ".join(sorted(fingerprints)))
    return problems


def _median(values) -> float:
    return statistics.median(list(values))


def end_to_end(plain: list) -> dict:
    # The pair rate pools every sample (all pairs over all run seconds):
    # on a shared machine the CPU speed drifts over seconds to minutes,
    # and the pooled rate averages the drift where a median of a few
    # samples follows it.
    return {
        "pairs_per_wall_s": (sum(r["counts"]["sim.pairs_confirmed"]
                                 for r in plain)
                             / sum(r["run_s"] for r in plain)),
        "setup_s": _median(r["setup_s"] for r in plain),
        "peak_rss_mb": _median(r["peak_rss_mb"] for r in plain),
    }


def per_layer(plain: list, traced: list) -> dict:
    counts = plain[0]["counts"]
    values = {}
    for layer in LAYERS:
        values[f"{layer}.self_s"] = _median(
            r["layers"][layer]["self_s"] for r in traced)
        values[f"{layer}.share"] = _median(
            r["layers"][layer]["self_s"] / r["region_s"] for r in traced)
        values[f"{layer}.calls"] = _median(
            r["layers"][layer]["calls"] for r in traced)

    def per(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    values.update({
        name: counts[name] for name in (
            "netsim.events", "linklayer.attempts", "linklayer.pairs",
            "core.swaps", "core.discarded", "core.expired",
            "network.arbiter_grants", "network.arbiter_wait_sim_s",
            "traffic.sessions_submitted", "traffic.sessions_completed",
            "obs.observations", "apps.pairs_consumed",
            "sim.pairs_confirmed", "sim.pairs_per_sim_s",
            "sim.mean_fidelity", "sim.request_fail_ratio")})
    values.update({
        "netsim.events_per_wall_s": per(
            counts["netsim.events"], _median(r["region_s"] for r in plain)),
        "linklayer.pair_yield": per(counts["linklayer.pairs"],
                                    counts["linklayer.attempts"]),
        "linklayer.ns_per_attempt": per(values["linklayer.self_s"] * 1e9,
                                        counts["linklayer.attempts"]),
        "core.e2e_yield": per(counts["sim.pairs_confirmed"],
                              counts["linklayer.pairs"]),
        "quantum.us_per_call": per(values["quantum.self_s"] * 1e6,
                                   values["quantum.calls"]),
        "control.route_cold_s": _median(r["route_cold_s"] for r in plain),
        "control.route_warm_s": _median(r["route_warm_s"] for r in plain),
        "control.routes": _median(r["routes"] for r in plain),
        "obs.ns_per_observation": per(values["obs.self_s"] * 1e9,
                                      counts["obs.observations"]),
        "trace.coverage": _median(
            sum(r["layers"][layer]["self_s"] for layer in LAYERS)
            / r["region_s"] for r in traced),
        "trace.overhead": (_median(r["region_s"] for r in traced)
                           / _median(r["region_s"] for r in plain) - 1.0),
    })
    return values


def _units(specs: list) -> dict:
    return {spec["name"]: spec["unit"] for spec in specs}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-manifest", action="store_true",
                        help="write BENCHMARK.json at the checkout root")
    args = parser.parse_args()
    if args.write_manifest:
        path = ROOT / "BENCHMARK.json"
        path.write_text(json.dumps(manifest(), indent=2) + "\n")
        print(f"wrote {path}")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: {ROOT} is not a source checkout (no src/repro)",
              file=sys.stderr)
        return 2
    # Byte-compile once so no sample's set-up time includes compilation.
    compileall.compile_dir(str(ROOT / "src"), quiet=1)

    plain, traced, errors = sample(args.workload, args.seed, args.seconds,
                                   bool(args.trace))
    problems = validate(plain, traced, errors)
    for problem in problems:
        print(f"FAIL: {problem}", file=sys.stderr)
    if args.trace:
        values = per_layer(plain, traced) if plain and traced else {}
        units = _units(PER_LAYER)
    else:
        values = end_to_end(plain) if plain else {}
        units = _units(END_TO_END)
    samples = plain + traced
    if samples:
        print(json.dumps({key: samples[0]["counts"][key]
                          for key in FINGERPRINT}))
    print(json.dumps({
        "correct": not problems,
        "attempted": len(samples) + len(errors),
        "failed": len(errors) + sum(
            1 for r in samples if not all(r["checks"].values())),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
