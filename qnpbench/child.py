"""One benchmark sample: one workload run in a fresh process.

    python3 qnpbench/child.py --workload grid_soak --seed 1 [--traced]

Prints one JSON object: the set-up and run wall times, peak RSS, the
run's outcome (counts, fingerprint, checks) and, when ``--traced``, the
per-layer self times of the traced region (circuit install + run).
Set-up time starts here, before the first ``import repro``.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]


class RouteTimer:
    """Times every ``compute_route`` call and keeps its arguments."""

    def __init__(self, controller_class, route_error):
        self.route_error = route_error
        compute_route = self.compute_route = controller_class.compute_route
        self.calls: list = []
        self.seconds = 0.0

        def timed(controller, *args, **kwargs):
            start = time.perf_counter()
            try:
                return compute_route(controller, *args, **kwargs)
            finally:
                self.seconds += time.perf_counter() - start
                self.calls.append((controller, args, kwargs))

        controller_class.compute_route = timed

    def rerun(self) -> float:
        """Wall seconds to repeat every recorded call (memo now warm)."""
        start = time.perf_counter()
        for controller, args, kwargs in self.calls:
            try:
                self.compute_route(controller, *args, **kwargs)
            except self.route_error:
                pass  # infeasible in the cold run too
        return time.perf_counter() - start


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args()

    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    result = {"workload": workload.name, "seed": args.seed,
              "traced": args.traced}
    if args.traced:
        import tracer as layer_tracer

        tracer = layer_tracer.LayerTracer()
        layer_tracer.install(tracer)
        state = workload.build(args.seed, 1.0)
        tracer.reset()
        start = time.perf_counter()
        workload.install(state)
        outcome = workload.run(state)
        result["region_s"] = time.perf_counter() - start
        result["layers"] = {layer: {"self_s": tracer.self_ns[layer] / 1e9,
                                    "calls": tracer.calls[layer]}
                            for layer in tracer.self_ns}
    else:
        from repro.control.routing import CentralController, RouteError

        routes = RouteTimer(CentralController, RouteError)
        state = workload.build(args.seed, 1.0)
        t_built = time.perf_counter()
        workload.install(state)
        t_installed = time.perf_counter()
        outcome = workload.run(state)
        t_ran = time.perf_counter()
        result.update(
            setup_s=t_installed - T_START,
            install_s=t_installed - t_built,
            run_s=t_ran - t_installed,
            region_s=t_ran - t_built,
            route_cold_s=routes.seconds,
            routes=len(routes.calls),
            route_warm_s=routes.rerun())
    result.update(outcome)
    result["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
