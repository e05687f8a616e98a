"""The repository benchmark: one command, one workload per call.

    python3 perfbench/run.py --workload tealeaf-deck --seed 1 --seconds 25 --trace 0

Runs one workload from ``BENCHMARK.json`` against the checkout's own
sources (``src/``), checks its outputs, prints a human-readable report
and, as the last line of standard output, one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, measured with nothing
installed; ``--trace 1`` installs the span recorder (perfbench/spans.py)
and reports the per-layer metrics instead.  A run whose output checks
fail prints ``"correct": false`` with no metrics and exits 1; a run that
cannot start (no sources to import) exits 2 without a result line.
See perfbench/README.md for the workloads and metric definitions.
"""

import time

T0 = time.perf_counter()  # set-up is timed from here

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

#: workload name -> module in this directory.
WORKLOADS = {
    "tealeaf-deck": "wl_tealeaf",
    "serve-mixed": "wl_serve",
    "fault-storm": "wl_faults",
    "dist-shards": "wl_dist",
}

#: Gated end-to-end metric -> unit; every workload reports all of them.
#: The ratios divide by the unprotected counterpart measured in the same
#: run, interleaved with the requests, so they hold still when the
#: host's speed does not: on a shared 2-core host, absolute times of
#: runs minutes apart differed by up to a quarter of their median.
E2E_METRICS = {
    "setup_s": "s",
    "protect_ratio": "ratio",
    "tail_ratio": "ratio",
    "ok_frac": "fraction",
    "peak_rss_mb": "MB",
}

#: Absolute times and rates, printed with every run but not gated.
PRINTED_METRICS = {
    "solve_p50_ms": "ms",
    "solve_p90_ms": "ms",
    "plain_p50_ms": "ms",
    "plain_p90_ms": "ms",
    "max_rate_rps": "req/s",
}

#: ``setup_s`` is the median of the run's own set-up and fresh
#: set-up-only processes: at least ``SETUP_MIN`` samples, and more, up to
#: ``SETUP_MAX``, while their sum stays under ``SETUP_BUDGET_S``.  Short
#: set-ups are the noisiest (import time dominates them) and the
#: cheapest to repeat.  A host-speed calibration runs beside each sample,
#: and the median set-up is scaled by ``CALIBRATION_REF_S`` over the
#: calibrations' median: seconds on the reference host.  Unscaled,
#: two-minute medians of set-up on one host moved by up to a third
#: within twelve minutes; scaled, five-minute medians stayed within 8 %.
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 3, 7, 3.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print {\"setup_s\": ...}, tear down")
    args = parser.parse_args(argv)

    import benchlib

    blas = benchlib.pin_blas_threads()
    try:
        benchlib.import_repro()
    except benchlib.BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    module = importlib.import_module(WORKLOADS[args.workload])
    bench = module.Bench(seed=args.seed, seconds=args.seconds,
                         trace=bool(args.trace) and not args.setup_only)
    try:
        bench.setup()
        setup_s = benchlib.now() - T0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        bench.measure()
        bench.check()
    finally:
        bench.close()

    failed_checks = [c for c in bench.checks if not c[1]]
    result = {"correct": not failed_checks, "attempted": bench.attempted,
              "failed": bench.failed, "metrics": {}}
    lines = []
    if not failed_checks and args.trace:
        layers = bench.layer_metrics()
        lines = ["per-layer metrics (per request):"]
        lines += benchlib.format_metrics(layers, benchlib.LAYER_METRICS)
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in benchlib.LAYER_METRICS.items()}
    elif not failed_checks:
        e2e = bench.end_to_end()
        e2e.setdefault("ok_frac",
                       (bench.attempted - bench.failed) / bench.attempted)
        setups = [setup_s]
        calibrations = [benchlib.calibration_sample()]
        while len(setups) < SETUP_MIN or (len(setups) < SETUP_MAX
                                          and sum(setups) < SETUP_BUDGET_S):
            setups.append(benchlib.setup_sample(args.workload, args.seed))
            calibrations.append(benchlib.calibration_sample())
        speed = benchlib.CALIBRATION_REF_S / benchlib.median(calibrations)
        e2e["setup_s"] = benchlib.median(setups) * speed
        lines = ["set-up samples (s): " + ", ".join(f"{s:.3f}" for s in setups),
                 "host calibration (s): "
                 + ", ".join(f"{c:.3f}" for c in calibrations)
                 + f"; setup_s = median set-up {benchlib.median(setups):.3f} s"
                 f" x {speed:.3f} (reference {benchlib.CALIBRATION_REF_S:g} s"
                 " / median calibration)",
                 "absolute times and rates (printed, not gated):"]
        lines += benchlib.format_metrics(e2e, PRINTED_METRICS)
        lines.append("end-to-end metrics:")
        lines += benchlib.format_metrics(e2e, E2E_METRICS)
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in E2E_METRICS.items()}

    print(f"workload {args.workload}  seed {args.seed}  "
          f"seconds {args.seconds:g}  trace {args.trace}")
    print(f"BLAS threads: {blas}")
    print("\n".join(bench.report))
    for name, ok, detail in bench.checks:
        print(f"  check {'ok  ' if ok else 'FAIL'} {name}: {detail}")
    print("\n".join(lines))
    if failed_checks:
        print(json.dumps(result))
        return 1
    result["metrics"] = metrics
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
