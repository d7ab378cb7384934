"""One repeat of a workload, in a fresh interpreter.

Usage: python3 child.py JOB.json

The job lists `netcode` command lines; they run in order through
`netcode.cli.cli_main`, as a user would type them.  The last line of
standard output is a JSON object with the repeat's timings, its peak
resident memory and, for a traced job, the per-layer figures.
"""
import time

T_START = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

import netcode.cli as cli  # noqa: E402
import netcode.harness as harness  # noqa: E402

T_IMPORTED = time.perf_counter()

# A sweep builds its code once, in milliseconds or less, so the build
# time is taken as the median of repeated builds in a short window
# before and one after the sweep; the runner averages all windows of a
# run, which spreads the samples over the whole run.
CONFIG_BUILD_SECONDS = 0.1


def _config_build_s(path: str) -> float:
    """Median time to build the SimConfig, and the code it names."""
    with open(path) as fp:
        obj = json.load(fp)
    times = []
    t_end = time.perf_counter() + CONFIG_BUILD_SECONDS
    while len(times) < 5 or time.perf_counter() < t_end:
        t0 = time.perf_counter()
        harness.SimConfig.from_json_dict(obj)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def main() -> int:
    with open(sys.argv[1]) as fp:
        job = json.load(fp)
    out = {}
    sweeping = job["commands"][0][0] == "simulate"
    measure_build = sweeping and not job["trace"]
    if measure_build:
        # outside the timed commands, and apart from setup_s below
        out["design_s"] = [_config_build_s(job["commands"][0][2])]
    tracer = None
    if job["trace"]:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()

    # The sweep's own span: from its first round to its stopping rule.
    sweep = []
    run_sweep = cli.run_sweep

    def timed_sweep(config):
        t0 = time.perf_counter()
        records = run_sweep(config)
        sweep.append((t0, time.perf_counter()))
        return records

    cli.run_sweep = timed_sweep

    starts, ends = [], []
    for argv in job["commands"]:
        starts.append(time.perf_counter())
        code = cli.cli_main(argv)
        ends.append(time.perf_counter())
        if code != 0:
            print(f"netcode {' '.join(argv)} exited with {code}", file=sys.stderr)
            return 1

    if tracer is not None:
        out["layers"] = tracer.layer_metrics()
    out["wall_s"] = ends[-1] - starts[0]
    if sweeping:
        (t0, t1), = sweep
        out["setup_s"] = (T_IMPORTED - T_START) + (t0 - starts[0])
        out["job_s"] = t1 - t0
    else:
        out["setup_s"] = starts[0] - T_START
        out["job_s"] = ends[job["codes"] - 1] - starts[0]
        out["design_s"] = [out["wall_s"]]
    if measure_build:
        out["design_s"].append(_config_build_s(job["commands"][0][2]))
    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    out["peak_rss_mb"] = peak_kb / 1024.0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
