"""fairdiv benchmark: three workloads, end-to-end metrics untraced (times
normalized to one host speed), per-layer metrics from a separate traced run.

    python3 perfbench/run.py --workload paper-game --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the library is imported from `src/`.  The
last line of standard output is one JSON object with `correct`, `attempted`,
`failed` and `metrics`; the lines before it give the environment and every
metric with its unit and sample count.  See perfbench/NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
SETUP_PROBES = 3
#: each set-up probe then samples the speed kernel for 5% of this
SETUP_PROBE_BUSY_S = 2.0
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
JOBS = 2


def _import_library():
    """Import fairdiv from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "fairdiv", "__init__.py")):
        sys.exit(f"perfbench: no library at {SRC}/fairdiv; run from the root "
                 "of a fairdiv checkout")
    sys.path.insert(0, SRC)
    import fairdiv
    if os.path.dirname(os.path.abspath(fairdiv.__file__)) != \
            os.path.join(SRC, "fairdiv"):
        sys.exit(f"perfbench: fairdiv imported from {fairdiv.__file__}, "
                 f"not from {SRC}")
    return fairdiv


def probe(workload: str, seed: int, work_dir: str) -> None:
    """Set-up in a fresh interpreter: import the library, make the inputs;
    then read the host's speed, untimed."""
    t0 = time.perf_counter()
    _import_library()
    t1 = time.perf_counter()
    import bench_workloads
    bench_workloads.WORKLOADS[workload](seed, work_dir)
    t2 = time.perf_counter()
    kernel = SpeedProbe().sample(SETUP_PROBE_BUSY_S)
    print(json.dumps({"import_s": t1 - t0, "setup_s": t2 - t0,
                      "kernel_s": kernel}))


def measure_setup(workload: str, seed: int, work_dir: str) -> list[dict]:
    out = []
    for k in range(SETUP_PROBES):
        d = os.path.join(work_dir, f"probe{k}")
        os.makedirs(d)
        try:
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--probe",
                 "--workload", workload, "--seed", str(seed),
                 "--work-dir", d],
                cwd=ROOT, capture_output=True, text=True, timeout=120,
                check=True)
        finally:
            shutil.rmtree(d, ignore_errors=True)
        out.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return out


def environment(seed: int) -> dict:
    import numpy
    import scipy
    return {
        "host": platform.node(), "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "seed": seed,
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
    }


class SpeedProbe:
    """Reads the host's speed with a fixed kernel shaped like the library's
    inner loops: scale a 5 x 4096 array, take the column argmax, gather and
    sum, bincount (the oracle), then scalar numpy calls of the kind a
    root-find on a density makes, plus interpreter work.  It runs no library
    code, so a change to the library cannot move it; it moves with the
    host."""

    ROUNDS = 10
    #: probing time as a share of the operation time since the last probe
    SHARE = 0.05

    def __init__(self):
        import numpy as np
        self.np = np
        self.values = np.linspace(1.5, 0.5, 5 * 4096).reshape(5, 4096)
        self.alpha = np.array([0.3, 0.1, 0.2, 0.25, 0.15])
        self.cols = np.arange(4096)
        self.breaks = np.linspace(0.0, 1.0, 9)
        self.samples: list[float] = []

    def kernel(self) -> float:
        np, clock = self.np, time.perf_counter
        t0 = clock()
        acc = 0.0
        for k in range(self.ROUNDS):
            scores = (self.alpha * (1.0 + 0.01 * k))[:, None] * self.values
            idx = scores.argmax(axis=0)
            acc += float(scores[idx, self.cols].sum())
            acc += float(np.bincount(idx, minlength=5).max())
            for j in range(8):
                x = np.asarray(0.01 + 0.1 * j + 0.001 * k)
                acc += float(np.any(x < 0.0) or np.any(x > 1.0))
                acc += float(np.searchsorted(self.breaks, x)) * float(x)
            acc += sum(j * 0.5 for j in range(150))
        return clock() - t0

    def sample(self, busy_s: float) -> float:
        """Median kernel time over SHARE of `busy_s`, at least 3 kernels."""
        times = [self.kernel() for _ in range(3)]
        end = time.perf_counter() + self.SHARE * busy_s
        while time.perf_counter() < end:
            times.append(self.kernel())
        self.samples += times
        return statistics.median(times)


PROBE_EVERY_S = 0.25


def run_ops(w, indices, tally, deadline=None, probe=None,
            speeds=None) -> list[float]:
    """Closed loop: each operation starts when the previous one is checked.
    Returns the latency of each; checks stay outside the timed region.
    With a deadline, no operation starts that would, at the mean latency so
    far, end more than half an operation past it.  A `probe` samples before
    the first operation and after every PROBE_EVERY_S of operation time;
    `speeds` gets, per operation, the mean of the two samples around it."""
    clock = time.perf_counter
    latencies = []
    before = probe.sample(PROBE_EVERY_S) if probe else None
    since, pending = 0.0, 0
    for i in indices:
        t0 = clock()
        try:
            result = w.op(i)
        except Exception as e:  # a library error fails this operation only
            latencies.append(clock() - t0)
            tally.add(f"raised {type(e).__name__}")
        else:
            latencies.append(clock() - t0)
            tally.add(w.check(i, result))
            del result
        done = deadline is not None and (
            clock() + 0.5 * sum(latencies) / len(latencies) >= deadline)
        since += latencies[-1]
        pending += 1
        if probe and (since >= PROBE_EVERY_S or done):
            after = probe.sample(since)
            speeds += [0.5 * (before + after)] * pending
            before, since, pending = after, 0.0, 0
        if done:
            break
    if probe and pending:
        speeds += [0.5 * (before + probe.sample(since))] * pending
    return latencies


def tail_percentile(n: int) -> float:
    """The highest percentile, up to 90, with at least 10 samples above it;
    the median when there are fewer than 20."""
    return max(50.0, min(90.0, 100.0 * (1.0 - 10.0 / n)))


#: kernel time, in seconds, of the host that normalized latencies refer to
PROBE_REF_S = 2.0e-3


def untraced(w, seconds: float, tally) -> dict:
    """End-to-end metrics.  Each latency is scaled by PROBE_REF_S over the
    kernel time sampled around it, so the figures refer to one host speed
    (see NOTES.md, "Host noise"); the raw figures print as `raw.*`."""
    probe = SpeedProbe()
    speeds: list[float] = []
    start = time.perf_counter()
    lat = run_ops(w, range(10**9), tally, deadline=start + seconds,
                  probe=probe, speeds=speeds)
    kernel = statistics.median(probe.samples)
    norm = [x * PROBE_REF_S / s for x, s in zip(lat, speeds)]
    n = len(lat)
    q = tail_percentile(n)
    return {
        "latency_p50_ms": (1e3 * _percentile(norm, 50), "ms", n),
        "latency_tail_ms": (1e3 * _percentile(norm, q), "ms", n),
        "ops_per_s": (n / sum(norm), "1/s", n),
        "ok_frac": ((tally.attempted - tally.failed - tally.unconverged)
                    / tally.attempted, "frac", tally.attempted),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB", 1),
        "raw.latency_p50_ms": (1e3 * _percentile(lat, 50), "ms", n),
        "raw.latency_tail_ms": (1e3 * _percentile(lat, q), "ms", n),
        "raw.ops_per_s": (n / sum(lat), "1/s", n),
        "raw.kernel_ms": (1e3 * kernel, "ms", len(probe.samples)),
    }


def _named_views(workload: str, metrics: dict, tally) -> dict:
    """Per-workload names (`wall_s`, `rows_per_s`, `req_per_s`,
    `latency_p90_ms`, `failed_frac`) for raw measurements, printed for
    reading but left out of the JSON line, whose metrics every workload
    reports."""
    p50, _, n = metrics["raw.latency_p50_ms"]
    rate = metrics["raw.ops_per_s"][0]
    views = {"failed_frac": ((tally.failed + tally.unconverged)
                             / tally.attempted, "frac", tally.attempted)}
    if workload == "paper-game":
        views["wall_s"] = (p50 / 1e3, "s", n)
    elif workload == "wide-table":
        from bench_workloads import WIDE_PLAYERS
        views["rows_per_s"] = (rate * (2 ** WIDE_PLAYERS - 1), "1/s", n)
    else:
        views["req_per_s"] = (rate, "1/s", n)
        views["latency_p90_ms"] = metrics["raw.latency_tail_ms"]
    return {f"view.{k}": v for k, v in views.items()}


def _percentile(values, q: float) -> float:
    import numpy as np
    return float(np.percentile(values, q))


def traced(w, tally, spans_path: str, header: dict) -> dict:
    """The same fixed operations untraced, then traced; counts repeat exactly
    for a seed.  On paper-game, also `full_game(card)` with one job and then
    with JOBS jobs, untraced and back to back."""
    import bench_trace
    import fairdiv
    ops = range(w.trace_ops)
    plain = sum(run_ops(w, ops, tally))
    jobs2_speedup = 0.0
    if w.name == "paper-game" and header["nproc"] >= JOBS:
        seconds = {}
        for jobs in (1, JOBS):
            t0 = time.perf_counter()
            table = w.full_game(fairdiv.cardinality_weights(), jobs=jobs)
            seconds[jobs] = time.perf_counter() - t0
            tally.add(w.check_card_table(table))
        jobs2_speedup = seconds[1] / seconds[JOBS]
    tracer = bench_trace.Tracer()
    with tracer.installed():
        with_spans = sum(run_ops(w, ops, tally))
    out = bench_trace.layer_metrics(tracer.spans)
    out["trace.overhead"] = with_spans / plain
    out["coalitions.jobs2_speedup"] = jobs2_speedup
    tracer.write_csv(spans_path, header)
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("paper-game", "wide-table", "cli-stream"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--work-dir", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    if args.probe:
        probe(args.workload, args.seed, args.work_dir)
        return 0

    _import_library()
    import bench_trace
    import bench_workloads

    run_dir = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    os.makedirs(run_dir)
    try:
        probes = measure_setup(args.workload, args.seed, run_dir)
        env = environment(args.seed)
        print("environment " + json.dumps(env, sort_keys=True))
        w = bench_workloads.WORKLOADS[args.workload](args.seed, run_dir)
        w.warm()
        tally = bench_workloads.Tally()
        setup = [p["setup_s"] for p in probes]
        if args.trace:
            spans_path = os.path.join(
                WORK, f"spans-{args.workload}-seed{args.seed}.csv")
            layer = traced(w, tally, spans_path,
                           dict(env, workload=args.workload))
            layer["import_s"] = statistics.median(p["import_s"]
                                                  for p in probes)
            metrics = {name: (layer[name], _layer_unit(name), 1)
                       for name in bench_trace.per_layer_names()}
            print(f"spans written to {spans_path}")
        else:
            metrics = untraced(w, args.seconds, tally)
            metrics["setup_s"] = (statistics.median(
                p["setup_s"] * PROBE_REF_S / p["kernel_s"] for p in probes),
                "s", len(probes))
            metrics["raw.setup_s"] = (statistics.median(setup), "s",
                                      len(setup))
            metrics.update(_named_views(args.workload, metrics, tally))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    for name, (value, unit, n) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit} (n={n})")
    print(f"outcomes attempted={tally.attempted} failed={tally.failed} "
          f"unconverged={tally.unconverged} reasons={tally.reasons()}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()
                    if not name.startswith(("view.", "raw."))},
    }))
    return 0


def _layer_unit(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("us_per_call"):
        return "us"
    if name.endswith("_mb"):
        return "MB"
    if name in ("trace.overhead", "coalitions.jobs2_speedup"):
        return "ratio"
    if name.endswith("width_max"):
        return "value"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
