"""swarmlq benchmark: seeded closed-loop solve workloads with per-op reference checks.

Usage, from the root of the repository::

    python3 bench/run.py --workload static-geodesic --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

One client runs one op at a time, each starting when the previous one has
returned, for ``--seconds`` of op time, rounded up to whole parameter cycles.
An untimed warm-up op runs first.  Each op is checked against its reference
outside the timed region.  ``--trace 0`` prints the end-to-end metrics, whose
op times are scaled by the host's speed, measured beside each op (see
hostspeed.py), and the raw wall times beside them;
``--trace 1`` alternates untraced and traced cycles and prints per-layer
metrics per traced op, with the tracing overhead against the untraced
cycles.  The last line of standard output is one JSON object.  ``all`` runs
every workload in its own fresh process, one after another.  See NOTES.md.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads: one thread, as the client is one

import argparse
import contextlib
import gc
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 7
# The listed workloads and metrics, with their units, come from BENCHMARK.json.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
BENCHMARKED = tuple(w["name"] for w in SPEC["workloads"])
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
# Run on request and under ``all`` only: their ops fail by design at this
# commit, and a listed workload must pass (see NOTES.md).
UNLISTED = ("lq-family", "static-atoms-inside")
ALL = BENCHMARKED + UNLISTED

# Printed with the trace but left out of the JSON: each is exactly zero on a
# workload that never enters the layer, and a time that reads the same on
# every run is not accepted as a measurement.
PER_LAYER_PRINTED = {"partition.limit_K.s": "s", "lq.self_s": "s",
                     "lq.solve_family.s": "s", "cli.self_s": "s"}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=ALL + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def fail(message):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def import_program():
    """Import ``swarmlq`` from this checkout's sources, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import swarmlq
    if Path(swarmlq.__file__).resolve().parent != SRC / "swarmlq":
        fail(f"imported swarmlq from {swarmlq.__file__}, not from {SRC}")
    import workloads
    return workloads


def build(workload_name, seed, workdir):
    workloads = import_program()
    w = workloads.WORKLOADS[workload_name]
    workdir.mkdir(parents=True, exist_ok=True)
    return w, w.prepare(w.generate(seed), workdir)


def setup_probe(args):
    """Child process: import the program, build the inputs, report the time."""
    workdir = OUT / f"{args.workload}-probe-{os.getpid()}"
    try:
        build(args.workload, args.seed, workdir)
        print(repr(time.monotonic()))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure_setup(args):
    """Median over fresh processes of process start to inputs ready.

    CLOCK_MONOTONIC is system-wide, so the child's timestamp and the
    parent's spawn time are on one clock.
    """
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", "0", "--setup-probe"],
            capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            fail(f"setup probe failed:\n{proc.stderr}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]) - start)
    return statistics.median(samples), samples


def run_metadata():
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    import numpy
    import scipy
    return {"git_sha": sha, "nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


class Loop:
    """Closed-loop op runner: times each op, checks it outside the timer."""

    def __init__(self, w, state, seed):
        self.w, self.state, self.seed = w, state, seed
        self.i = 0
        self.times = []
        self.blocks = None  # host-speed blocks, one before each op and one after the last
        self.inside = []  # host-speed samples taken during each op
        self.failed = 0
        self.worst = None  # (err, op index)

    def cycle(self, tracer=None):
        """Run one whole parameter cycle; returns the op time it took."""
        spent = 0.0
        for _ in range(len(self.w.CYCLE)):
            spent += self.one(tracer)
        return spent

    def one(self, tracer):
        i, self.i = self.i, self.i + 1
        gc.collect()
        if tracer is not None:
            tracer.begin_op()
        sampler = hostspeed.Sampler() if self.blocks is not None else None
        start = time.perf_counter()
        try:
            with sampler or contextlib.nullcontext():
                result = self.w.op(self.state, i)
        except Exception as e:  # an op that raises is a failed op, not a crash
            print(f"op {i} raised {type(e).__name__}: {e}", file=sys.stderr)
            result = None
        elapsed = time.perf_counter() - start
        scaled = ""
        if sampler is not None:
            elapsed -= sampler.spent
            self.inside.append(sampler.samples)
            self.blocks.append(hostspeed.block())
            ref = hostspeed.ref_seconds([elapsed], self.blocks[-2:], self.inside[-1:])[0]
            scaled = f" = {ref:.4f} ref_s ({len(sampler.samples)} samples)"
        self.times.append(elapsed)
        if tracer is not None:
            counts = getattr(self.w, "counts", None)
            tracer.end_op(elapsed, counts(result) if counts and result else None)
        err = math.nan
        if result is not None:
            try:
                err = self.w.check(self.state, i, result)
            except Exception as e:  # a result the check cannot read fails the op
                print(f"op {i} check raised {type(e).__name__}: {e}", file=sys.stderr)
        ok = err <= self.w.tol
        self.failed += not ok
        if math.isfinite(err) and (self.worst is None or err > self.worst[0]):
            self.worst = (err, i)
        print(f"op {i} ({self.describe(i)}): {elapsed:.4f} s{scaled}, "
              f"ref_err {err:.3g} {'ok' if ok else 'FAILED'}")
        return elapsed

    def describe(self, i):
        return ", ".join(f"{k}={v:g}" for k, v in self.w.params(i).items())


def percentile_line(times, unit):
    n = len(times)
    if n < 11:
        return f"n={n}; no percentile has 10 ops beyond it"
    p = math.floor(100.0 * (1.0 - 10.0 / n))
    ordered = sorted(times)
    value = ordered[min(n - 1, math.ceil(p / 100.0 * n) - 1)]
    return f"n={n}; p{p}={value:.6f} {unit} (highest percentile with >=10 ops beyond it)"


def report_checks(loop):
    attempted = len(loop.times)
    print(f"ops_failed_frac = {loop.failed / attempted:.6g} ratio "
          f"({loop.failed} of {attempted} ops failed; tolerance {loop.w.tol:g})")
    if loop.worst is None:
        print("ref_err = nan ratio (no op returned a finite result)")
    else:
        err, i = loop.worst
        print(f"ref_err = {err:.6g} ratio "
              f"(worst op {i}: {loop.describe(i)}, seed={loop.seed})")


def run_workload(args):
    setup_s, setup_samples = measure_setup(args)
    workdir = OUT / f"{args.workload}-{os.getpid()}"
    try:
        w, state = build(args.workload, args.seed, workdir)
        meta = run_metadata()
        print("# meta " + json.dumps(meta))
        print(f"# workload {w.name}: seed {args.seed}, closed loop, 1 client, "
              f"{len(w.CYCLE)} op(s) per cycle")
        loop = Loop(w, state, args.seed)
        print("# untimed warm-up op")
        loop.one(None)
        loop.times, loop.failed, loop.worst = [], 0, None
        if args.trace:
            return traced(args, loop)
        loop.blocks = [hostspeed.block()]
        spent = 0.0
        while spent < args.seconds or spent == 0.0:
            spent += loop.cycle()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ref = hostspeed.ref_seconds(loop.times, loop.blocks, loop.inside)
    metrics = {
        "ops_per_ref_s": len(ref) / sum(ref),
        "op_ref_s.p50": statistics.median(ref),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    for name, unit in END_TO_END.items():
        extra = ""
        if name == "op_ref_s.p50":
            extra = f"  ({percentile_line(ref, unit)})"
        elif name == "setup_s":
            extra = "  (median of " + ", ".join(f"{s:.4f}" for s in setup_samples) + ")"
        print(f"{name} = {metrics[name]:.6g} {unit}{extra}")
    kernel = [t for b in loop.blocks + loop.inside for t in b]
    print(f"# wall time, not scaled by host speed: ops_per_s = "
          f"{len(loop.times) / sum(loop.times):.6g} 1/s, op_s.p50 = "
          f"{statistics.median(loop.times):.6g} s ({percentile_line(loop.times, 's')}); "
          f"host-speed kernel median {statistics.median(kernel) * 1e3:.4f} ms "
          f"(reference {hostspeed.KERNEL_REF_S * 1e3:g} ms)")
    report_checks(loop)
    return result_line(loop, metrics, END_TO_END)


def traced(args, loop):
    from tracer import Tracer
    tracer = Tracer()
    plain, traced_s = [], []
    # alternate untraced and traced cycles so drift hits both alike
    while sum(plain) + sum(traced_s) < args.seconds or not traced_s:
        plain.append(loop.cycle())
        tracer.install()
        try:
            traced_s.append(loop.cycle(tracer))
        finally:
            tracer.uninstall()
    missing = [name for name in loop.w.expected if tracer.calls[name] == 0]
    if missing:
        fail(f"traced run recorded no calls to {', '.join(missing)}; "
             "a renamed function would silently zero its layer")
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"trace-{loop.w.name}.npz")
    metrics = tracer.per_op()
    metrics["trace.overhead_frac"] = 1.0 - sum(plain) / sum(traced_s)
    print(f"# per traced op, over {tracer.ops} traced and {tracer.ops} untraced ops")
    for name, unit in {**PER_LAYER, **PER_LAYER_PRINTED}.items():
        if name in metrics:
            print(f"{name} = {metrics[name]:.6g} {unit}")
    report_checks(loop)
    return result_line(loop, metrics, PER_LAYER)


def result_line(loop, metrics, listed):
    unknown = [name for name in listed if name not in metrics]
    if unknown:
        fail(f"BENCHMARK.json lists metrics this runner does not measure: {unknown}")
    return {"correct": loop.failed == 0, "attempted": len(loop.times), "failed": loop.failed,
            "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                        for name, unit in listed.items()}}


def run_all(args):
    """Each workload in its own fresh process, one after another."""
    results = {}
    for name in ALL:
        print(f"\n=== {name}", flush=True)
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            fail(f"workload {name} exited with code {proc.returncode}")
        results[name] = json.loads(lines[-1])
    return results


def main(argv=None):
    args = parse_args(argv)
    if args.setup_probe:
        setup_probe(args)
        return 0
    if not (SRC / "swarmlq" / "__init__.py").is_file():
        fail(f"no swarmlq sources under {SRC}")
    if args.workload == "all":
        print(json.dumps(run_all(args)))
        return 0
    result = run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
