"""Benchmark for ``mixedvit``: end-to-end figures and a traced per-layer run.

Run from the root of a checkout:

    python3 bench/run.py --workload train_paper --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

Each workload (see ``workloads.py``) is set up ``SETUP_REPEATS`` times
(``setup_s`` is their median); then, after one untimed warm-up cycle, one
cycle after another runs for ``--seconds``. After each untraced cycle a
fixed numpy reference kernel, independent of ``mixedvit``, is timed;
``cycle_rel`` is the median over the cycles of cycle time divided by that
reference time. The host's speed drifts by a third over minutes, and the
ratio cancels that drift where the wall time alone does not; the median
wall time is printed too, as ``cycle_s``. With ``--trace 0`` the last line
of standard output is a JSON object holding the end-to-end metrics in
``BENCHMARK.json``; with ``--trace 1`` every second cycle runs under the
tracer (``tracer.py``), and the object holds the per-layer metrics,
including the tracing overhead: the traced cycles' median time against the
untraced ones'. Lines before it give the environment, the workload's own
figures and, when traced, the op-level profile by self time. The full
result, with the spans of a traced run, goes to
``.bench_out/<workload>-seed<seed>-trace<trace>.json``.

OpenBLAS runs ``BLAS_THREADS`` threads, set before numpy loads; the
result's ``env`` records the count in use.

``mixedvit`` is imported from this checkout's ``src/``; without it the
benchmark exits with status 2 before printing a result. ``--workload all``
runs every workload, each in its own process. ``--size tiny`` shrinks the
workloads for the smoke test (``test_bench.py``).
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
WORK_DIR = ROOT / ".bench_work"
WORKLOAD_NAMES = ("train_paper", "infer_paper", "cv_coarse", "prep_synth")
SETUP_REPEATS = 5

# One OpenBLAS thread, not the default of one per core. On a shared 2-core
# host, two threads made train_paper's cycle time spread by a fifth between
# runs and infer_paper's by a third, and no reference kernel tracked that
# spread; with one thread the reference ratio cancels most of it.
BLAS_THREADS = 1

END_TO_END = (("setup_s", "s"), ("cycle_rel", "x"), ("peak_rss_mb", "MB"))


def load_package():
    """Import ``mixedvit`` from ``src/`` of this checkout, else return None."""
    src = (ROOT / "src").resolve()
    if not (src / "mixedvit" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(src))
    import mixedvit
    if Path(mixedvit.__file__).resolve().parent != src / "mixedvit":
        return None
    return mixedvit


def _blas_threads(numpy):
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for lib_path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(lib_path))
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src = ROOT / "src" / "mixedvit"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(numpy),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "src_lines": sum(len(p.read_text().splitlines())
                         for p in sorted(src.glob("*.py"))),
    }


def _settle() -> None:
    """Collect the garbage of the last set-up or cycle (tapes are reference
    cycles) and flush the files it wrote, outside any timing, so each one
    starts from the same heap, peak memory does not grow with their count,
    and one's disk writeback does not slow the next."""
    gc.collect()
    os.sync()


class Reference:
    """A fixed numpy kernel that measures the host's current speed.

    Its mix resembles the workloads': small projections, softmax and
    batched products at the paper config's sizes, one tubelet-sized
    projection and its backward product, and normal random numbers as the
    data generator draws them. Its inputs are made once, from a fixed seed.
    numpy is imported here, not at the top, so that ``main`` sets the BLAS
    thread count before it loads.
    """

    def __init__(self):
        import numpy as np
        rng = np.random.default_rng(0)
        self.x = rng.random((486, 64))
        self.w = rng.random((64, 192))
        self.scores = rng.random((48, 81, 81))
        self.v = rng.random((48, 81, 8))
        self.patches = rng.random((256, 4800))
        self.proj = rng.random((4800, 64))

    def seconds(self) -> float:
        import numpy as np
        start = time.perf_counter()
        for _ in range(8):
            self.x @ self.w
            e = np.exp(self.scores - self.scores.max(axis=-1, keepdims=True))
            e /= e.sum(axis=-1, keepdims=True)
            e @ self.v
        self.patches.T @ (self.patches @ self.proj)
        np.random.default_rng(1).standard_normal(200_000)
        return time.perf_counter() - start


def measure(workload, seconds: float, tracer=None) -> tuple:
    """One warm-up cycle, then cycles for ``seconds``.

    Returns (warm-up, untraced, traced, reference times). The warm-up cycle
    fills caches and finishes lazy set-up; it is checked and counted, but
    not timed. The reference kernel is timed right after each untraced
    cycle. With a tracer, cycles alternate between untraced and traced, so
    a drift in machine speed during the run affects both alike.
    """
    reference = Reference()
    _settle()
    warmup = workload.cycle()
    reference.seconds()
    untraced, traced, ref_s = [], [], []
    start = time.perf_counter()
    while (time.perf_counter() - start < seconds or not untraced
           or (tracer is not None and not traced)):
        _settle()
        if tracer is not None and len(traced) < len(untraced):
            with tracer:
                traced.append(workload.cycle())
        else:
            untraced.append(workload.cycle())
            ref_s.append(reference.seconds())
    return warmup, untraced, traced, ref_s


def cycle_seconds(cycles) -> float:
    """Median wall time of the cycles."""
    return statistics.median(c.seconds for c in cycles)


def run_workload(args, package) -> int:
    from tracer import PER_LAYER, Tracer
    from workloads import WORKLOADS

    work = WORK_DIR / f"{args.workload}-{os.getpid()}"
    workload = WORKLOADS[args.workload](args.size, args.seed, work)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "size": args.size,
              "env": environment()}
    print("env " + json.dumps(record["env"], sort_keys=True))
    try:
        setup_s = []
        for _ in range(SETUP_REPEATS):
            _settle()
            start = time.perf_counter()
            workload.setup()
            setup_s.append(time.perf_counter() - start)
        if args.trace:
            tracer = Tracer(package)
            warmup, untraced, traced, _ = measure(workload, args.seconds,
                                                  tracer)
            cycles = [warmup] + untraced + traced
            figures = workload.figures(cycle_seconds(untraced), untraced)
            overhead = 100.0 * (1.0 - cycle_seconds(untraced)
                                / cycle_seconds(traced))
            values = tracer.per_layer(sum(c.attempted for c in traced),
                                      overhead)
            units = dict(PER_LAYER)
            record["profile"] = tracer.profile()
            record["spans"] = tracer.span_records()
        else:
            warmup, timed, _, ref_s = measure(workload, args.seconds)
            cycles = [warmup] + timed
            peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            values = {"setup_s": statistics.median(setup_s),
                      "cycle_rel": statistics.median(
                          c.seconds / r for c, r in zip(timed, ref_s)),
                      "peak_rss_mb": peak_kib / 1024.0}
            units = dict(END_TO_END)
            figures = workload.figures(cycle_seconds(timed), timed)
            figures.update(cycle_s=(cycle_seconds(timed), "s"),
                           reference_s=(statistics.median(ref_s), "s"))
            record["reference_s"] = ref_s
        failures = workload.check()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for message in failures:
        print(f"check failed: {message}", file=sys.stderr)
    attempted = sum(c.attempted for c in cycles)
    failed = min(attempted, sum(c.failed for c in cycles) + len(failures))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": values[name], "unit": units[name]}
                          for name in units}}
    record.update(result, setup_s=setup_s, figures=figures,
                  cycle_s=[c.seconds for c in cycles], failures=failures)

    print(f"{args.workload}: {len(cycles)} cycles, {attempted} operations, "
          f"{failed} failed")
    for name, (value, unit) in figures.items():
        print(f"  {name:32s} {value:14.6g} {unit}")
    for row in record.get("profile", [])[:15]:
        print(f"  self {row['name']:40s} {row['self_ms']:10.1f} ms "
              f"in {row['calls']} calls")
    for name, metric in result["metrics"].items():
        print(f"  {name:32s} {metric['value']:14.6g} {metric['unit']}")
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Run every workload in its own process; combine their results."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--size", args.size],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            status = proc.returncode or 1
            continue
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    if status == 0:
        print(json.dumps(combined))
    return status


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    os.environ["OPENBLAS_NUM_THREADS"] = str(BLAS_THREADS)
    package = load_package()
    if package is None:
        print(f"error: no mixedvit package under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args, package)


if __name__ == "__main__":
    sys.exit(main())
