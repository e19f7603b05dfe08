"""povmdt benchmark: seeded workloads against the package's public API.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload exact_sweep --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it records the provenance of the run.  The
exit code is 0 only when every correctness gate passed.  See README.md in
this directory for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

from tracer import DISTINCT, ERROR, NAME, PROBE, TRACED, Tracer, self_times

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".perfbench_out")
#: Fresh processes that time the set-up, besides the measuring process.
SETUP_CHILDREN = 8
#: Passes at the start of a measurement that only warm up: they are run
#: and checked, but left out of the timings.
WARMUP_PASSES = 1
#: Passes per measurement at least, the warm-up included: scan_refine
#: compares each pass's CSV with the first pass's.
MIN_PASSES = 3
#: The tail latency is the highest percentile with this many samples beyond
#: it; with fewer operations than that, the slowest one.
TAIL_BEYOND = 10


def set_up(workload: str, seed: int, workdir: str, tracer: Tracer | None = None):
    """Import povmdt and build the workload's inputs.

    Returns (workload, setup seconds, import seconds).  With a tracer, it is
    installed right after the import so the set-up calls are traced too.
    """
    t0 = time.perf_counter()
    import povmdt.cli  # noqa: F401  (also imports config and reports)
    t_import = time.perf_counter() - t0
    if tracer is not None:
        tracer.install()
    import workloads

    wl = workloads.WORKLOADS[workload](seed, workdir)
    return wl, time.perf_counter() - t0, t_import


@dataclass
class Pass:
    #: wall time of the pass, less the time of its host-speed samples
    seconds: float
    ops: list
    #: host-speed scale over the pass (see hostspeed.py)
    scale: float


def measure(wl, seconds: float, min_passes: int, on_pass=None) -> list[Pass]:
    """Run whole passes until ``seconds`` have passed and at least
    ``min_passes`` are done."""
    speed = wl.speed
    passes = []
    t0 = time.perf_counter()
    while len(passes) < min_passes or time.perf_counter() - t0 < seconds:
        if on_pass is not None:
            on_pass()
        first, spent = len(speed.samples), speed.spent
        t = time.perf_counter()
        ops = wl.run_pass()
        elapsed = time.perf_counter() - t - (speed.spent - spent)
        passes.append(Pass(elapsed, ops, speed.scale(first, len(speed.samples))))
    return passes


def scaled_times(passes: list[Pass]) -> tuple[list[float], float]:
    """Per-operation latencies and the pass time, at the nominal host speed.

    Every pass repeats the same operations on the same inputs.  Each time
    is scaled by its pass's host-speed scale; an operation's latency is the
    median of its scaled times over the passes after the warm-up, and so is
    the pass time.
    """
    timed = passes[WARMUP_PASSES:]
    columns = zip(*([op.seconds * p.scale for op in p.ops] for p in timed))
    return ([statistics.median(c) for c in columns],
            statistics.median(p.seconds * p.scale for p in timed))


def entries_per_s(passes: list[Pass]) -> float:
    """Entries completed per second of the scaled pass time."""
    entries = min(sum(op.entries for op in p.ops if not op.failed) for p in passes)
    return entries / scaled_times(passes)[1]


def mean_scale(passes: list[Pass]) -> float:
    return statistics.fmean(p.scale for p in passes[WARMUP_PASSES:])


def all_ops(passes: list[Pass]) -> list:
    return [op for p in passes for op in p.ops]


def setup_sample(workload: str, seed: int) -> float:
    """Set-up time of one fresh process."""
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(out.stdout.splitlines()[-1])["setup_s"]


def end_to_end(args, workdir: str) -> tuple[dict, list, bool]:
    wl, setup_s, _ = set_up(args.workload, args.seed, workdir)
    passes = measure(wl, args.seconds, MIN_PASSES)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    var_x_n = wl.var_x_n()
    setups = [setup_s] + [setup_sample(args.workload, args.seed) for _ in range(SETUP_CHILDREN)]

    latencies = sorted(t * 1000 for t in scaled_times(passes)[0])
    n = len(latencies)
    tail_rank = n - TAIL_BEYOND - 1 if n > TAIL_BEYOND else n - 1
    ops = all_ops(passes)
    scale = mean_scale(passes)
    print(f"{args.workload}: {n} operations per pass, {len(passes)} passes over "
          f"{sum(p.seconds for p in passes):.3f} s, the first {WARMUP_PASSES} untimed; "
          f"times scaled to the nominal host speed by {scale:.4f} on average "
          f"(unscaled op_ms_p50 {statistics.median(latencies) / scale:.4f}); op_ms_p50 "
          f"and op_ms_tail over the {n} per-operation medians, tail = "
          f"p{100 * (tail_rank + 1) / n:.2f} with {n - tail_rank - 1} samples beyond; "
          f"setup_s = median of {len(setups)} fresh processes")
    for path, digest in getattr(wl, "digests", {}).items():
        print(f"{args.workload}: {os.path.basename(path)} CSV sha256 {digest}")
    failed = sum(op.failed for op in ops)
    metrics = {
        "entries_per_s": (entries_per_s(passes), "1/s"),
        "op_ms_p50": (statistics.median(latencies), "ms"),
        "op_ms_tail": (latencies[tail_rank], "ms"),
        "peak_rss_mb": (peak_rss_mb, "MiB"),
        "var_x_n": (var_x_n, "particles"),
        "ok_frac": (1 - failed / len(ops), "fraction"),
        "setup_s": (statistics.median(setups), "s"),
    }
    return metrics, ops, True


def per_layer(args, workdir: str) -> tuple[dict, list, bool]:
    tracer = Tracer()
    wl, _, t_import = set_up(args.workload, args.seed, workdir, tracer)
    half = args.seconds / 2
    pass_starts = []
    traced = measure(wl, half, MIN_PASSES,
                     on_pass=lambda: pass_starts.append(len(tracer.spans)))
    tracer.uninstall()
    plain = measure(wl, half, MIN_PASSES)
    passes = len(traced)

    spans = tracer.spans
    scale = mean_scale(traced)
    selfs = [t * scale for t in self_times(spans)]
    first_pass_end = pass_starts[1]
    # [set-up, timed passes] sums per traced function
    stats = {f"{m}.{fn}": {"calls": [0, 0], "self_s": [0.0, 0.0], "errors": [0, 0],
                           "probe": [0, 0], "probe_max": 0, "inputs": []}
             for m, functions in TRACED.items() for fn in functions}
    for i, span in enumerate(spans):
        part = int(i >= pass_starts[0])
        s = stats[span[NAME]]
        s["calls"][part] += 1
        s["self_s"][part] += selfs[i]
        s["errors"][part] += span[ERROR]
        if span[NAME] in DISTINCT:
            if i < first_pass_end:
                s["inputs"].append(span[PROBE])
        elif span[PROBE] is not None:
            s["probe"][part] += span[PROBE]
            s["probe_max"] = max(s["probe_max"], span[PROBE])

    def per_pass(pair):
        """The set-up counts once; the timed passes are averaged to one."""
        return pair[0] + pair[1] / passes

    metrics = {"import.self_s": (t_import, "s")}
    for name, s in stats.items():
        key = name.lstrip("_")  # metric names start with a letter
        metrics[f"{key}.calls"] = (per_pass(s["calls"]), "count")
        metrics[f"{key}.self_s"] = (per_pass(s["self_s"]), "s")
        metrics[f"{key}.errors"] = (per_pass(s["errors"]), "count")
    for name in DISTINCT:
        inputs = stats[name]["inputs"]
        frac = len(set(inputs)) / len(inputs) if inputs else 0.0
        metrics[f"{name}.distinct_frac"] = (frac, "fraction")
    kernel = stats["_kernels.trial_estimates"]
    metrics["kernels.trial_estimates.draws"] = (per_pass(kernel["probe"]), "count")
    # the largest (trials, 36) int64 count matrix; the kernel copies it once
    # more to float64
    metrics["kernels.trial_estimates.count_mb"] = (kernel["probe_max"] * 8 / 2**20, "MiB")
    metrics["reports.write_csv.bytes"] = (per_pass(stats["reports.write_csv"]["probe"]),
                                          "bytes")
    traced_eps, plain_eps = entries_per_s(traced), entries_per_s(plain)
    metrics["trace.slowdown"] = (plain_eps / traced_eps, "ratio")
    print(f"{args.workload}: traced {traced_eps:.1f} entries/s over {passes} passes, "
          f"untraced {plain_eps:.1f} entries/s over {len(plain)}; per-layer figures are "
          f"the set-up plus one pass, self times scaled by {scale:.4f} to the nominal "
          f"host speed; draws and count_mb are computed from the call arguments")

    missing = [name for name in wl.required if sum(stats[name]["calls"]) == 0]
    if missing:
        print(f"{args.workload}: traced layers recorded no calls: {missing}", file=sys.stderr)
    return metrics, all_ops(traced + plain), not missing


def provenance(args) -> dict:
    import numpy

    from povmdt import _kernels

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host_info(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": blas_threads(),
        "backend": _kernels.active_backend(),
        "rng": _kernels.rng_name(),
        "POVMDT_BACKEND": os.environ.get(_kernels.ENV_VAR),
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
    }


def host_info() -> dict:
    """CPU count, model and data-cache sizes, where the host exposes them."""
    info = {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0))}
    cpuinfo = _read("/proc/cpuinfo") or ""
    info["cpu_model"] = next((line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
                              if line.startswith("model name")), None)
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        kind, level, size = (_read(os.path.join(index, f)) for f in ("type", "level", "size"))
        if kind in ("Unified", "Data"):
            info[f"L{level}"] = size
    return info


def _read(path: str) -> str | None:
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return None


def blas_threads() -> int | None:
    """Threads of the OpenBLAS that numpy loaded, if it can be found."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit() -> str | None:
    """HEAD of the checkout's own repository; None where it is not one."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest() -> str:
    """SHA-256 over the package sources, for checkouts that are not git repos."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "povmdt")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("exact_sweep", "mc_trials", "scan_refine"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    if not os.path.isfile(os.path.join(SRC, "povmdt", "__init__.py")):
        print(f"perfbench: no povmdt package under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    workdir = os.path.join(WORKDIR, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        if args.setup_only:
            _, setup_s, _ = set_up(args.workload, args.seed, workdir)
            print(json.dumps({"setup_s": setup_s}))
            return 0
        metrics, ops, layers_seen = (per_layer if args.trace else end_to_end)(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORKDIR)  # only once no other run is using it
        except OSError:
            pass

    failed = sum(op.failed for op in ops)
    correct = failed == 0 and layers_seen
    print("provenance " + json.dumps(provenance(args), sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
