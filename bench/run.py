"""Run one benchmark workload of dilocsim and print its metrics.

Usage, from the root of a checkout:

    python3 bench/run.py --workload presets --seed 1 --seconds 42 --trace 0

The workload runs whole rounds in this one process until another round
would not fit in ``--seconds`` (at least one round). The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``. A traced run records spans in its
traced rounds, then runs one untraced round to report the tracing overhead,
and writes the spans to ``bench/out/spans-<workload>-seed<seed>.json``.
Progress and failures go to standard error. See bench/README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOAD_NAMES = ("presets", "setup-poisson", "kernels-large")
# Address-space cap of this process, so that a set-up that blows up fails an
# operation with MemoryError instead of exhausting the machine's memory.
MEMORY_CAP_BYTES = 3 << 30
# glibc's malloc raises its mmap and trim thresholds as a process frees large
# blocks, so the cost of a large array (a fresh mmap with page faults, or a
# reused heap block) depends on what the process allocated before. The dense
# per-step arrays of DLRE ran 2.4 or 4.8 s per 800 steps at M = 2000 in runs
# that differed only in seed. The benchmark fixes both thresholds at the values
# the dynamic rule reaches at its cap: 32 MiB for mmap, twice that for trim.
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
MALLOC_THRESHOLDS = ((M_MMAP_THRESHOLD, 32 << 20), (M_TRIM_THRESHOLD, 64 << 20))


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def _limit_process() -> str:
    """One BLAS thread, a memory cap and fixed malloc thresholds; must run before numpy is imported.

    Returns how malloc is set, for the environment line.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = MEMORY_CAP_BYTES if hard == resource.RLIM_INFINITY else min(MEMORY_CAP_BYTES, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    libc, _ = platform.libc_ver()
    if libc != "glibc":
        return f"malloc of {libc or 'an unknown libc'} left as it is"
    mallopt = ctypes.CDLL(None).mallopt
    for param, value in MALLOC_THRESHOLDS:
        if mallopt(param, value) != 1:
            raise OSError(f"mallopt({param}, {value}) was refused")
    return "glibc malloc thresholds fixed at mmap 32 MiB, trim 64 MiB"


def _rounds(workload, meter, start, seconds, spare_rounds=0, limit=None):
    """Whole rounds until one more (plus ``spare_rounds``) would pass ``seconds``."""
    from workloads import Round

    rounds = []
    while True:
        before = (meter.setup_s, meter.iter_s, meter.sensor_steps)
        rnd = Round(meter)
        t0 = time.perf_counter()
        workload.round(rnd, len(rounds))
        rnd.duration = time.perf_counter() - t0
        rnd.setup = meter.setup_s - before[0]
        rnd.iter_s = meter.iter_s - before[1]
        rnd.steps = meter.sensor_steps - before[2]
        rounds.append(rnd)
        print(
            f"round {len(rounds) - 1}: wall {rnd.wall:.3f} s, setup {rnd.setup:.3f} s, "
            f"iterating {rnd.iter_s:.3f} s for {rnd.steps} sensor-steps, "
            f"{rnd.failed}/{rnd.attempted} failed, round {rnd.duration:.3f} s",
            file=sys.stderr,
        )
        print("ops " + json.dumps(rnd.seconds), file=sys.stderr)
        if limit is not None and len(rounds) >= limit:
            return rounds
        if time.perf_counter() - start + (1 + spare_rounds) * rnd.duration > seconds:
            return rounds


def _measure(meter, workload, start, seconds, **kw):
    meter.install()
    try:
        return _rounds(workload, meter, start, seconds, **kw)
    finally:
        meter.uninstall()


def _end_to_end(rounds, rss_mb: float) -> dict:
    med = statistics.median
    return {
        "wall_s": {"value": med(r.wall for r in rounds), "unit": "s"},
        "setup_s": {"value": med(r.setup for r in rounds), "unit": "s"},
        "sensor_steps_per_s": {"value": med(r.steps / r.iter_s for r in rounds), "unit": "1/s"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }


def _write_spans(path: Path, spans, start: float):
    rows = [
        {
            "id": s.id,
            "parent": s.parent,
            "name": s.name,
            "thread": s.thread,
            "op": s.op,
            "start": s.t0 - start,
            "end": s.t1 - start,
            "info": s.info,
        }
        for s in spans
    ]
    path.write_text(json.dumps(rows) + "\n")


def run(args, lib, out: Path) -> dict:
    import layers
    import workloads
    from meter import Meter, peak_rss_mb

    workload = workloads.WORKLOADS[args.workload](lib, args.seed, out)
    workload.prepare()
    start = time.perf_counter()
    if not args.trace:
        rounds = _measure(Meter(lib, traced=False), workload, start, args.seconds)
        metrics = _end_to_end(rounds, peak_rss_mb())
    else:
        tracer = Meter(lib, traced=True)
        traced = _measure(tracer, workload, start, args.seconds, spare_rounds=1)
        plain = _measure(Meter(lib, traced=False), workload, start, args.seconds, limit=1)
        traced_wall = statistics.median(r.wall for r in traced)
        extra = {
            "files_written": sum(r.files for r in traced),
            "bytes_written": sum(r.bytes for r in traced),
            "rss_after_setup_mb": tracer.rss_after_setup_mb,
            "wall_s": traced_wall,
            "overhead_pct": 100.0 * (traced_wall / plain[0].wall - 1.0),
            "span_cost_s": tracer.span_cost_s(),
        }
        metrics = layers.per_layer_metrics(tracer.spans, len(traced), extra)
        _write_spans(OUT / f"spans-{args.workload}-seed{args.seed}.json", tracer.spans, start)
        rounds = traced + plain
    seen = set()
    for r in rounds:
        for line in r.errors + r.problems:
            if line not in seen:
                seen.add(line)
                print(line, file=sys.stderr)
    return {
        "correct": not any(r.problems for r in rounds),
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    args = _parse(argv)
    src = ROOT / "src"
    if not (src / "dilocsim" / "__init__.py").is_file():
        print(f"bench: no dilocsim sources under {src}; run from a repository checkout", file=sys.stderr)
        return 2
    malloc = _limit_process()
    sys.path.insert(0, str(src))
    import numpy
    import scipy
    from dilocsim import cli, deployment, engine, geometry, random_env, system

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    print(
        f"python {platform.python_version()}, numpy {numpy.__version__}, scipy {scipy.__version__}, "
        f"BLAS {blas['name']} {blas['version']} on {os.environ['OPENBLAS_NUM_THREADS']} thread, "
        f"nproc {os.cpu_count()}, {malloc}",
        file=sys.stderr,
    )
    lib = {
        "geometry": geometry,
        "deployment": deployment,
        "system": system,
        "engine": engine,
        "random_env": random_env,
        "cli": cli,
    }
    out = OUT / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    out.mkdir(parents=True)
    try:
        result = run(args, lib, out)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
