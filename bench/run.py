"""claimspan benchmark: train, tag and retrieve workloads.

Usage, from the root of a checkout:

    python3 bench/run.py --workload train|tag|retrieve --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 0|1   # table of every workload
    python3 bench/run.py --workload train --seed 1 --seconds 1 --trace 1 --smoke

Each workload runs in its own process with BLAS pinned to one thread. Set-up
makes the inputs from the seed several times (``setup_s`` is the median). The
run then repeats measured passes until ``--seconds`` have elapsed:

- ``train``: one ``claimspan.train`` call (2 epochs, validation included).
- ``tag``: one in-process ``claimspan eval`` call per input file.
- ``retrieve``: one ``build_index``, then a tweet and a span query per post.

Times are reported at a fixed reference speed of the host: ``speed.py`` times
a fixed burst of Python all through the run and scales each measured interval
by the burst's reference time over its time in that interval, which cancels
the shared host's swings of speed. The first stdout line gives the burst
times seen (``host_burst_ms``).

With ``--trace 0`` the last line of stdout holds the end-to-end metrics:

- ``setup_s``: making the inputs; for ``tag`` it includes training and saving
  the checkpoint and writing the input files.
- ``peak_rss_mb``: peak resident memory of the workload process.
- ``posts_per_s``: posts a pass handles over its median time: training posts
  x epochs over the ``train`` call, validation included (train); posts over
  the ``eval`` calls (tag); query posts over their queries, each post asking
  its tweet and its span query (retrieve).
- ``build_s``: median time of the one-off build before the first unit of
  work, timed in every pass: encoding the training and validation posts as
  examples (train), loading the checkpoint and encoding the bank (tag), both
  timed ``BUILD_REPEATS`` times a pass, and ``build_index`` (retrieve).
- ``op_ms_p95``: 95th percentile latency of the unit operation: an epoch
  (train), an ``eval`` call on a 50-post file (tag), a post's two queries
  (retrieve).

The sample counts are in the first stdout line.

Failed operations, including failed output checks, are the result's
``failed`` out of ``attempted``; their ratio is the fail rate.

With ``--trace 1`` a separate run of the same passes wraps the package's
functions (see ``tracer.py``) and reports per-layer figures for one pass, as
medians over passes, plus the tracing overhead (traced pass time over an
untraced pass of the same inputs), in plain wall time. Spans go to
``bench/out/trace-<workload>.jsonl``.
"""

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
WORKLOAD_NAMES = ("train", "tag", "retrieve")
# Set-up repeats at least this many times, and on until this much time has
# gone, so that a set-up of a few milliseconds still gets a steady median.
SETUP_REPEATS = (3, 25)
SETUP_BUDGET_S = 1.0


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "commit": _git_commit(),
        "threads": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                               "MKL_NUM_THREADS")},
    }


def run_workload(args) -> dict:
    from speed import SpeedProbe, WallClock
    from tracer import Tracer, check_coverage, layer_metrics
    from workloads import WORKLOADS

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir()
    clock = WallClock() if args.trace else SpeedProbe()
    try:
        with clock:
            wl = WORKLOADS[args.workload](args.seed, args.smoke, workdir, clock)
            setups = []
            while (len(setups) < SETUP_REPEATS[0]
                   or (sum(setups) < SETUP_BUDGET_S and len(setups) < SETUP_REPEATS[1])):
                lap = clock.start()
                wl.setup()
                setups.append(clock.stop(lap))

            passes, pass_s = [], []

            def timed_pass(measure_build: bool) -> None:
                gc.collect()  # each pass starts from the same collector state
                lap = clock.start()
                passes.append(wl.run_pass(measure_build))
                pass_s.append(clock.stop(lap))

            tracer, traced = None, []
            if args.trace:
                timed_pass(measure_build=False)  # untraced: the base of the tracing overhead
                tracer = Tracer()
                tracer.install()
            start = time.perf_counter()
            while True:
                timed_pass(measure_build=not args.trace)
                if tracer is not None:
                    traced.append(tracer.take())
                if time.perf_counter() - start >= args.seconds:
                    break
        if tracer is not None:
            tracer.uninstall()
            check_coverage(args.workload, traced[0]["calls"])
            tracer.write(OUT / f"trace-{args.workload}{'-smoke' if args.smoke else ''}.jsonl")
        extra_attempted, extra_failed = wl.finish()
        properties = wl.properties()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "smoke": args.smoke, "setups": len(setups), "passes": len(passes),
            "operations": sum(len(p.op_ms) for p in passes), "inputs": properties,
            "env": environment()}
    if tracer is not None:
        metrics = layer_metrics(traced, properties)
        metrics["trace.overhead"] = (float(np.median(pass_s[1:])) / pass_s[0], "ratio")
    else:
        ops = [ms for p in passes for ms in p.op_ms]
        walls = [p.wall_s for p in passes]
        metrics = {
            "setup_s": (float(np.median(setups)), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "posts_per_s": (passes[0].posts / float(np.median(walls)), "1/s"),
            "build_s": (float(np.median([b for p in passes for b in p.builds])), "s"),
            "op_ms_p95": (float(np.quantile(ops, 0.95)), "ms"),
        }
        info["host_burst_ms"] = {f"p{q}": float(np.percentile(clock.bursts, q)) * 1e3
                                 for q in (10, 50, 90)}
    failed = sum(p.failed for p in passes) + extra_failed
    return {"info": info, "correct": failed == 0,
            "attempted": sum(p.attempted for p in passes) + extra_attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def print_table(results: dict) -> None:
    for workload, res in results.items():
        print(f"{workload}: attempted {res['attempted']}, failed {res['failed']}, "
              f"fail_rate {res['failed'] / res['attempted']:.6f}", file=sys.stderr)
        for name, m in res["metrics"].items():
            print(f"  {name:34s} {m['value']:>16.6f} {m['unit']}", file=sys.stderr)


def run_all(args) -> int:
    """Run every workload in its own process and print one table."""
    results = {}
    for workload in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        results[workload] = json.loads(proc.stdout.strip().splitlines()[-1])
    print_table(results)
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the schema test; not for timing")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if not (SRC / "claimspan" / "__init__.py").is_file():
        print(f"error: no claimspan package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    res = run_workload(args)
    info = res.pop("info")
    print(json.dumps(info))
    print_table({args.workload: res})
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
