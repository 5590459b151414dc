"""cavmech benchmark: time checked passes of one workload.

    python3 bench/run.py --workload transfer-full --seed 0 --seconds 25 --trace 0

Run from the repository root; the package is imported from ``src/``.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (see README.md in this directory).  Human-readable
lines come first; the last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
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
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
WORKLOADS = ("transfer-full", "effective-crosscheck", "closed-forms")
SETUP_PROBES = 5
TAIL_LEVELS = (0.99, 0.95, 0.90, 0.75)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny runs a reduced pass, for the benchmark's own tests")
    p.add_argument("--out", help="merge the full run record into this JSON file")
    p.add_argument("--setup-probe", action="store_true",
                   help="import cavmech, build the inputs and exit (times setup_s)")
    return p.parse_args(argv)


def import_library(root: Path):
    """Import cavmech from ``root/src`` and the workload module."""
    src = root / "src"
    if not (src / "cavmech" / "__init__.py").is_file():
        raise FileNotFoundError(f"no cavmech sources under {src}; run from the repository root")
    sys.path[:0] = [str(src), str(HERE)]
    import cavmech
    import workloads

    if not Path(cavmech.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"cavmech imported from {cavmech.__file__}, not from {src}")
    return workloads


# -- run environment ----------------------------------------------------------

def blas_libraries() -> list[dict]:
    """Loaded BLAS libraries with their configuration and thread count."""
    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({line.split()[-1] for line in maps
                            if line.rstrip().rsplit("/", 1)[-1].startswith("lib") and "blas" in line.lower()})
    except OSError:
        return []
    found = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        entry = {"library": Path(path).name}
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is not None and "threads" not in entry:
                    threads.restype = ctypes.c_int
                    threads.argtypes = []
                    entry["threads"] = threads()
                if config is not None and "config" not in entry:
                    config.restype = ctypes.c_char_p
                    config.argtypes = []
                    entry["config"] = config().decode(errors="replace").strip()
        found.append(entry)
    return found


def git_commit(root: Path) -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(root: Path, loadavg) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_at_start": list(loadavg),
        "numpy_blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_libraries": blas_libraries(),
        "blas_thread_env": {k: os.environ.get(k) for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "commit": git_commit(root),
    }


# -- measurement ----------------------------------------------------------------

def setup_times(args, root: Path) -> tuple[list[float], list[float]]:
    """Time from starting a fresh interpreter until it has imported cavmech
    and built the inputs, as measured and at reference speed.  The probe
    prints its monotonic clock reading at that point; ``perf_counter`` is
    the system-wide monotonic clock, so the reading compares with the
    parent's start time."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed), "--size", args.size]
    measured, normalised = [], []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        out = subprocess.run(cmd, cwd=root, check=True, capture_output=True, text=True, timeout=120)
        probe = json.loads(out.stdout.splitlines()[-1])
        elapsed = probe.pop("done") - t0
        measured.append(elapsed)
        normalised.append(speed.Speed(**probe).normalise(elapsed, 0.0)[0])
    return measured, normalised


def setup_probe(args, root: Path, scratch: Path) -> None:
    """The child of :func:`setup_times`: import cavmech and build the
    inputs with the speed sampler on, then print the clock and the kernel runs."""
    with speed.Sampler() as sp:
        workloads = import_library(root)
        workloads.WORKLOADS[args.workload][0](args.seed, args.size, scratch)
        done = time.perf_counter()
    speed.settle(sp)
    print(json.dumps({"done": done, "n": sp.n, "wall": sp.wall, "cpu": sp.cpu, "after_cpu": sp.after_cpu}))


@dataclass
class Sample:
    wall: float
    cpu: float
    ops: object
    speed: speed.Speed | None = None  # kernel runs during the pass; None when traced

    def normalised(self) -> tuple[float, float]:
        return self.speed.normalise(self.wall, self.cpu)


def timed_passes(workloads, run_pass, inputs, seconds: float, tracer=None):
    """Run checked passes until ``seconds`` have elapsed (at least one).

    Without a tracer every pass runs under the speed sampler.  With one,
    passes alternate untraced and traced, so that both see the same
    machine load, and nothing is sampled; returns (untraced, traced)
    sample lists.
    """
    sampler = speed.Sampler() if tracer is None else contextlib.nullcontext()
    plain, traced = [], []
    deadline = time.perf_counter() + seconds
    while True:
        for traced_pass in ((False, True) if tracer is not None else (False,)):
            if traced_pass:
                tracer.trace_id = len(traced) + 1
                tracer.install()
            ops = workloads.Ops()
            with sampler as sp:
                c0, t0 = time.process_time(), time.perf_counter()
                try:
                    run_pass(inputs, ops)
                except Exception as exc:  # the pass itself broke: count it, keep the reason
                    ops.attempted += 1
                    ops.failures.append(f"pass aborted: {type(exc).__name__}: {exc}")
                finally:
                    if traced_pass:
                        tracer.uninstall()
                wall, cpu = time.perf_counter() - t0, time.process_time() - c0
            (traced if traced_pass else plain).append(
                Sample(wall, cpu, ops, sp and speed.settle(sp)))
        if time.perf_counter() >= deadline:
            return plain, traced


def summary(values: list[float]) -> dict:
    """Median, sample count, and the highest tail percentile that has at
    least ten samples beyond it."""
    out = {"median": statistics.median(values), "n": len(values)}
    for q in TAIL_LEVELS:
        if len(values) * (1 - q) >= 10:
            out[f"p{round(q * 100)}"] = statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]
            break
    return out


def worst_figures(samples: list[Sample]) -> dict:
    worst = {}
    for s in samples:
        for name, (value, op, limit) in s.ops.figures.items():
            prev = worst.get(name)
            if prev is None or (value > prev[0] if op == "<" else value < prev[0]):
                worst[name] = (value, op, limit)
    return worst


def layer_metrics(tracer, plain: list[Sample], traced: list[Sample]) -> dict:
    """Per-layer medians over the traced passes, plus the tracing overhead."""
    import layers

    per_pass = [layers.pass_values(tracer.pass_totals(i + 1)) for i in range(len(traced))]
    metrics = {m: {"value": statistics.median(p[m] for p in per_pass),
                   "unit": layers.UNITS[layers.split(m)[1]]} for m in layers.METRICS}
    overhead = statistics.median(s.wall for s in traced) - statistics.median(s.wall for s in plain)
    metrics["trace_overhead_s"] = {"value": overhead, "unit": "s"}
    return metrics


def main(argv=None) -> int:
    loadavg = os.getloadavg()
    args = parse_args(argv)
    root = Path.cwd()
    if args.setup_probe:
        with scratch_dir(root) as scratch:
            setup_probe(args, root, scratch)
        return 0
    try:
        workloads = import_library(root)
    except (FileNotFoundError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    make_inputs, run_pass = workloads.WORKLOADS[args.workload]
    with scratch_dir(root) as scratch:
        return measure(args, root, workloads, make_inputs, run_pass, scratch, loadavg)


@contextlib.contextmanager
def scratch_dir(root: Path):
    scratch = root / ".bench_build" / f"run-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        yield scratch
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def measure(args, root, workloads, make_inputs, run_pass, scratch, loadavg) -> int:
    env = environment(root, loadavg)
    setup_measured, setup = ([], []) if args.trace else setup_times(args, root)

    t0 = time.perf_counter()
    run_pass(make_inputs(args.seed, "tiny", scratch), workloads.Ops())
    warmup_s = time.perf_counter() - t0
    inputs = make_inputs(args.seed, args.size, scratch)

    tracer = None
    if args.trace:
        import layers
        from tracer import Tracer

        modules = [m for name, m in sys.modules.items() if name == "cavmech" or name.startswith("cavmech.")]
        tracer = Tracer(layers.TARGETS, modules + [workloads])
    plain, traced = timed_passes(workloads, run_pass, inputs, args.seconds, tracer)
    samples = plain + traced
    attempted = sum(s.ops.attempted for s in samples)
    failed = sum(len(s.ops.failures) for s in samples)
    normalised = [s.normalised() for s in plain if s.speed]
    if args.trace:
        stats = {"wall_s.measured": summary([s.wall for s in plain]),
                 "wall_s.traced": summary([s.wall for s in traced])}
        metrics = layer_metrics(tracer, plain, traced)
        trace_path = root / ".bench_build" / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.dump(trace_path, {"workload": args.workload, "seed": args.seed})
    else:
        stats = {
            "wall_s": summary([wall for wall, _ in normalised]),
            "cpu_s": summary([cpu for _, cpu in normalised]),
            "setup_s": summary(setup),
            "wall_s.measured": summary([s.wall for s in plain]),
            "cpu_s.measured": summary([s.cpu for s in plain]),
            "setup_s.measured": summary(setup_measured),
        }
        metrics = {
            "wall_s": {"value": stats["wall_s"]["median"], "unit": "s"},
            "cpu_s": {"value": stats["cpu_s"]["median"], "unit": "s"},
            "setup_s": {"value": stats["setup_s"]["median"], "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
            "ok_ratio": {"value": (attempted - failed) / attempted, "unit": "ratio"},
        }
    figures = worst_figures(samples)
    failures = [f"{kind}pass {i + 1}: {f}" for kind, group in (("", plain), ("traced ", traced))
                for i, s in enumerate(group) for f in s.ops.failures]

    print(f"env: {json.dumps(env, sort_keys=True)}")
    print(f"{args.workload} seed={args.seed} size={args.size} trace={args.trace}: "
          f"{len(samples)} timed passes, untimed warm-up {warmup_s:.3f} s")
    if not args.trace:
        kernel_us = statistics.median(s.speed.cpu / s.speed.n if s.speed.n else s.speed.after_cpu
                                      for s in plain) * 1e6
        print(f"  speed kernel: median {kernel_us:.1f} us CPU per run, reference {speed.REFERENCE_S * 1e6:g} us; "
              f"wall_s, cpu_s and setup_s are at reference speed, *.measured as timed")
    for name, st in stats.items():
        tail = "".join(f", {k} {v:.4f}" for k, v in st.items() if k.startswith("p"))
        print(f"  {name:<16} median {st['median']:.4f} s over {st['n']} samples{tail}")
    if not args.trace:
        print(f"  {'peak_rss_mb':<16} {metrics['peak_rss_mb']['value']:.1f} MB")
    print(f"  {'failed_ratio':<16} {failed}/{attempted} = {failed / attempted:g}")
    for name, (value, op, limit) in sorted(figures.items()):
        print(f"  gate {name} = {value:.3e} (worst of {len(samples)}; need {op} {limit:g})")
    for line in failures:
        print(f"  FAILED {line}")
    if args.trace:
        for name, m in metrics.items():
            print(f"  layer {name} = {m['value']:.6g} {m['unit']}")
        print(f"  trace written to {trace_path.relative_to(root)}; absent: {tracer.absent or 'none'}")

    if args.out:
        record = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "size": args.size, "trace": args.trace, "env": env, "warmup_s": warmup_s,
            "samples": {"wall_s.measured": [s.wall for s in plain], "cpu_s.measured": [s.cpu for s in plain],
                        "wall_s.traced": [s.wall for s in traced], "setup_s.measured": setup_measured,
                        "wall_s": [w for w, _ in normalised], "cpu_s": [c for _, c in normalised],
                        "setup_s": setup, "speed": [vars(s.speed) for s in plain if s.speed]},
            "stats": stats, "metrics": metrics, "attempted": attempted, "failed": failed,
            "failed_ratio": failed / attempted, "failures": failures,
            "gates": {k: {"worst": v, "need": f"{op} {lim:g}"} for k, (v, op, lim) in sorted(figures.items())},
        }
        out = Path(args.out)
        doc = json.loads(out.read_text()) if out.exists() else {}
        doc[f"{args.workload}/{'trace' if args.trace else 'plain'}"] = record
        out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")

    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
