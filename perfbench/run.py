#!/usr/bin/env python3
"""End-to-end benchmark of the nhbath command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Runs one workload (see workloads.py and BENCHMARK.json) through the public
entry point `nhbath.cli.main`, in this process, against the sources in
`src/` next to this directory.  One untimed warm-up op comes first; ops then
run back to back, one at a time, for about S seconds.  The outputs of every
op are hashed and must be byte-identical to the warm-up's; one set is read
back and checked against an independent reference (untimed).

--trace 0 reports the end-to-end metrics.  --trace 1 alternates traced and
untraced ops and reports the per-layer metrics (spans from tracing.py).
--smoke runs the same workload at a tiny size.  Human-readable lines come
first; the last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Inputs, environment, op times,
output hashes and spans are written to perfbench/out/.
"""
from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPS = 5

END_TO_END_UNITS = {"run_s": "s", "run_s_tail": "s", "setup_s": "s",
                    "peak_rss_mb": "MiB", "max_err": "abs", "failed_frac": "ratio"}
# Printed but not in the JSON line: failed_frac can read 0 (the JSON line
# reports `failed` of `attempted`), max_err follows the seeded inputs (it is
# a per-layer metric instead), and a run has too few ops for a steady tail
GATED_END_TO_END = ("run_s", "setup_s", "peak_rss_mb")
PER_LAYER_UNITS = {
    "lattice.assemble_s": "s", "dynamics.evolve_s": "s",
    "dynamics.evolve_calls": "count", "dynamics.observables_s": "s",
    "runner.serialize_s": "s", "runner.output_bytes": "bytes",
    "runner.pool_busy_frac": "ratio", "spectral.obc_spectrum_s": "s",
    "effective.heff_closed_form_s": "s", "effective.heff_numeric_s": "s",
    "effective.greens_obc_calls": "count", "trace.overhead_s": "s",
    "max_err": "abs",
}

# a fresh interpreter doing what every CLI invocation does before its run:
# import the package, read the config, validate it
SETUP_CODE = """\
import json, pathlib, sys
sys.path.insert(0, sys.argv[1])
import nhbath.cli
from nhbath.config import parse_config
raw = json.loads(pathlib.Path(sys.argv[2]).read_text())
raw["experiment"] = sys.argv[3]
parse_config(json.dumps(raw))
"""


def import_nhbath():
    """Import nhbath from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import nhbath.cli
    import nhbath.runner
    if not Path(nhbath.cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"nhbath imported from {nhbath.cli.__file__}, not {SRC}")
    return nhbath


# ------------------------------------------------------------ environment

def _openblas():
    """Loaded OpenBLAS libraries with their build string and thread count."""
    found = []
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = sorted({line.split()[-1] for line in fh if "openblas" in line})
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for suffix in ("64_", ""):
            try:
                threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}")
                config = getattr(lib, f"scipy_openblas_get_config{suffix}")
            except AttributeError:
                continue
            threads.argtypes, threads.restype = [], ctypes.c_int
            config.argtypes, config.restype = [], ctypes.c_char_p
            found.append({"library": os.path.basename(path),
                          "config": config().decode(), "threads": threads()})
            break
    return found


def _cpu():
    model = next((line.split(":", 1)[1].strip()
                  for line in Path("/proc/cpuinfo").read_text().splitlines()
                  if line.startswith("model name")), platform.processor())
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = (index / "level").read_text().strip()
        kind = (index / "type").read_text().strip()
        name = f"L{level}" + {"Data": "d", "Instruction": "i"}.get(kind, "")
        caches[name] = (index / "size").read_text().strip()
    return model, caches


def _git_sha():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(nhbath) -> dict:
    import numpy
    import scipy
    model, caches = _cpu()
    return {
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model, "caches": caches,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "openblas": _openblas(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "NHBATH_THREADS": os.environ.get("NHBATH_THREADS"),
        "sweep_workers": nhbath.runner.max_workers(),
        "nhbath": nhbath.__version__, "git_sha": _git_sha(),
    }


# ----------------------------------------------------------------- timing

def measure_setup(cfg_path: Path, experiment: str, reps: int) -> list:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC),
                               str(cfg_path), experiment],
                              capture_output=True, text=True, timeout=120)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up interpreter failed: {proc.stderr.strip()}")
    return times


def digest(dirs) -> dict:
    out = {}
    for d in filter(Path.is_dir, dirs):
        for name in sorted(os.listdir(d)):
            out[f"{d.name}/{name}"] = hashlib.sha256((d / name).read_bytes()).hexdigest()
    return out


def run_op(nhbath, wl, cfg_path, dirs):
    """One op: every CLI call of the workload, timed together.
    Returns (seconds, error message or None)."""
    for d in dirs:
        shutil.rmtree(d, ignore_errors=True)
    sink = io.StringIO()
    error = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            codes = [nhbath.cli.main([wl.command, "--config", str(cfg_path),
                                      "--output-dir", str(d), *extra])
                     for d, extra in zip(dirs, wl.runs)]
    except Exception as exc:  # an op that raises is a failed op, not a crash
        codes, error = [], f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - t0
    if error is None and any(codes):
        error = f"exit codes {codes}: {sink.getvalue().strip()[-500:]}"
    return seconds, error


def tail(times):
    """(value, percentile, samples beyond): the highest percentile of the op
    times with at least ten samples beyond it; the maximum when there are
    too few samples for that."""
    ordered = sorted(times)
    n = len(ordered)
    if n > 10:
        return ordered[n - 11], 100.0 * (n - 10) / n, 10
    return ordered[-1], 100.0, 0


# ------------------------------------------------------------------- main

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, few set-up repetitions")
    args = parser.parse_args(argv)

    try:
        nhbath = import_nhbath()
    except ImportError as exc:
        print(f"error: cannot import nhbath from {SRC}: {exc}", file=sys.stderr)
        return 2
    from tracing import Tracer
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    cfg = wl.config(args.seed, args.smoke)

    run_dir = OUT / (f"{args.workload}-s{args.seed}-t{args.trace}"
                     + ("-smoke" if args.smoke else ""))
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    cfg_path = run_dir / "config.json"
    cfg_path.write_text(json.dumps(cfg, sort_keys=True) + "\n")
    dirs = [run_dir / f"op{i}" for i in range(len(wl.runs))]
    env = environment(nhbath)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}"
          f"{'  smoke' if args.smoke else ''}")
    print("inputs " + json.dumps(cfg, sort_keys=True)[:300])
    print("env " + json.dumps(env, sort_keys=True))

    setup_times = []
    if not args.trace:
        setup_times = measure_setup(cfg_path, wl.experiment,
                                    1 if args.smoke else SETUP_REPS)

    problems = []
    seconds, error = run_op(nhbath, wl, cfg_path, dirs)  # warm-up, untimed
    if error:
        problems.append(f"warm-up: {error}")
    reference = digest(dirs)

    tracer = Tracer()
    times, traced, failed_ops = [], [], set()
    start = time.perf_counter()
    # start another op while it would end no later than half an op past the
    # window, so that on average the ops fill exactly --seconds
    while not times or (time.perf_counter() - start
                        + statistics.median(times) / 2 <= args.seconds):
        i = len(times)
        use_trace = bool(args.trace) and i % 2 == 0
        with tracer.op(i) if use_trace else contextlib.nullcontext():
            seconds, error = run_op(nhbath, wl, cfg_path, dirs)
        times.append(seconds)
        traced.append(use_trace)
        if error is None and digest(dirs) != reference:
            error = "outputs differ from the warm-up's (not byte-identical)"
        if error:
            failed_ops.add(i)
            problems.append(f"op {i}: {error}")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # every op's files are identical to the warm-up's, so one check covers all
    try:
        max_err, found = wl.check(cfg, dirs)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        max_err, found = math.inf, [f"outputs unreadable: {type(exc).__name__}: {exc}"]
    if wl.tolerance is not None and not max_err <= wl.tolerance:
        found.append(f"max_err {max_err:.3g} above tolerance {wl.tolerance:g}")
    if found:
        failed_ops = set(range(len(times)))
        problems += found
    failed = len(failed_ops)
    output_bytes = sum(os.path.getsize(d / n) for d in filter(Path.is_dir, dirs)
                       for n in os.listdir(d))

    metrics = {"max_err": float(max_err), "failed_frac": failed / len(times)}
    if args.trace:
        ops = [i for i, t in enumerate(traced) if t]
        plain = [t for t, on in zip(times, traced) if not on]
        rows = [tracer.op_metrics(i, env["sweep_workers"]) for i in ops]
        for name in rows[0]:
            metrics[name] = statistics.median(r[name] for r in rows)
        traced_run_s = statistics.median(times[i] for i in ops)
        metrics["runner.output_bytes"] = output_bytes
        metrics["trace.overhead_s"] = (traced_run_s - statistics.median(plain)
                                       if plain else 0.0)
        report = PER_LAYER_UNITS
    else:
        value, pct, beyond = tail(times)
        metrics.update(run_s=statistics.median(times), run_s_tail=value,
                       setup_s=statistics.median(setup_times),
                       peak_rss_mb=peak_rss_mb)
        report = END_TO_END_UNITS

    print(f"op times (s), {len(times)} ops: "
          + " ".join(f"{t:.4f}{'*' if on else ''}" for t, on in zip(times, traced)))
    for name, unit in report.items():
        note = ""
        if name == "run_s_tail":
            note = (f"p{pct:g} of {len(times)} samples, {beyond} beyond it"
                    + ("" if beyond else "; fewer than 11 samples, so the maximum"))
        elif name == "setup_s":
            note = f"median of {len(setup_times)} fresh interpreters"
        elif name == "max_err":
            note = (f"tolerance {wl.tolerance:g}" if wl.tolerance is not None
                    else "recorded, not gated")
        elif name == "failed_frac":
            note = f"{failed} of {len(times)} ops failed"
        print(f"  {name:30s} {metrics[name]:<14.6g} {unit:6s} {note}")
    if args.trace:
        print(f"  accounted: {metrics['accounted_s']:.4f} thread-s of span self "
              f"time in a traced op of {traced_run_s:.4f} s (sweep-gamma runs "
              f"{env['sweep_workers']} pool threads, so up to that many times more)")
        if tracer.missing:
            print("  not traced (name not found): " + ", ".join(sorted(tracer.missing)))
    for name, sha in reference.items():
        print(f"  sha256 {sha}  {name}")
    for p in problems[:20]:
        print(f"  problem: {p}")

    keys = PER_LAYER_UNITS if args.trace else GATED_END_TO_END
    result = {"correct": not problems, "attempted": len(times), "failed": failed,
              "metrics": {k: {"value": metrics[k], "unit": report[k]} for k in keys}}
    if args.trace and not math.isfinite(max_err):  # outputs unreadable
        result["metrics"]["max_err"]["value"] = None
    (run_dir / "result.json").write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "inputs": cfg,
        "tolerance": wl.tolerance, "environment": env, "op_times_s": times,
        "op_traced": traced, "setup_times_s": setup_times,
        "outputs_sha256": reference, "metrics": metrics, "problems": problems,
    }, indent=1, sort_keys=True) + "\n")
    if args.trace:
        (run_dir / "spans.json").write_text(json.dumps(tracer.dump()) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
