"""
noisecascade benchmark: drives the program through ``noisecascade.cli.main``
from the root of a source checkout.

    python3 benchmarks/run.py --workload sweep-grid --seed 0 --seconds 20 --trace 0

Workloads: sweep-grid, sweep-theta-om, fcs-points (see benchmarks/README.md).
With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it
runs the same workload with span-recording wrappers around the public
functions and prints the per-layer metrics.  Timings are calibrated against
a reference kernel for the changing speed of a shared host (calibrate.py).
The last line of standard output is one JSON object {correct, attempted,
failed, metrics}.  The exit
code is 1 when an output check fails, and the program is imported from
``src/`` of the checkout only.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MIN_PASSES = 3
SETUP_PROBES = 5
CAL_SHARE = 0.1  # reference-kernel time after a call, as a share of the call's time
CAL_MIN_S = 0.003

END_TO_END = {
    "setup_s": "s", "run_cal_s": "s", "cpu_cal_s": "s", "items_per_cal_s": "1/s",
    "call_cal_ms_p50": "ms", "call_cal_ms_p90": "ms", "peak_rss_mb": "MB",
}


def load_program():
    """Import noisecascade from src/ of this checkout and the benchmark modules."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "noisecascade", "__init__.py")):
        raise SystemExit(f"error: no noisecascade sources under {src}")
    sys.path.insert(0, src)
    import noisecascade
    from noisecascade import cli

    if not os.path.abspath(noisecascade.__file__).startswith(src + os.sep):
        raise SystemExit(f"error: imported noisecascade from {noisecascade.__file__}")
    import workloads

    return cli, workloads


def call(cli, argv: list[str]) -> tuple[int | None, float, str]:
    """One cli.main call: (exit code or None if it raised, seconds, stdout)."""
    buf = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
    except SystemExit as exc:  # argparse rejects arguments this way
        rc = exc.code
    except Exception:  # a raising call is a failed operation, not a crashed benchmark
        traceback.print_exc()
        rc = None
    return rc, time.perf_counter() - start, buf.getvalue()


def set_up(name: str, seed: int, workdir: str, serial: bool = False):
    """Import, input generation and warm-up; returns (cli, workloads, workload, seconds)."""
    start = time.perf_counter()
    cli, workloads = load_program()
    if serial and name == "sweep-theta-om":
        wl = workloads.SweepThetaOm(seed, workdir, parallel=False)
    else:
        wl = workloads.WORKLOADS[name](seed, workdir)
    for argv in wl.warm_up_calls():
        rc, _, _ = call(cli, argv)
        if rc != 0:
            raise SystemExit(f"error: warm-up call failed with exit code {rc}: {argv[:2]}")
    return cli, workloads, wl, time.perf_counter() - start


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def timed_calls(cli, argvs: list[list[str]], before: float, sample: bool = True):
    """Run the calls, sampling the reference kernel after each one and, with
    ``sample``, during it (see calibrate.py).

    ``before`` is the kernel's seconds per run just before the first call.
    Returns the results (exit code, stdout), per-call raw wall and CPU
    seconds, the same two calibrated (without the timer's kernel runs and
    rescaled to the reference speed), and the kernel's seconds per run after
    the last call.
    """
    import calibrate

    results, walls, cpus, cal_walls, cal_cpus = [], [], [], [], []
    for argv in argvs:
        cpu0 = _cpu_s()
        sampler = calibrate.Sampler()
        with sampler if sample else contextlib.nullcontext():
            rc, dt, out = call(cli, argv)
        cpu = _cpu_s() - cpu0
        after = calibrate.seconds_per_kernel(max(CAL_MIN_S, CAL_SHARE * dt))
        factor = sampler.factor(before, after)
        before = after
        results.append((rc, out))
        walls.append(dt)
        cpus.append(cpu)
        cal_walls.append((dt - sampler.wall) * factor)
        cal_cpus.append((cpu - sampler.wall) * factor)
    return results, walls, cpus, cal_walls, cal_cpus, before


def timed_phase(cli, wl, seconds: float, min_passes: int, ref: list | None = None,
                tracer=None):
    """Repeat passes until ``seconds`` have elapsed and at least ``min_passes`` ran.

    Returns (passes, ref): the items of the first pass become the reference
    unless ``ref`` is given; each pass keeps only the indices of its items
    that differ from the reference, so memory does not grow with passes.
    Each pass keeps its raw and calibrated (``cal_``) wall and CPU seconds.
    With a tracer, passes run untraced and traced in the order U T T U U T ...,
    so that a drift in machine speed affects both kinds alike, and the kernel
    is not sampled during calls, so that it adds nothing to the self times.
    """
    import calibrate

    passes = []
    speed = calibrate.seconds_per_kernel(0.1)
    start = time.perf_counter()
    while len(passes) < min_passes or time.perf_counter() - start < seconds:
        traced = tracer is not None and len(passes) % 4 in (1, 2)
        if traced:
            tracer.install()
        try:
            results, walls, cpus, cal_walls, cal_cpus, speed = timed_calls(
                cli, wl.calls(), speed, sample=tracer is None)
        finally:
            if traced:
                tracer.uninstall()
        items = wl.items(results)
        if ref is None:
            ref = items
        passes.append({
            "wall": sum(walls), "cpu": sum(cpus),
            "cal_wall": sum(cal_walls), "cal_cpu": sum(cal_cpus), "cal_calls": cal_walls,
            "items": len(items), "traced": traced,
            "differ": {i for i, (a, b) in enumerate(zip(items, ref)) if a != b},
        })
    return passes, ref


def score(passes: list[dict], check) -> tuple[int, int]:
    """(attempted, failed) items: an item fails in a pass if it failed the check
    on the reference pass or differs from it."""
    attempted = sum(p["items"] for p in passes)
    return attempted, sum(len(p["differ"] | check.failed) for p in passes)


def setup_probes(name: str, seed: int) -> list[float]:
    """Set-up time of fresh processes (import, inputs, warm-up), one per probe."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(seed), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit("error: set-up probe failed")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def machine_info() -> str:
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    llc, level = "unknown", -1
    cache = "/sys/devices/system/cpu/cpu0/cache"
    with contextlib.suppress(OSError):
        for entry in sorted(os.listdir(cache)):
            with contextlib.suppress(OSError, ValueError):
                with open(os.path.join(cache, entry, "level"), encoding="utf-8") as fh:
                    lvl = int(fh.read())
                if lvl > level:
                    with open(os.path.join(cache, entry, "size"), encoding="utf-8") as fh:
                        llc, level = f"L{lvl} {fh.read().strip()}", lvl
    import numpy

    return (f"machine: nproc={os.cpu_count()} cpu={cpu!r} llc={llc!r} "
            f"python={platform.python_version()} numpy={numpy.__version__}")


def per_layer_unit(name: str) -> str:
    """Per-layer values are per traced pass; ratios and trace.* timings are not."""
    if name.startswith("trace."):
        return "ratio" if name.endswith("_frac") else "s"
    for suffix, unit in ((".calls", "calls/pass"), ("_s", "s/pass"), (".bytes", "B/pass")):
        if name.endswith(suffix):
            return unit
    if name.startswith("sweeps.rows."):
        return "rows/pass"
    if name.startswith("counting.theta_even"):
        return "pairs/pass"
    return "ratio"


def run(args) -> int:
    os.makedirs(os.path.join(ROOT, ".bench_work"), exist_ok=True)
    workdir = tempfile.mkdtemp(dir=os.path.join(ROOT, ".bench_work"))
    try:
        if args.setup_probe:
            print(f"{set_up(args.workload, args.seed, workdir)[3]!r}")
            return 0
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.join(ROOT, ".bench_work"))


def measure(args, workdir: str) -> int:
    cli, workloads, wl, _ = set_up(args.workload, args.seed, workdir, serial=args.trace)
    print(machine_info())
    print(f"workload: {wl.name} seed={args.seed} ({workloads.WHY[wl.name]})")
    metrics: dict[str, float] = {}
    if args.trace:
        from tracer import Tracer

        if wl.name == "sweep-theta-om":
            print("note: traced run evaluates sweep-theta-om serially "
                  "(pool workers are invisible to the tracer), untraced passes too")
        tracer = Tracer()
        passes, ref = timed_phase(cli, wl, args.seconds, 2, tracer=tracer)
        traced = [p for p in passes if p["traced"]]
        metrics.update(tracer.summary(len(traced)))
        traced_s = statistics.median(p["cal_wall"] for p in traced)
        untraced_s = statistics.median(p["cal_wall"] for p in passes if not p["traced"])
        metrics["trace.run_cal_s"] = traced_s
        metrics["trace.untraced_run_cal_s"] = untraced_s
        metrics["trace.overhead_frac"] = traced_s / untraced_s - 1.0
        metrics["trace.unaccounted_s"] = (
            statistics.fmean(p["wall"] for p in traced) - metrics["trace.self_total_s"])
    else:
        passes, ref = timed_phase(cli, wl, args.seconds, MIN_PASSES)
        usage = max(resource.getrusage(who).ru_maxrss
                    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
        calls_ms = [dt * 1e3 for p in passes for dt in p["cal_calls"]]
        metrics.update(
            run_cal_s=statistics.median(p["cal_wall"] for p in passes),
            cpu_cal_s=statistics.median(p["cal_cpu"] for p in passes),
            items_per_cal_s=sum(p["items"] for p in passes) / sum(p["cal_wall"] for p in passes),
            call_cal_ms_p50=statistics.median(calls_ms),
            call_cal_ms_p90=statistics.quantiles(calls_ms, n=10, method="inclusive")[8],
            peak_rss_mb=usage / 1024.0,
        )
        wall = [p["wall"] for p in passes]
        print(f"raw: run_s = {statistics.median(wall):.6g} s, "
              f"cpu_s = {statistics.median(p['cpu'] for p in passes):.6g} s, "
              f"items_per_s = {sum(p['items'] for p in passes) / sum(wall):.6g} 1/s, "
              f"speed factor = {sum(p['cal_wall'] for p in passes) / sum(wall):.4g}")

    check = wl.check(ref)
    attempted, failed = score(passes, check)
    if wl.name == "sweep-theta-om" and not args.trace:
        # the same sweep without the pool must give the same bytes
        serial_dir = os.path.join(workdir, "serial")
        os.makedirs(serial_dir)
        serial = workloads.SweepThetaOm(args.seed, serial_dir, parallel=False)
        serial_pass, _ = timed_phase(cli, serial, 0.0, 1, ref)
        s_attempted, s_failed = score(serial_pass, check)
        attempted, failed = attempted + s_attempted, failed + s_failed
        print(f"serial vs pooled: {len(serial_pass[0]['differ'])} differing rows")

    if args.trace:
        metrics.update(check.counters)
    else:
        metrics["setup_s"] = statistics.median(setup_probes(wl.name, args.seed))
        print(f"setup probes: {SETUP_PROBES} fresh processes, median reported")
    print(f"passes: {len(passes)}, calls per pass: {len(wl.calls())}, "
          f"items per pass: {wl.items_per_pass}")
    print(f"counters: {json.dumps(check.counters)}")
    print(f"failed_frac = {failed / attempted:.6g} ({failed} of {attempted} operations)")

    units = {k: (per_layer_unit(k) if args.trace else END_TO_END[k]) for k in metrics}
    for key in sorted(metrics):
        print(f"{key} = {metrics[key]:.6g} {units[key]}")
    correct = failed == 0
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in metrics},
    }))
    return 0 if correct else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("sweep-grid", "sweep-theta-om", "fcs-points"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    raise SystemExit(main())
