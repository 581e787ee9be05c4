"""Benchmark harness: set-up probes, warm-up, timed passes, traced passes.

One process, one closed-loop client: each case starts when the previous
one has finished and been checked.  A pass is one run through the
workload's fixed case list; its wall time is the sum of the case times,
so the checks between cases are not timed.  The reported times are
scaled to the reference host speed with the calibration kernel, sampled
every half second during the passes and once in each set-up probe (see
calibrate.py).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import workloads
from workloads import DEFAULT_SEED, CheckFailed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = HERE / "golden.json"
GOLDEN_RTOL = 1e-12  # physics outputs against the seed commit's values
SETUP_PROBES = 21
CAL_MIN_SAMPLES = 4  # kernel samples behind the speed each pass is scaled by
ACCOUNTING_TOL_S = 1e-6

END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"), ("tol_use_max", "ratio")]


@dataclass
class PassResult:
    attempted: int = 0
    tol_use_max: float = 0.0
    errors: list = field(default_factory=list)  # (case, reason), one per failed case
    outputs: dict = field(default_factory=dict)
    case_seconds: dict = field(default_factory=dict)
    case_cpu: dict = field(default_factory=dict)  # process CPU seconds of each case's run
    cal: list = field(default_factory=list)  # calibration-kernel seconds sampled during the pass

    @property
    def failed(self):
        return len(self.errors)

    @property
    def seconds(self):
        return sum(self.case_seconds.values())


def golden_uses(case, outputs, seed, golden):
    """Each output's distance from the seed commit's value over 1e-12
    (relative above magnitude 1).  Seeded outputs have a recorded value
    only at the default seed."""
    if golden is None or (case.seeded and seed != DEFAULT_SEED):
        return {}
    uses = {}
    for name, value in outputs.items():
        key = f"{case.name}.{name}"
        if key not in golden:
            raise CheckFailed(f"no seed-commit value for {key}")
        ref = golden[key]
        uses[f"{name} vs seed commit"] = abs(value - ref) / (GOLDEN_RTOL * max(1.0, abs(ref)))
    return uses


def run_pass(cases, seed, golden, tracer=None, sampler=None, res=None):
    """Run every case once, adding to ``res`` if given.  A case that raises
    or misses a check is counted as failed and the pass goes on.  The time
    a calibration ``sampler`` spends inside a case is taken out of the
    case's time."""
    res = PassResult() if res is None else res
    for case in cases:
        res.attempted += 1
        paused0 = (sampler.paused_s, sampler.paused_cpu_s) if sampler else (0.0, 0.0)
        t0, cpu0 = time.perf_counter(), time.process_time()
        try:
            raw = case.run() if tracer is None else tracer.run_case(case.run)
        except Exception as exc:  # the pass must go on; record and count it
            res.errors.append((case.name, f"{type(exc).__name__}: {exc}"))
            continue
        finally:
            paused = (sampler.paused_s, sampler.paused_cpu_s) if sampler else (0.0, 0.0)
            res.case_seconds[case.name] = time.perf_counter() - t0 - (paused[0] - paused0[0])
            res.case_cpu[case.name] = time.process_time() - cpu0 - (paused[1] - paused0[1])
        try:
            outputs, uses = case.check(raw)
            uses = {**uses, **golden_uses(case, outputs, seed, golden)}
        except CheckFailed as exc:
            res.errors.append((case.name, f"CheckFailed: {exc}"))
            continue
        res.outputs.update({f"{case.name}.{k}": float(v) for k, v in outputs.items()})
        res.tol_use_max = max(res.tol_use_max, *uses.values(), 0.0)
        missed = sorted(k for k, u in uses.items() if not u <= 1.0)
        if missed:
            res.errors.append((case.name, f"beyond tolerance: {missed}"))
    return res


def measure_setup(args):
    """Fresh-interpreter set-up times, each scaled by the calibration-kernel
    time its probe measures after its set-up.  Returns the median set-up
    time unscaled and scaled.  The first probe, which may compile bytecode,
    is discarded."""
    import calibrate

    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--probe-setup"]
    times, scaled = [], []
    for _ in range(SETUP_PROBES + 1):
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        t, c = map(float, out.stdout.split()[-2:])
        times.append(t)
        scaled.append(calibrate.scaled(t, c))
    return statistics.median(times[1:]), statistics.median(scaled[1:])


def blas_build():
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        return "unknown"


def timed_passes(plan, args, golden):
    """Passes for ``--seconds``, with at least one, under a calibration
    sampler.  Returns the passes and the median kernel time."""
    import calibrate

    passes = []
    start = time.perf_counter()
    with calibrate.Sampler() as sampler:
        while not passes or time.perf_counter() - start < args.seconds:
            i0 = len(sampler.samples)
            passes.append(run_pass(plan.cases, args.seed, golden, sampler=sampler))
            passes[-1].cal = sampler.samples[i0:]
    return passes, sampler.median


def scaled_pass_times(passes, fallback_cal, min_samples=CAL_MIN_SAMPLES):
    """Each pass's time at the reference host speed.  Consecutive passes
    are grouped until a group holds ``min_samples`` kernel samples, and each
    is scaled by its group's median sample, so that the host speed is read
    close in time to the work but not from one noisy sample.  A last group
    short of samples joins the one before; a run with no sample inside its
    passes uses ``fallback_cal``."""
    import calibrate

    groups = [[]]
    for p in passes:
        if sum(len(q.cal) for q in groups[-1]) >= min_samples:
            groups.append([])
        groups[-1].append(p)
    if len(groups) > 1 and sum(len(q.cal) for q in groups[-1]) < min_samples:
        last = groups.pop()
        groups[-1] += last
    times = []
    for group in groups:
        cal = [c for p in group for c in p.cal]
        c = statistics.median(cal) if cal else fallback_cal
        times += [calibrate.scaled(p.seconds, c) for p in group]
    return times


def traced_rounds(plan, args, golden, outdir):
    """Rounds of an untraced and a traced pass, for ``--seconds``.  The two
    passes alternate case by case, so that each case runs traced right after
    it ran untraced and a drift in host speed mostly cancels out of
    ``trace.overhead_s``.  Returns the passes, the per-layer metrics of each
    round and the worst gap of the self-time accounting."""
    import calibrate
    import tracer as tr

    passes, rounds, worst = [], [], 0.0
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < args.seconds:
        t = tr.Tracer()
        t.install()
        try:
            traced_plan = t.run_case(lambda: workloads.build(args.workload, args.seed, outdir), tr.SETUP)
        finally:
            t.uninstall()
        plain, traced, sampler = PassResult(), PassResult(), calibrate.Sampler()
        for case, traced_case in zip(plan.cases, traced_plan.cases):
            with sampler:
                run_pass([case], args.seed, golden, sampler=sampler, res=plain)
            t.install()
            try:
                run_pass([traced_case], args.seed, golden, tracer=t, res=traced)
            finally:
                t.uninstall()
        metrics, residual = tr.analyse(t)
        metrics["trace.overhead_s"] = traced.seconds - plain.seconds
        metrics["proc.cpu_s"] = sum(plain.case_cpu.values())
        metrics["proc.cal_s"] = sampler.median
        passes += [plain, traced]
        rounds.append(metrics)
        worst = max(worst, residual)
    t.save(os.path.join(outdir, "spans.npz"))
    return passes, rounds, worst


def parse_args(argv):
    ap = argparse.ArgumentParser(prog="perfbench", description=__doc__)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)  # run_seconds in BENCHMARK.json
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--record-golden", action="store_true",
                    help="write this workload's outputs at the default seed to golden.json")
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "edgeflow" / "__init__.py").is_file():
        print(f"perfbench: no edgeflow sources in {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    outdir = str(ROOT / ".perfbench_out" / args.workload)
    os.makedirs(outdir, exist_ok=True)

    if args.probe_setup:
        t0 = time.perf_counter()
        workloads.build(args.workload, args.seed, outdir)
        setup = time.perf_counter() - t0
        import calibrate

        calibrate.sample()  # the first call pays one-off costs
        print(setup, statistics.median(calibrate.sample() for _ in range(3)))
        return 0

    import edgeflow

    if not Path(edgeflow.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"perfbench: imported edgeflow from {edgeflow.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.record_golden and args.seed != DEFAULT_SEED:
        print("perfbench: record golden values at the default seed", file=sys.stderr)
        return 1
    golden_all = json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else {}
    golden = None if args.record_golden else golden_all.get(args.workload, {})

    setup = measure_setup(args) if args.trace == 0 and not args.record_golden else None
    plan = workloads.build(args.workload, args.seed, outdir)
    for argv_ in plan.warmup:
        workloads.run_cli(argv_, outdir)

    if args.record_golden:
        res = run_pass(plan.cases, args.seed, None)
        golden_all[args.workload] = res.outputs
        GOLDEN.write_text(json.dumps(golden_all, indent=1, sort_keys=True) + "\n")
        print(f"recorded {len(res.outputs)} outputs; failed {res.failed}: {res.errors}")
        return 0 if res.failed == 0 else 2

    if args.trace == 0:
        passes, cal = timed_passes(plan, args, golden)
        metrics = {
            "wall_s": statistics.median(scaled_pass_times(passes, cal)),
            "setup_s": setup[1],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "tol_use_max": max(p.tol_use_max for p in passes),
        }
        units = dict(END_TO_END)
        accounting_ok = True
        host = {  # the figures before scaling to the reference host speed
            "unscaled_wall_s": statistics.median(p.seconds for p in passes),
            "unscaled_setup_s": setup[0], "calibration_kernel_s": cal,
        }
    else:
        import tracer as tr

        passes, rounds, residual = traced_rounds(plan, args, golden, outdir)
        metrics = {name: statistics.median(r[name] for r in rounds) for name, _ in tr.PER_LAYER}
        units = dict(tr.PER_LAYER)
        host = {}
        accounting_ok = residual <= ACCOUNTING_TOL_S
        if not accounting_ok:
            print(f"perfbench: self times miss a case's wall time by {residual:.3g} s", file=sys.stderr)

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    errors = sorted({e for p in passes for e in p.errors})
    for case, reason in errors:
        print(f"perfbench: case {case} failed: {reason}", file=sys.stderr)
    context = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "passes": len(passes),
        "nproc": os.cpu_count(), "blas": blas_build(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "edgeflow_threads": os.environ.get("EDGEFLOW_THREADS"), **host,
    }
    print("# " + json.dumps(context))
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(f"fail_ratio = {failed / attempted:.6g} ({failed} of {attempted} cases)")
    result = {
        "correct": failed == 0 and accounting_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    with open(os.path.join(outdir, f"result_trace{args.trace}.json"), "w") as f:
        json.dump({**result, "context": context, "inputs": plan.inputs, "fail_ratio": failed / attempted,
                   "errors": errors,
                   "case_seconds": [p.case_seconds for p in passes]}, f, indent=1)
    print(json.dumps(result))
    return 0
