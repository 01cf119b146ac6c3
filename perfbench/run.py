"""Benchmark for rmoamp: seeded trials through run_experiment and sweep.

Run from the repository root (the package is imported from ``src/``):

    python3 perfbench/run.py --workload sweep-grid --seed 1 --seconds 55 \
        --trace 0

Each run is one process, one caller, closed loop: it repeats the workload's
pass (one ``run_experiment`` or ``sweep`` call, see workloads.py) back to back
for about ``--seconds``.  The first pass of a run warms caches and lazy
imports and is not timed; it counts against ``--seconds``.  BLAS runs on one
thread, so a run keeps one core busy at a time (the bridge child runs while
its caller waits) and leaves the rest of a small shared host alone.

``--trace 0`` times untraced passes and reports the end-to-end metrics.
Set-up time is measured by starting a fresh interpreter several times, each
importing rmoamp and building the inputs; these starts count against
``--seconds`` too.  ``--trace 1`` spends half the time on untraced passes
and half on traced ones (see tracing.py) and reports the per-layer metrics
of the traced passes.

A trial counts as failed when it raised, its trace has an error or a faulted
iteration, its estimate is not finite, its PSNR differs in any bit from the
first untraced pass (determinism and tracing neutrality), or a workload
check fails.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The environment,
every pass, every failure and the spans go to
``.bench_out/<workload>-seed<seed>-trace<0|1>.json``.  The exit code is 1
when a check fails and 2 when the current directory holds no
``src/rmoamp``.
"""

import argparse
import json
import math
import numbers
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

OUT_DIR = ".bench_out"
SETUP_RUNS = 5
IMPROVING_DB = 0.01
SAMPLER_PRIORS = ("flow-matching", "ddim")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: one fresh-interpreter set-up, timed by the parent run
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "rmoamp", "__init__.py")):
        print("perfbench: no src/rmoamp in the current directory; run from "
              "the repository root", file=sys.stderr)
        return 2
    # before numpy loads; children (set-up probes, bridge server) inherit it
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)
    sys.path.insert(0, src)

    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        if args.setup_probe:
            WORKLOADS[args.workload](args.seed, workdir)
            print(repr(time.time()))
            return 0
        return run(args, WORKLOADS[args.workload], workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure_setup(args):
    """Seconds from spawning an interpreter to its inputs being ready."""
    argv = [sys.executable, os.path.abspath(__file__), "--setup-probe",
            "--workload", args.workload, "--seed", str(args.seed)]
    samples = []
    for _ in range(SETUP_RUNS):
        t0 = time.time()
        out = subprocess.run(argv, capture_output=True, text=True,
                             check=True, timeout=120)
        samples.append(float(out.stdout.split()[-1]) - t0)
    return samples


class Pass:
    def __init__(self, seconds, reports, spans=None):
        self.seconds = seconds
        self.reports = reports
        self.spans = spans
        self.trials = [t for r in reports for t in r.trials]


def timed_passes(workload, budget, at_least, tracer=None):
    """Repeat the workload's pass until another would overrun the budget.

    One untimed warm-up pass comes first (traced too when ``tracer`` is
    installed, so the traced passes start warm as well); its time counts
    against the budget.
    """
    passes = []
    start = time.perf_counter()
    workload.run_pass()
    while True:
        first = len(tracer.spans) if tracer else 0
        t0 = time.perf_counter()
        reports = workload.run_pass()
        seconds = time.perf_counter() - t0
        spans = range(first, len(tracer.spans)) if tracer else None
        passes.append(Pass(seconds, reports, spans))
        typical = statistics.median(p.seconds for p in passes)
        if (len(passes) >= at_least
                and time.perf_counter() - start + typical > budget):
            return passes


def trial_fault(result, record):
    if result.error:
        return f"error: {result.error}"
    if record is None:
        return "no trace was collected"
    _, _, trace, estimate = record
    if trace.error:
        return f"trace error: {trace.error}"
    faults = [r.fault for r in trace.records if r.fault]
    if faults:
        return f"{len(faults)} faulted iterations, first: {faults[0]}"
    import numpy as np
    if not np.all(np.isfinite(estimate.values)):
        return "non-finite estimate"
    return None


def find_failures(workload, passes, log):
    """{(pass index, trial position): reason} for every failed trial."""
    failures = {}
    reference = [repr(t.psnr) for t in passes[0].trials]
    for k, p in enumerate(passes):
        for i, t in enumerate(p.trials):
            reason = trial_fault(t, log.get(t))
            if reason is None and (i >= len(reference)
                                   or repr(t.psnr) != reference[i]):
                reason = (f"PSNR {t.psnr!r} differs from the first untraced "
                          f"pass{' (traced)' if p.spans is not None else ''}")
            if reason:
                failures[k, i] = reason
        for i, reason in workload.check(p.reports):
            for j in (range(len(p.trials)) if i is None else [i]):
                failures.setdefault((k, j), reason)
    return failures


def end_to_end(plain, setup, rss_mib, ok_frac):
    first = plain[0].trials
    trials = [t for p in plain for t in p.trials]
    return {
        "run_s": ("s", statistics.median(p.seconds for p in plain),
                  f"median of {len(plain)} passes"),
        "trial_s_p50": ("s", statistics.median(t.wall_time for t in trials),
                        f"median of {len(trials)} trials"),
        "setup_s": ("s", statistics.median(setup),
                    f"median of {len(setup)} fresh interpreters"),
        "peak_rss_mb": ("MiB", rss_mib, "this process, ru_maxrss"),
        "psnr_db": ("dB", statistics.fmean(t.psnr for t in first),
                    f"mean of {len(first)} trials"),
        "ok_frac": ("frac", ok_frac, "trials without a failure / attempted"),
    }


def receiver_counts(p, log, zero_psnr):
    """Iterations, improving iterations, faults, sampler NFE and SSIM of a
    pass, from the logged traces and the reports."""
    iterations = improving = faults = 0
    for t in p.trials:
        record = log.get(t)
        if record is None:
            continue
        cfg, _, trace, _ = record
        previous = zero_psnr(cfg.source)
        for r in trace.records:
            iterations += 1
            improving += r.psnr > previous + IMPROVING_DB
            previous = r.psnr
            faults += r.fault is not None
        faults += trace.error is not None
    nfe = sum(t.nfe for r in p.reports
              if r.config.prior.get("kind") in SAMPLER_PRIORS
              for t in r.trials)
    # SSIM exists only for sources with image geometry (NaN otherwise)
    ssims = [t.ssim for t in p.trials if math.isfinite(t.ssim)]
    return {"receiver.iterations": ("count", iterations),
            "receiver.improving_iter_frac": (
                "frac", improving / iterations if iterations else 0.0),
            "receiver.faults": ("count", faults),
            "diffusion.nfe": ("count", nfe),
            "metrics.ssim_mean": (
                "1", statistics.fmean(ssims) if ssims else 0.0)}


def per_layer(plain, traced, tracer, log):
    import numpy as np
    from rmoamp.metrics import psnr
    from rmoamp.sources import load_source
    from tracing import layer_metrics

    zero = {}

    def zero_psnr(source):
        # PSNR of the receiver's all-zero starting estimate
        key = json.dumps(source, sort_keys=True)
        if key not in zero:
            truth = load_source(source).values
            zero[key] = psnr(truth, np.zeros_like(truth))
        return zero[key]

    per_pass = []
    for p in traced:
        spans = {i: tracer.spans[i] for i in p.spans}
        metrics = layer_metrics(spans, tracer.missing)
        metrics.update(receiver_counts(p, log, zero_psnr))
        per_pass.append(metrics)
    out = {}
    for name, (unit, _) in per_pass[0].items():
        values = [m[name][1] for m in per_pass]
        value = None if None in values else statistics.median(values)
        out[name] = (unit, value, f"median of {len(per_pass)} traced passes")
    overhead = (statistics.median(p.seconds for p in traced)
                - statistics.median(p.seconds for p in plain))
    out["benchmark.trace_overhead_s"] = (
        "s", overhead, "traced run_s - untraced run_s")
    return out


def environment(args):
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "cpu_count": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"])}


def run(args, workload_cls, workdir):
    from tracing import Patches, Tracer, TrialLog
    t_start = time.perf_counter()
    setup = [] if args.trace else measure_setup(args)
    budget = args.seconds - (time.perf_counter() - t_start)
    patches = Patches()
    log = TrialLog(patches)
    tracer = None
    try:
        workload = workload_cls(args.seed, workdir)
        if args.trace:
            plain = timed_passes(workload, budget / 2, 1)
            tracer = Tracer(patches)
            tracer.install()
            traced = timed_passes(workload, budget / 2, 1, tracer)
        else:
            plain = timed_passes(workload, budget, 2)
            traced = []
    finally:
        patches.restore()
    # before the checks, which run the bridge workload's in-process reference
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    failures = find_failures(workload, plain + traced, log)
    attempted = sum(len(p.trials) for p in plain + traced)
    if args.trace:
        metrics = per_layer(plain, traced, tracer, log)
    else:
        metrics = end_to_end(plain, setup, rss_mib,
                             1.0 - len(failures) / attempted)

    env = environment(args)
    print("environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, (unit, value, note) in metrics.items():
        shown = "unmeasured" if value is None else f"{value:.6g}"
        print(f"{name:30s} {shown:>12s} {unit:6s} {note}")
    for (k, i), reason in sorted(failures.items()):
        print(f"FAILED pass {k} trial {i}: {reason}")

    record = {
        "environment": env,
        "setup_s_samples": setup,
        "passes": [{"traced": p.spans is not None, "seconds": p.seconds,
                    "trials": [{"psnr": t.psnr, "ssim": t.ssim,
                                "iterations": t.iterations, "nfe": t.nfe,
                                "wall_time": t.wall_time, "error": t.error}
                               for t in p.trials]}
                   for p in plain + traced],
        "failures": [[k, i, reason] for (k, i), reason in failures.items()],
        "metrics": {n: {"value": v, "unit": u, "note": note}
                    for n, (u, v, note) in metrics.items()},
        "unmeasured_wrap_points": sorted(tracer.missing) if tracer else [],
        "spans": tracer.dump(t_start) if tracer else [],
    }
    path = os.path.join(
        OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, default=float)

    result = {"correct": not failures, "attempted": attempted,
              "failed": len(failures),
              "metrics": {n: {"value": _finite(v), "unit": u}
                          for n, (u, v, _) in metrics.items()}}
    print(json.dumps(result))
    return 0 if not failures else 1


def _finite(value):
    # JSON has no NaN; a value that is not a finite number is unmeasured
    if isinstance(value, numbers.Real) and math.isfinite(value):
        return value
    return None


if __name__ == "__main__":
    sys.exit(main())
