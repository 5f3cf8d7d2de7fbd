"""delayheom benchmark: four workloads, end-to-end metrics, traced per-layer metrics.

Run from the repository root; the program is imported from ``src/``::

    python3 benchmarks/run.py                  # every workload, untraced, then traced
    python3 benchmarks/run.py --workload sweep --seed 3 --seconds 15 --trace 0

One run of a workload:

1. a warm-up pass, under ``tracemalloc`` when untraced (``peak_mem_mb``);
2. passes back to back for ``--seconds`` (closed loop, one caller).
   With ``--trace 0`` each pass is followed by the set-up of a pass,
   repeated ``SETUP_REPEATS`` times, and by one reference loop; ``wall_s``
   and ``setup_s`` are medians in reference-machine seconds (see
   :func:`reference_seconds`).  With ``--trace 1`` untraced and traced
   passes alternate, each followed by a reference loop; the per-layer
   metrics are medians over the traced ones, times in reference-machine
   seconds as well.

Every operation's output is checked outside the timed region.  The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Spans of traced passes are
written to ``.bench_out/``.
"""

from __future__ import annotations

import os

# the matmuls are at most 6x6: BLAS/OpenMP threads only add contention
BLAS_THREADS = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_REPEATS = 10  # after every untraced pass
MIN_PASSES = 3
#: the reference loop's time on the reference machine when it is quiet
#: (2 vCPU Intel Xeon at 2.0 GHz, Python 3.11.7, NumPy 2.4.6)
REFERENCE_NOMINAL_S = 0.09

TIME_UNITS = ("s", "us/step")  # scaled to reference-machine seconds
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_mem_mb": "MB", "oracle_dev": "1"}
WORKLOAD_NAMES = ("presets", "fine_grid", "sweep", "crosscheck")


def _import_program():
    """Import delayheom from this checkout's ``src/``, never from elsewhere."""
    if not (SRC / "delayheom" / "__init__.py").is_file():
        sys.exit(f"benchmark: no program source at {SRC / 'delayheom'}")
    sys.path.insert(0, str(SRC))
    import delayheom

    if Path(delayheom.__file__).resolve().parent != SRC / "delayheom":
        sys.exit(f"benchmark: imported delayheom from {delayheom.__file__}, not {SRC}")


def _pin_cpu():
    """Keep the process on one CPU; return it (None where the OS cannot pin).

    The two CPUs of the reference machine ran at speeds up to 1.5x apart
    under neighbours' load, so a process the scheduler moves between them
    measures the move, not the program.
    """
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def _environment(cpu):
    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "nproc": os.cpu_count(),
        "blas": blas.get("name"),
        "blas_threads": int(BLAS_THREADS),
        "pinned_cpu": cpu,
    }


def reference_seconds(steps=8000, vector_steps=2000):
    """Time a fixed loop of the two kinds of NumPy work the workloads do.

    The first loop does what a hierarchy step does -- small gathers, a 4x4
    matmul, a conjugate and a scatter under the interpreter -- and the
    second what a bath-oracle step does: elementwise work on 4096-element
    vectors.  Neither shares code with the program.  On the shared
    reference machine the speed of everything running on a CPU swings by
    up to 1.8x within tens of seconds, invisibly from inside (no steal
    time).  Timing this loop next to every pass measures that swing, so a
    pass time divided by it, times ``REFERENCE_NOMINAL_S``, is the pass
    time on the quiet machine.
    """
    rng = np.random.default_rng(0)
    ring = np.exp(2j * np.pi * rng.random((64, 64, 4)))
    unitary = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))[0]
    rows = np.arange(40)
    vec = np.exp(2j * np.pi * rng.random(4096))
    phase = np.exp(1j * rng.random(4096))
    t0 = time.perf_counter()
    for i in range(steps):
        v = ring[rows, i % 64, :]
        ring[rows, (i + 1) % 64, :] = (v @ unitary).conj()  # stays on the unit circle
    for _ in range(vector_steps):
        vec = (vec * phase).conj()
        np.abs(vec).sum()
    return time.perf_counter() - t0


def _run_pass(ops, outdir, tracer=None):
    """Run every operation once; return (wall seconds, outcomes).

    A raised exception is that operation's outcome, so one failure does
    not stop the pass.
    """
    outcomes = []
    t0 = time.perf_counter()
    for i, op in enumerate(ops):
        try:
            if tracer is None:
                outcomes.append(op.run(outdir))
            else:
                with tracer.span(op.name, op=f"{i}:{op.name}"):
                    outcomes.append(op.run(outdir))
        except Exception as e:  # counted as a failed operation by Tally
            outcomes.append(e)
    return time.perf_counter() - t0, outcomes


def _setup_seconds(ops):
    t0 = time.perf_counter()
    for op in ops:
        op.setup()
    return time.perf_counter() - t0


def _measure(ops, outdir, seconds, tally, tracer=None):
    """Passes back to back for ``seconds``, each followed by a reference loop.

    Untraced runs repeat the set-up after every pass; with a tracer every
    second pass is traced.  Returns the passes as ``(seconds, traced,
    scale)``, where ``scale`` turns a time measured during the pass into
    reference-machine seconds, and the scaled set-up times.
    """
    passes, setup = [], []
    before = reference_seconds()
    deadline = time.perf_counter() + seconds
    while True:
        n_traced = sum(1 for p in passes if p[1])
        n_untraced = len(passes) - n_traced
        if (time.perf_counter() >= deadline and n_untraced >= MIN_PASSES
                and (tracer is None or n_traced >= MIN_PASSES)):
            break
        traced = tracer is not None and n_traced < n_untraced
        if traced:
            with tracer.installed():
                wall, outcomes = _run_pass(ops, outdir, tracer)
        else:
            wall, outcomes = _run_pass(ops, outdir)
        for op, outcome in zip(ops, outcomes):
            tally.record(op, outcome)
        # spread over the whole run, like the passes, not in one burst
        reps = [] if tracer else [_setup_seconds(ops) for _ in range(SETUP_REPEATS)]
        after = reference_seconds()
        passes.append((wall, traced, REFERENCE_NOMINAL_S / (0.5 * (before + after))))
        setup += [s * REFERENCE_NOMINAL_S / after for s in reps]
        before = after
    return passes, setup


def run_workload(workload, seed, seconds, trace, env):
    """One benchmark run; returns (result dict, lines to print, spans)."""
    import tracing
    import workloads

    ops, inputs = workloads.make_ops(workload, seed)
    tally = workloads.Tally()
    tracer = tracing.Tracer()
    OUT.mkdir(exist_ok=True)
    outdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT)
    try:
        if not trace:
            tracemalloc.start()
        _, outcomes = _run_pass(ops, outdir)
        if not trace:
            peak_mb = tracemalloc.get_traced_memory()[1] / 1e6
            tracemalloc.stop()
        for op, outcome in zip(ops, outcomes):
            tally.record(op, outcome)
        passes, setup = _measure(ops, outdir, seconds, tally, tracer if trace else None)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)

    walls = [w for w, traced, _ in passes if not traced]
    wall_s = statistics.median(w * scale for w, traced, scale in passes if not traced)
    lines = [
        f"workload {workload} seed {seed} trace {int(trace)}: "
        f"{len(walls)} untraced passes of {len(ops)} operations",
        f"inputs {json.dumps({'seed': seed, **inputs})}",
        f"env {json.dumps(env)}",
        f"pass_s {' '.join(f'{w:.4f}' for w in walls)} (raw, untraced)",
        f"speed {' '.join(f'{scale:.3f}' for _, _, scale in passes)} "
        f"(reference loop: {REFERENCE_NOMINAL_S} s / measured, per pass)",
    ]
    lines += [f"check failed: {r}" for r in tally.reasons[:10]]
    if not trace:
        values = {"wall_s": wall_s, "setup_s": statistics.median(setup),
                  "peak_mem_mb": peak_mb, "oracle_dev": tally.oracle_dev}
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
        lines += [f"{k} {m['value']:.6g} {m['unit']}" for k, m in metrics.items()]
        lines.append(f"error_rate {tally.failed / tally.attempted:.6g} failed/attempted "
                     f"({tally.failed}/{tally.attempted})")
        lines.append(f"raw median pass {statistics.median(walls):.6g} s")
    else:
        # every traced run reports the same keys: one per K any workload uses
        engine_ks = sorted({op.K for name in WORKLOAD_NAMES
                            for op in workloads.make_ops(name, seed)[0] if op.K is not None})
        scales = [scale for _, traced, scale in passes if traced]
        per_pass = [
            {name: (value * scale if unit in TIME_UNITS else value, unit)
             for name, (value, unit) in tracing.layer_metrics(spans, engine_ks).items()}
            for spans, scale in zip(tracing.split_passes(tracer.spans), scales)
        ]
        traced_s = statistics.median(w * scale for w, traced, scale in passes if traced)
        metrics = {
            name: {"value": statistics.median(p[name][0] for p in per_pass), "unit": unit}
            for name, (_, unit) in per_pass[0].items()
        }
        metrics["trace.overhead_s"] = {"value": traced_s - wall_s, "unit": "s"}
        lines += [f"{k} {m['value']:.6g} {m['unit']}" for k, m in metrics.items()]
        lines.append("kernel: not on any execution path, so not measured")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    spans = {"workload": workload, "seed": seed, "env": env, "spans": tracer.spans}
    return result, lines, spans


def _write_spans(spans):
    path = OUT / f"spans-{spans['workload']}-seed{spans['seed']}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(spans, fh)
    return path


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=("all",) + WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from traced passes (ignored with 'all')")
    args = parser.parse_args(argv)
    env = _environment(_pin_cpu())
    _import_program()

    if args.workload != "all":
        runs = [(args.workload, bool(args.trace))]
    else:
        runs = [(w, t) for t in (False, True) for w in WORKLOAD_NAMES]
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name, trace in runs:
        result, lines, spans = run_workload(name, args.seed, args.seconds, trace, env)
        print("\n".join(lines))
        if trace:
            print(f"spans written to {_write_spans(spans).relative_to(ROOT)}")
        print(flush=True)
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            summary["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(result if len(runs) == 1 else summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
