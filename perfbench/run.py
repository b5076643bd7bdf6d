"""Layered benchmark for lingermort.

    python3 perfbench/run.py --workload fit-small --seed 1 --seconds 12 --trace 0

Run from the repository root; the package is imported from ``src/``.  One
process is one client in a closed loop: it sets up the workload's inputs
from the seed in several blocks of back-to-back set-ups (the set-up time is
the median block mean), then runs operations back to back until
``--seconds`` have passed, then checks every output.  BLAS runs on one thread.  stdout carries one digest line per
operation and, last, one JSON object with the counts and metrics that
BENCHMARK.json declares: the end-to-end metrics with ``--trace 0``, the
per-layer metrics from spans around each layer's public functions with
``--trace 1``.  Every run first checks the checks (selftest.py) and
measures nothing if a checker gives a wrong verdict.
"""

import os
import sys

# must precede the first numpy import to take effect
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: set-ups before the timed loop: SETUP_BLOCKS blocks of SETUP_BLOCK_REPS
#: back to back; setup_s is the median of the block means
SETUP_BLOCKS = 5
SETUP_BLOCK_REPS = 10
N_SETUPS = SETUP_BLOCKS * SETUP_BLOCK_REPS
#: per-operation figures from the checks, averaged into per-layer metrics
QUALITY = {"ll_gain": "estimation.fit.ll_gain",
           "se_finite_share": "estimation.fit.se_finite_share",
           "ensemble_bytes": "projection.ensemble_bytes"}


def _declared():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def _metrics(values, units):
    if set(values) != set(units):
        raise RuntimeError("metrics differ from BENCHMARK.json: "
                           f"{sorted(set(values) ^ set(units))}")
    return {k: {"value": values[k], "unit": units[k]} for k in sorted(units)}


def _environment():
    import importlib.util
    import platform

    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": {v: os.environ[v] for v in
                             ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                              "MKL_NUM_THREADS")},
            "nproc": os.cpu_count(), "machine": platform.machine(),
            "numba": importlib.util.find_spec("numba") is not None}


def _emit(line):
    print(json.dumps(line, sort_keys=True, default=float), flush=True)


def run(args):
    import spans
    import workloads

    end_to_end, per_layer = _declared()
    _emit({"env": _environment(), "workload": args.workload, "seed": args.seed,
           "seconds": args.seconds, "trace": args.trace})
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    tracer = spans.Tracer() if args.trace else None
    wl = workloads.WORKLOADS[args.workload](tracer)
    try:
        if tracer is not None:
            tracer.install()
        setup_times = []
        for block in range(SETUP_BLOCKS):
            dirs = [workdir / f"setup{block}-{i}" for i in range(SETUP_BLOCK_REPS)]
            for d in dirs:
                d.mkdir(parents=True)
            t0 = time.perf_counter()
            for d in dirs:
                state = wl.setup(str(d), args.seed)
            setup_times.append((time.perf_counter() - t0) / SETUP_BLOCK_REPS)
        if tracer is not None:
            setup_spans, tracer.spans = tracer.spans, []

        opdir = workdir / "ops"
        opdir.mkdir()
        outs, op_times, errors = [], [], []
        begin = time.perf_counter()
        while True:
            rep = len(outs)
            t0 = time.perf_counter()
            with wl.span("bench.op"):
                try:
                    outs.append(wl.op(state, rep, str(opdir)))
                    op_times.append(time.perf_counter() - t0)
                except Exception as exc:  # a failed operation is counted
                    outs.append(None)
                    op_times.append(None)
                    errors.append(f"op {rep}: {type(exc).__name__}: {exc}")
            if time.perf_counter() - begin >= args.seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        # checks run after the timed loop, untraced, so that neither their
        # time nor their memory is counted against the program
        if tracer is not None:
            tracer.paused = True
        failed = 0
        quality = {}
        for rep, out in enumerate(outs):
            if out is None:
                failed += 1
                _emit({"op": rep, "failures": [e for e in errors
                                               if e.startswith(f"op {rep}:")]})
                continue
            try:
                fails, digest, q = wl.check(state, out)
            except Exception as exc:
                fails, digest, q = [f"check raised {type(exc).__name__}: {exc}"], {}, {}
            failed += bool(fails)
            errors += [f"op {rep}: {f}" for f in fails]
            for k, v in q.items():
                quality.setdefault(k, []).append(v)
            _emit({"op": rep, "seconds": op_times[rep], "failures": fails,
                   "digest": digest})
        for line in errors:
            print(f"FAILED {line}", file=sys.stderr)
        timed = [t for t in op_times if t is not None]
        op_s = statistics.median(timed) if timed else None

        if args.trace:
            op_spans = tracer.spans
            values = spans.layer_metrics(op_spans, len(outs), sum(timed) or 1.0,
                                         spans.per_span_cost())
            values["panel.load_canonical_csv.s"] = sum(
                sp.duration for sp in setup_spans
                if sp.name == "panel.load_canonical_csv") / N_SETUPS
            values["trace.op_s"] = op_s or 0.0
            values["bench.failed_share"] = failed / len(outs)
            for key, name in QUALITY.items():
                values[name] = statistics.fmean(quality[key]) if quality.get(key) else 0.0
            metrics = _metrics(values, per_layer)
            out_dir = ROOT / ".perfbench_out"
            out_dir.mkdir(exist_ok=True)
            tracer.write(out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl",
                         setup_spans)
        else:
            metrics = _metrics({"op_s": op_s,
                                "setup_s": statistics.median(setup_times),
                                "peak_rss_mb": peak_rss_mb}, end_to_end)
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run's scratch directory is still there
            pass
    _emit({"correct": failed == 0, "attempted": len(outs), "failed": failed,
           "metrics": metrics})
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if not (SRC / "lingermort" / "__init__.py").is_file():
        print(f"perfbench: no lingermort package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    warnings.simplefilter("ignore", RuntimeWarning)
    import selftest
    import workloads
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    verdicts, problems = selftest.run_selftest()
    _emit({"selftest": verdicts})
    if problems:
        print(f"perfbench: checkers gave wrong verdicts: {problems}", file=sys.stderr)
        return 1
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
