"""hdrpcal benchmark: one workload per run, closed loop, one client.

Usage (from the repository root):

    python3 perfbench/run.py --workload cli_workflow --seed 1 --seconds 35 --trace 0

The run imports hdrpcal from ``src/`` next to this directory, makes the
workload's inputs from ``--seed``, runs one discarded warm-up iteration,
then times iterations back to back until ``--seconds`` of measured time
have passed, checking every iteration's outputs.  With ``--trace 0`` the
last line of standard output is a JSON object with the end-to-end metrics;
with ``--trace 1`` it holds the per-layer metrics of a separate traced
repeat of the first measured iteration.  The full record (per-iteration
times, checks, hashes, context and, when traced, every span) is written to
``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3
TRACE_REPEATS = 2


def _limit_blas_threads() -> int:
    """Cap BLAS/OpenMP threads at the CPUs this process may use."""
    cpus = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        value = os.environ.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= cpus:
            os.environ[var] = str(cpus)
    return cpus


def _blas_threads(numpy) -> int | None:
    """Threads the bundled OpenBLAS reports, if it can be asked."""
    for lib in glob.glob(os.path.join(os.path.dirname(numpy.__file__) + ".libs",
                                      "*openblas*")):
        try:
            dll = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(dll, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def _context(cpus: int, numpy, scipy) -> dict:
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": cpus,
            "blas_threads": _blas_threads(numpy),
            "blas_env": {v: os.environ[v] for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
            "machine": platform.machine(), "git_commit": _git_commit(),
            "load": "closed loop, one client, one process, no added threads"}


def _iterate(wl, inp, out: Path, tracer=None) -> dict:
    """Run and check one iteration; a raise or a failed check is a failure."""
    start = time.perf_counter()
    try:
        if tracer is not None:
            tracer.active = True
        try:
            res = wl.run(inp, out)
        finally:
            if tracer is not None:
                tracer.active = False
        wall = time.perf_counter() - start
        failures, quality, hashes = wl.check(inp, res)
    except Exception:  # the run must go on and report the failure
        wall = time.perf_counter() - start
        failures, quality, hashes = [traceback.format_exc()], {}, {}
    for failure in failures:
        print(f"perfbench: {wl.name}: {failure}", file=sys.stderr)
    return {"wall_s": wall, "failures": failures, "quality": quality,
            "hashes": hashes}


def _median(values):
    return statistics.median(values) if values else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    t_import = time.perf_counter()
    cpus = _limit_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import numpy
        import scipy
        import hdrpcal
        import spans as tracing
        import workloads
    except ImportError as exc:
        print(f"perfbench: cannot import hdrpcal from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    if Path(hdrpcal.__file__).resolve().parent != ROOT / "src" / "hdrpcal":
        print(f"perfbench: hdrpcal imported from {hdrpcal.__file__}, "
              f"not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - t_import
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 64
    wl = workloads.WORKLOADS[args.workload]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    context = json.loads((HERE / "context.json").read_text())
    work = HERE / "work" / f"{wl.name}-{os.getpid()}"
    try:
        record = _measure(wl, args, work, import_s, tracing)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record["context"] = _context(cpus, numpy, scipy)
    record["workload_context"] = context["workloads"][wl.name]
    record["notes"] = context["notes"]
    return _report(record, spec, args)


def _measure(wl, args, work: Path, import_s: float, tracing) -> dict:
    # Set-up: inputs of the first measured iterations, timed one by one.
    inputs, gen_s = {}, []
    for index in range(1, SETUP_REPEATS + 1):
        start = time.perf_counter()
        inputs[index] = wl.prepare(args.seed, index, work / f"in{index}", warmup=False)
        gen_s.append(time.perf_counter() - start)
    setup_s = import_s + statistics.median(gen_s)

    # Warm-up at reduced size: same code paths, discarded from task_s.
    warm_in = wl.prepare(args.seed, 0, work / "in0", warmup=True)
    warmup = [_iterate(wl, warm_in, work / "out0")]
    shutil.rmtree(work / "out0", ignore_errors=True)

    measured, index, elapsed = [], 1, 0.0
    while elapsed < args.seconds or not measured:
        if index not in inputs:
            inputs[index] = wl.prepare(args.seed, index, work / f"in{index}", warmup=False)
        result = _iterate(wl, inputs[index], work / f"out{index}")
        if index > 1:
            shutil.rmtree(work / f"in{index}", ignore_errors=True)
            inputs.pop(index)
        shutil.rmtree(work / f"out{index}", ignore_errors=True)
        measured.append(result)
        elapsed += result["wall_s"]
        index += 1

    record = {"workload": wl.name, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "import_s": import_s,
              "setup_gen_s": gen_s, "setup_s": setup_s, "warmup": warmup, "measured": measured,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if args.trace:
        record["traced"] = _traced(wl, inputs[1], work, measured[0], tracing)
    return record


def _traced(wl, inp, work: Path, untraced: dict, tracing) -> dict:
    """Repeat the first measured iteration with every binding wrapped, then
    once more unwrapped, so the traced repeats sit between two untraced runs
    of the same inputs."""
    tracer = tracing.Tracer()
    bindings = tracer.install()
    reps = []
    try:
        for rep in range(TRACE_REPEATS):
            tracer.spans = []
            result = _iterate(wl, inp, work / f"trace{rep}", tracer)
            shutil.rmtree(work / f"trace{rep}", ignore_errors=True)
            result["spans"] = tracer.spans
            result["layers"] = tracing.layer_metrics(tracer.spans)
            reps.append(result)
    finally:
        tracer.uninstall()
    again = _iterate(wl, inp, work / "again")
    shutil.rmtree(work / "again", ignore_errors=True)

    def fail(rep: dict, message: str) -> None:
        rep["failures"].append(message)
        print(f"perfbench: {wl.name}: traced run: {message}", file=sys.stderr)

    # Spans must nest; every repeat must reproduce the first run's output
    # bodies byte for byte, and the traced repeats the same counts.
    for rep in reps + [again]:
        for problem in tracing.nesting_problems(rep.get("spans", [])):
            fail(rep, problem)
        changed = [k for k in rep["hashes"] if rep["hashes"][k] != untraced["hashes"].get(k)]
        if rep["hashes"].keys() != untraced["hashes"].keys() or changed:
            fail(rep, f"outputs differ from the first run of these inputs: {changed}")
    counts = [{k: v for k, v in rep["layers"].items() if not k.endswith("_s")}
              for rep in reps]
    if any(c != counts[0] for c in counts):
        fail(reps[-1], f"counts did not repeat exactly: {counts}")
    return {"bindings": bindings, "reps": reps, "again": again,
            "untraced_task_s": [untraced["wall_s"], again["wall_s"]]}


def _layer_values(record: dict, spec: dict) -> dict[str, float]:
    traced = record["traced"]
    reps = traced["reps"]
    names = [m["name"] for m in spec["per_layer"]]
    values = {}
    for name in names:
        series = [rep["layers"].get(name, 0.0) for rep in reps]
        values[name] = statistics.fmean(series) if name.endswith("_s") else series[0]
    fits = reps[0]["layers"].get("calibrate.estimate_knots_optimize.fits", 0)
    values["calibrate.estimate_knots_optimize.converged"] = (
        reps[0]["layers"].get("calibrate.estimate_knots_optimize.converged", 0) / fits
        if fits else 0.0)
    values.update({k: v for k, v in reps[0]["quality"].items() if k in values})
    values["trace.task_s"] = statistics.fmean(rep["wall_s"] for rep in reps)
    values["trace.untraced_task_s"] = statistics.fmean(traced["untraced_task_s"])
    values["trace.overhead_s"] = values["trace.task_s"] - values["trace.untraced_task_s"]
    return {name: values[name] for name in names}


def _report(record: dict, spec: dict, args) -> int:
    attempted = (record["warmup"] + record["measured"]
                 + (record["traced"]["reps"] + [record["traced"]["again"]]
                    if args.trace else []))
    failed = sum(1 for it in attempted if it["failures"])
    times = [it["wall_s"] for it in record["measured"]]
    quality = [it["quality"] for it in record["measured"] if it["quality"]]
    end_to_end = {
        "setup_s": record["setup_s"],
        "task_s": statistics.median(times),
        "peak_rss_mb": record["peak_rss_mb"],
        "fit_error_255": _median([q["fit_error_255"] for q in quality]),
    }
    record.update({
        "attempted": len(attempted), "failed": failed,
        "error_rate": failed / len(attempted),
        "iterations": len(times), "warmup_iterations": len(record["warmup"]),
        "task_s_all": times,
        "knot_rel_err": {k: _median([q[k] for q in quality]) for k in quality[0]
                         if k.endswith(".knot_rel_err")} if quality else {},
        "end_to_end": end_to_end})
    correct = failed == 0 and end_to_end["fit_error_255"] is not None
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    if args.trace:
        metrics = _layer_values(record, spec)
        record["per_layer"] = metrics
    else:
        metrics = end_to_end

    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"{record['workload']}-seed{record['seed']}-trace{args.trace}.json"
    path.write_text(json.dumps(record, default=str) + "\n")

    print(f"# {record['workload']} seed {record['seed']}: {len(times)} measured "
          f"iteration(s) after {len(record['warmup'])} warm-up; "
          f"error_rate {failed}/{len(attempted)} = {record['error_rate']:.3g}; "
          f"knot_rel_err {record['knot_rel_err']!r}")
    for name, value in end_to_end.items():
        print(f"# {name} = {value!r} {units[name]}")
    if args.trace:
        print(f"# tracing overhead = {metrics['trace.overhead_s']:.4f} s")
    print(f"# full record: {path.relative_to(ROOT)}")
    print(json.dumps({"correct": bool(correct), "attempted": len(attempted),
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
