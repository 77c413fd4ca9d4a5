"""Fixed-work curriculum benchmark for fieldsac.

    python3 perfbench/run.py --workload finetune_full --seed 1 --seconds 60 --trace 0
    python3 -m pytest perfbench/tests -q

Runs from the root of a source checkout; imports ``fieldsac`` from
``src/`` (nothing is installed) with BLAS pinned to one thread, all in
this one process; only the extra import-time samples for ``setup_s`` run
in short child processes, one at a time.

``--trace 0`` repeats the workload's fixed-work stage (set-up, then the
timed stage, then the output checks) until ``--seconds`` are spent and
reports the end-to-end medians.  ``--trace 1`` runs the stage three times
with one seed: untraced (warm-up), with recording wrappers around the
public functions of every module, and untraced again.  It removes the
wrappers, checks that all three checkpoints are bit-identical, and
reports per-module figures, health counters, tracing overhead and the
layer-kind probe.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` (operations: env steps, learner steps, distillation steps) and
``metrics``.  Scratch files go to ``.perfbench/`` in the checkout; the
spans of the last traced run of each workload stay there.
"""

from __future__ import annotations

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")


def _rss_mb() -> float:
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _git_commit() -> str:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.strip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _blas_threads():
    """Ask the loaded OpenBLAS for its thread count; None when not found."""
    import ctypes

    try:
        with open("/proc/self/maps") as f:
            libs = {ln.split()[-1] for ln in f if "openblas" in ln.rsplit("/", 1)[-1].lower()}
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                return int(fn())
    return None


def machine_facts() -> dict:
    import numpy as np

    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError, ValueError):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": _blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "git_commit": _git_commit(),
    }


def _import_program() -> float:
    """Seconds to import ``fieldsac`` in this process; numpy is loaded already."""
    t0 = time.perf_counter()
    importlib.import_module("fieldsac.pipeline")
    importlib.import_module("fieldsac.distill")
    return time.perf_counter() - t0


# The same import in a fresh interpreter; prints its seconds.
_IMPORT_CHILD = """
import sys, time
sys.path.insert(0, sys.argv[1])
import numpy
t0 = time.perf_counter()
import fieldsac.pipeline, fieldsac.distill
print(time.perf_counter() - t0)
"""


def _import_program_in_child() -> float:
    """One more import-time sample, from a child process that has ended on return.

    A process imports only once; re-importing here would leave the dropped
    modules' memory behind and inflate ``peak_rss_mb``.  ``measure`` takes
    one sample after every stage, so the median spans the whole run.
    """
    out = subprocess.run([sys.executable, "-c", _IMPORT_CHILD, SRC], capture_output=True, text=True, check=True, timeout=120)
    return float(out.stdout.split()[-1])


def _one_rep(wl, seed: int, rep_dir: str, around=None):
    """Set up, run and check one stage; returns (set-up seconds, outcome).

    ``around(stage)``, when given, calls ``stage()`` inside the tracing."""
    import workloads

    t0 = time.perf_counter()
    prep = workloads.setup(wl, seed, rep_dir)
    setup_s = time.perf_counter() - t0

    def stage():
        return workloads.run(prep, os.path.join(rep_dir, "stage"))

    wall, res = stage() if around is None else around(stage)
    return setup_s, workloads.check(prep, wall, res, rep_dir)


def _guarded_rep(wl, seed, rep_dir, **kw):
    """As _one_rep, but a raising stage becomes a failed outcome."""
    import workloads

    try:
        return _one_rep(wl, seed, rep_dir, **kw)
    except Exception:
        traceback.print_exc()
        planned = workloads.DISTILL_STEPS if wl.is_distill else wl.overrides["total_env_steps"]
        return float("nan"), workloads.RepOutcome(wall_s=float("nan"), planned_ops=planned, failures=["stage raised"])
    finally:
        shutil.rmtree(rep_dir, ignore_errors=True)


def _result(reps, problems: list, metrics: dict) -> dict:
    """The closing JSON: a problem anywhere fails every operation of the run."""
    prints = {r.fingerprint for r in reps if r.fingerprint}
    problems = problems + [f for r in reps for f in r.failures]
    if len(prints) > 1:
        problems.append(f"checkpoint fingerprints differ across stages of one seed: {sorted(prints)}")
    for p in problems:
        print(f"CHECK FAILED: {p}")
    attempted = max(1, sum(r.ops or r.planned_ops for r in reps))
    faults = sum(r.health["env_faults"] for r in reps)
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": attempted if problems else faults,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def measure(wl, seed: int, seconds: float, run_dir: str, first_import_s: float) -> dict:
    import workloads

    baseline_rss = _rss_mb()
    # The first set-up in a process pays one-off costs (numpy's first calls,
    # first allocations): about 3x a later one on finetune_full, whose runs
    # hold only two or three stages.  An untimed set-up keeps it out of the
    # median; the child-process import samples still show cold imports.
    workloads.setup(wl, seed, os.path.join(run_dir, "warm-up"))
    setups, reps, imports = [], [], [first_import_s]
    t0 = time.perf_counter()
    while True:
        setup_s, rep = _guarded_rep(wl, seed, os.path.join(run_dir, f"rep{len(reps)}"))
        setups.append(setup_s)
        reps.append(rep)
        imports.append(_import_program_in_child())
        print(
            f"rep {len(reps)}: import {imports[-1]:.4f} s, setup {setup_s:.4f} s, wall {rep.wall_s:.4f} s, env {rep.env_steps}, "
            f"learner {rep.learner_steps}, distill {rep.distill_steps}, failures {rep.failures}",
            flush=True,
        )
        elapsed = time.perf_counter() - t0
        if elapsed + elapsed / len(reps) > seconds:
            break
    good = [r for r in reps if not r.failures]
    wall_s = statistics.median([r.wall_s for r in good]) if good else 0.0
    setup_s = statistics.median(imports) + statistics.median([s for s, r in zip(setups, reps) if not r.failures] or [0.0])
    rates = {u: statistics.median([r.count(u) / r.wall_s for r in good]) if good else 0.0 for u in ("env", "learner", "distill")}
    peak = _peak_rss_mb() - baseline_rss
    result = _result(reps, [], {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall_s, "s"),
        "steps_per_s": (rates[wl.unit], "1/s"),
        "peak_rss_mb": (peak, "MB"),
    })
    print(f"stages {len(reps)} (median of {len(good)} good), seconds measured {time.perf_counter() - t0:.1f}")
    for name in ("env", "learner", "distill"):
        print(f"  {name + '_steps_per_s':<22} {rates[name]:.6g}")
    print(f"  {'failed_ops_fraction':<22} {result['failed'] / result['attempted']:.6g}")
    return result


def trace(wl, seed: int, run_dir: str) -> dict:
    import probe
    import spans
    import targets

    # the first stage in a process runs slower (allocator and cache warm-up),
    # so it only supplies a fingerprint; overhead compares the next two
    _, warm = _guarded_rep(wl, seed, os.path.join(run_dir, "warm-up"))
    tracer = spans.Tracer()
    lag = targets.SnapshotLag()
    root_name = "pipeline.run_distill_stage" if wl.is_distill else "pipeline.train_stage"
    removed = []

    def traced_stage(stage):
        patches = spans.install(tracer, targets.targets(lag))
        root = tracer.open(root_name)
        try:
            return stage()
        finally:
            tracer.close(root)
            removed.append(spans.remove(patches))

    _, traced = _guarded_rep(wl, seed, os.path.join(run_dir, "traced"), around=traced_stage)
    _, plain = _guarded_rep(wl, seed, os.path.join(run_dir, "untraced"))
    reps = [warm, traced, plain]
    problems = [] if removed == [True] else ["tracing wrappers were not all removed"]
    sp = tracer.arrays()
    os.makedirs(WORK, exist_ok=True)
    sp.save(os.path.join(WORK, f"trace_{wl.name}.npz"))

    m = targets.per_module_metrics(sp, root_name, traced.segments_stored)
    for key, value in traced.health.items():
        m[f"health.{key}"] = (float(value), "count")
    m["health.max_snapshot_lag"] = (lag.max_lag, "count")
    m["trace.untraced_wall_s"] = (plain.wall_s, "s")
    m["trace.overhead_s"] = (traced.wall_s - plain.wall_s, "s")
    m["trace.overhead_share"] = ((traced.wall_s - plain.wall_s) / plain.wall_s, "fraction")
    m["trace.fingerprint_match"] = (int(traced.fingerprint == plain.fingerprint != ""), "count")
    m["trace.spans"] = (len(tracer), "count")
    # the wall difference above swings with host load; spans x the cost of
    # one recorded call is the steadier estimate of what tracing adds
    m["trace.overhead_est_s"] = (len(tracer) * spans.span_cost_ns() / 1e9, "s")
    m.update(probe.run_probe(seed))

    print(f"largest module self time: {targets.largest_self_module(m)}")
    for name, (value, unit) in m.items():
        print(f"  {name:<44} {value:.6g} {unit}")
    result = _result(reps, problems, m)
    with open(os.path.join(WORK, f"trace_{wl.name}.json"), "w") as f:
        json.dump({"workload": wl.name, "seed": seed, "machine": machine_facts(), **result}, f, indent=1)
    return result


def main(argv=None) -> int:
    if not os.path.isdir(os.path.join(SRC, "fieldsac")):
        print(f"error: no fieldsac sources at {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import numpy  # noqa: F401  (a dependency: loaded once, outside set-up)

    first_import_s = _import_program()
    import workloads
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    wl = workloads.WORKLOADS[args.workload]
    print("machine " + json.dumps(machine_facts()), flush=True)
    run_dir = os.path.join(WORK, f"{wl.name}-{args.seed}-{os.getpid()}")
    try:
        if args.trace:
            result = trace(wl, args.seed, run_dir)
        else:
            result = measure(wl, args.seed, args.seconds, run_dir, first_import_s)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
