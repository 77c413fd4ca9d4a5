"""Alternating A/B benchmark of a parent revision against a checkout.

    python3 tools/ab.py --topic replay_records [--parent HEAD]

Exports the parent revision with ``git archive`` and this checkout's
working tree (tracked files as they stand plus untracked files that
``.gitignore`` does not exclude) into two temporary directories through
the same tar extraction, so both sides run from the same kind of fresh
tree.  No worktree is registered, so an interrupted run leaves nothing
behind in the repository.  Then runs ``perfbench/run.py --trace 0
--seconds <run_seconds>`` on the parent and on the change, one run at a
time, for ten pairs on every workload of ``BENCHMARK.json``.  Pair
``i`` runs with seed ``101 + i`` on both sides, and the parent goes first
when ``i`` is even.  A run that exceeds its timeout is recorded as
incorrect.  After every pair it rewrites ``BENCH_<topic>.json`` at the
root of this checkout: the command, the machine of the change's runs,
every raw run and, per workload and end-to-end metric of
``BENCHMARK.json``, both sides' medians and quartiles and the number of
pairs each side won (ties count for neither), and the median, minimum
and maximum of the per-pair change/parent ratios, which read a speed
claim as one number.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PAIRS = 10


def _extract(tar: bytes, dest: str) -> None:
    with tarfile.open(fileobj=io.BytesIO(tar)) as t:
        t.extractall(dest, filter="data")


def export(rev: str, dest: str) -> str:
    """Write the tree of ``rev`` into ``dest``; returns the full commit id."""
    git = ["git", "-C", ROOT]
    commit = subprocess.run([*git, "rev-parse", "--verify", rev + "^{commit}"], capture_output=True, text=True, check=True).stdout.strip()
    _extract(subprocess.run([*git, "archive", commit], capture_output=True, check=True).stdout, dest)
    return commit


def export_worktree(dest: str) -> int:
    """Write this checkout's working tree into ``dest``: tracked files as they
    stand (deleted ones left out) and untracked files that ``.gitignore``
    does not exclude.  Returns the number of files written."""
    listed = subprocess.run(
        ["git", "-C", ROOT, "ls-files", "-z", "--cached", "--others", "--exclude-standard"], capture_output=True, check=True
    ).stdout.decode()
    names = sorted({n for n in listed.split("\0") if n and os.path.lexists(os.path.join(ROOT, n))})
    buf = io.BytesIO()
    with tarfile.open(fileobj=buf, mode="w") as t:
        for name in names:
            t.add(os.path.join(ROOT, name), arcname=name, recursive=False)
    _extract(buf.getvalue(), dest)
    return len(names)


def _describe(checkout: str) -> dict:
    """The commit a checkout sits on and whether its tree differs from it."""
    git = ["git", "-C", checkout]
    head = subprocess.run([*git, "rev-parse", "HEAD"], capture_output=True, text=True)
    dirty = subprocess.run([*git, "status", "--porcelain", "--untracked-files=no"], capture_output=True, text=True)
    return {"head": head.stdout.strip() or None, "uncommitted_changes": bool(dirty.stdout.strip())}


def run_once(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py --trace 0`` run; its closing JSON plus the exit code."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    try:
        out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=max(900.0, 10 * seconds))
    except subprocess.TimeoutExpired:
        return {"returncode": None, "machine": None, "correct": False, "error": "timeout"}
    lines = out.stdout.strip().splitlines()
    machine = next((json.loads(ln[len("machine ") :]) for ln in lines if ln.startswith("machine ")), None)
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "error": out.stderr[-2000:]}
    return {"returncode": out.returncode, "machine": machine, **result}


def _value(run: dict, metric: str) -> float | None:
    v = run.get("metrics", {}).get(metric, {}).get("value")
    return v if isinstance(v, (int, float)) and math.isfinite(v) else None


def _spread(values: list) -> dict:
    if not values:
        return {"median": None, "q1": None, "q3": None, "n": 0}
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def summarize(pairs: list, end_to_end: list) -> dict:
    out = {}
    for spec in end_to_end:
        name, sign = spec["name"], 1.0 if spec["better"] == "higher" else -1.0
        got = [(_value(p["parent"], name), _value(p["change"], name)) for p in pairs]
        both = [(a, b) for a, b in got if a is not None and b is not None]
        par, chg = _spread([a for a, _ in got if a is not None]), _spread([b for _, b in got if b is not None])
        rel = None
        if par["median"] and chg["median"] is not None:
            rel = chg["median"] / par["median"] - 1.0
        ratios = [b / a for a, b in both if a]
        out[name] = {
            "unit": spec["unit"],
            "better": spec["better"],
            "bound": spec["bound"],
            "parent": par,
            "change": chg,
            "relative_change_of_median": rel,
            "pair_ratio": {
                "median": statistics.median(ratios) if ratios else None,
                "min": min(ratios, default=None),
                "max": max(ratios, default=None),
            },
            "change_wins": sum(sign * (b - a) > 0 for a, b in both),
            "parent_wins": sum(sign * (b - a) < 0 for a, b in both),
            "ties": sum(a == b for a, b in both),
        }
    for side in ("parent", "change"):
        out[f"failed_ops.{side}"] = sum(p[side].get("failed", 0) for p in pairs)
        out[f"incorrect_runs.{side}"] = sum(not p[side].get("correct", False) for p in pairs)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--topic", required=True)
    ap.add_argument("--parent", default="HEAD", help="git revision to compare against (default HEAD)")
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads, seconds = [w["name"] for w in bench["workloads"]], bench["run_seconds"]
    out_path = os.path.join(ROOT, f"BENCH_{args.topic}.json")
    report = {
        "topic": args.topic,
        "command": ["python3", "tools/ab.py", *(argv if argv is not None else sys.argv[1:])],
        "perfbench": f"perfbench/run.py --trace 0 --seconds {seconds:g}",
        "change": _describe(ROOT),
        "machine": None,
        "workloads": {w: {"pairs": [], "summary": {}} for w in workloads},
    }
    with tempfile.TemporaryDirectory(prefix="ab-parent-") as parent, tempfile.TemporaryDirectory(prefix="ab-change-") as change:
        report["parent"] = export(args.parent, parent)
        report["change"]["exported_files"] = export_worktree(change)
        for i in range(PAIRS):
            seed = 101 + i
            for w in workloads:
                sides = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                pair = {"seed": seed, "first": sides[0]}
                for side in sides:
                    pair[side] = run_once(parent if side == "parent" else change, w, seed, seconds)
                    machine = pair[side].pop("machine")
                    if side == "change":
                        report["machine"] = report["machine"] or machine
                    print(f"pair {i} {w} {side}: correct={pair[side].get('correct')}", file=sys.stderr, flush=True)
                entry = report["workloads"][w]
                entry["pairs"].append(pair)
                entry["summary"] = summarize(entry["pairs"], bench["end_to_end"])
                with open(out_path, "w") as f:
                    json.dump(report, f, indent=1)
                    f.write("\n")
    print(out_path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
