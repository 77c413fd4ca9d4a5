"""Checkpoint bytes of a parent revision against this checkout.

    python3 tools/fingerprints.py [--parent HEAD]

Exports the parent revision and this checkout's working tree with
``tools/ab.py``'s export code.  Then, on each side, it runs
``pretrain_desk``, ``distill_desk`` and ``finetune_full`` at seeds 7 and
1 through that tree's own ``perfbench/workloads.py`` (``setup``, then
``run``), one child process per stage with BLAS pinned to one thread.
Per stage and side it prints the sha256 of
``pipeline.checkpoint_fingerprint`` and of every checkpoint file; for
each file whose bytes differ it prints the length of the two files'
common prefix.  It reports and does not judge: the exit code is 0 once
every stage ran, and 1 with the stage's error output when one fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import ab  # noqa: E402

WORKLOADS = ("pretrain_desk", "distill_desk", "finetune_full")
SEEDS = (7, 1)


def _stage(tree: str, workload: str, seed: int, workdir: str) -> None:
    """Child process: one stage of ``tree``'s workload; prints a JSON line
    with the checkpoint directory and its fingerprint's sha256."""
    sys.path[:0] = [os.path.join(tree, "src"), os.path.join(tree, "perfbench")]
    import workloads
    from fieldsac import pipeline

    prep = workloads.setup(workloads.WORKLOADS[workload], seed, os.path.join(workdir, "setup"))
    _, res = workloads.run(prep, os.path.join(workdir, "stage"))
    digest = hashlib.sha256(pipeline.checkpoint_fingerprint(res.checkpoint_dir)).hexdigest()
    print(json.dumps({"checkpoint_dir": res.checkpoint_dir, "fingerprint": digest}))


def run_stage(tree: str, workload: str, seed: int, workdir: str) -> dict:
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    cmd = [sys.executable, os.path.abspath(__file__), "--stage", tree, workload, str(seed), workdir]
    out = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    if out.returncode:
        sys.exit(f"{workload} seed {seed} failed in {tree}:\n{out.stderr[-2000:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def common_prefix(a: bytes, b: bytes) -> int:
    n = min(len(a), len(b))
    diff = np.flatnonzero(np.frombuffer(a, np.uint8, n) != np.frombuffer(b, np.uint8, n))
    return int(diff[0]) if diff.size else n


def _read(directory: str, name: str) -> bytes | None:
    path = os.path.join(directory, name)
    if not os.path.isfile(path):
        return None
    with open(path, "rb") as f:
        return f.read()


def _sha(data: bytes | None) -> str:
    return "-" if data is None else hashlib.sha256(data).hexdigest()


def compare(parent_dir: str, change_dir: str) -> list[str]:
    """One line per file of either checkpoint directory: ``same`` and the
    sha256, or ``differs``, each side's sha256 and size (``-`` for a
    missing file) and, when both exist, their common prefix length."""
    lines = []
    for name in sorted(set(os.listdir(parent_dir)) | set(os.listdir(change_dir))):
        a, b = _read(parent_dir, name), _read(change_dir, name)
        if a == b:
            lines.append(f"  {name:<20} same     {_sha(a)}")
            continue
        line = f"  {name:<20} differs  parent {_sha(a)} ({'-' if a is None else len(a)} B)  change {_sha(b)} ({'-' if b is None else len(b)} B)"
        if a is not None and b is not None:
            line += f"  common prefix {common_prefix(a, b)} B"
        lines.append(line)
    return lines


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--stage"]:
        tree, workload, seed, workdir = argv[1:]
        _stage(tree, workload, int(seed), workdir)
        return 0
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", default="HEAD", help="git revision to compare against (default HEAD)")
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="fp-") as tmp:
        trees = {"parent": os.path.join(tmp, "parent"), "change": os.path.join(tmp, "change")}
        for tree in trees.values():
            os.makedirs(tree)
        print(f"parent {ab.export(args.parent, trees['parent'])}")
        print(f"change {ab.ROOT} working tree ({ab.export_worktree(trees['change'])} files)")
        for workload in WORKLOADS:
            for seed in SEEDS:
                got = {side: run_stage(tree, workload, seed, os.path.join(tmp, f"{side}-{workload}-{seed}")) for side, tree in trees.items()}
                print(f"{workload} seed {seed}")
                for side, out in got.items():
                    print(f"  checkpoint_fingerprint {side:<6} {out['fingerprint']}")
                print("\n".join(compare(got["parent"]["checkpoint_dir"], got["change"]["checkpoint_dir"])), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
