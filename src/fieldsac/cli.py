"""Command-line entry point.

Subcommands mirror the curriculum: ``pretrain`` trains the field-blind
teacher and saves its checkpoint plus a replay snapshot, ``distill``
turns that into field-aware students, ``finetune`` resumes from the
students on the target-following task, ``eval`` reports a checkpoint's
behaviour, and ``check`` runs the oracle/invariant suite.

The training stages read their settings one way: each leftover
``--key value`` pair (hyphens read as underscores) sets a key of the
stage's record, ``TrainConfig`` for pretrain and finetune and
``DistillConfig`` for distill, and ``config`` types and checks it.
``--lr`` is the one alias: it sets distill's two rates.  ``eval`` types
its own integer flags the same way: a value that is not an integer
exits 1 naming the flag.

Exit codes: 0 success, 1 configuration error, 2 numeric fault,
3 check-suite failure.
"""

from __future__ import annotations

import argparse
import sys

from .config import TrainConfig, load_config
from .errors import ConfigError, FieldsacError, NumericFault
from .rewards import EnvRewardConfig


def _parse_overrides(pairs: list[str]) -> dict:
    """Turn ["--key", "value", ...] leftovers into an override dict."""
    if len(pairs) % 2 != 0:
        raise ConfigError(f"dangling override flag: {pairs[-1]!r} has no value")
    out = {}
    for flag, value in zip(pairs[::2], pairs[1::2]):
        if not flag.startswith("--"):
            raise ConfigError(f"expected an override flag, got {flag!r}")
        out[flag[2:].replace("-", "_")] = value
    return out


def _stage_config(args, overrides, stage: str, **defaults) -> TrainConfig:
    """The config file plus overrides, with ``stage`` and ``defaults`` set unless overridden."""
    cfg = load_config(args.config, {"stage": stage, **defaults, **overrides})
    if cfg.stage != stage:
        raise ConfigError(f"the {stage} subcommand requires stage = {stage}")
    return cfg


def cmd_pretrain(args, overrides) -> int:
    from . import pipeline

    res = pipeline.train_stage(_stage_config(args, overrides, "pretrain"), args.out)
    print(f"saved checkpoint to {res.checkpoint_dir}")
    if res.replay_dir:
        print(f"saved replay snapshot to {res.replay_dir}")
    print(f"saved metrics to {res.metrics_path}")
    for line in res.final_eval.lines():
        print(line)
    return 0


def cmd_distill(args, overrides) -> int:
    from . import pipeline
    from .distill import DistillConfig

    lr = overrides.pop("lr", None)
    if lr is not None:  # the one alias: --lr sets both rates
        overrides = {"lr_actor": lr, "lr_critic": lr, **overrides}
    dcfg = load_config(overrides=overrides, record=DistillConfig)
    res = pipeline.run_distill_stage(args.teacher, args.replay, args.out, dcfg)
    print(f"saved student checkpoint to {res.checkpoint_dir}")
    print(f"saved distillation metrics to {res.metrics_path}")
    print(f"holdout mean KL            {res.report.mean_kl:.6f} nats")
    print(f"holdout max action gap     {res.report.max_action_deviation:.6f}")
    print(f"teacher parameters intact  {res.teacher_unchanged}")
    print(f"verification passed        {res.report.passed}")
    return 0


def cmd_finetune(args, overrides) -> int:
    from . import pipeline

    cfg = _stage_config(args, overrides, "finetune", difficulty="2")
    bundle = pipeline.load_checkpoint(args.student)
    res = pipeline.train_stage(cfg, args.out, resume_actor=bundle.actor, resume_ensemble=bundle.ensemble)
    print(f"saved checkpoint to {res.checkpoint_dir}")
    print(f"saved metrics to {res.metrics_path}")
    for line in res.final_eval.lines():
        print(line)
    return 0


def _int_flag(args, name: str) -> int:
    raw = getattr(args, name)
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"--{name} must be an integer, not {raw!r}") from None


def cmd_eval(args, overrides) -> int:
    from . import pipeline

    difficulty, episodes, seed = (_int_flag(args, name) for name in ("difficulty", "episodes", "seed"))
    bundle = pipeline.load_checkpoint(args.checkpoint)
    stage = TrainConfig(stage=bundle.stage)  # the checkpoint stage's observations and rewards
    report = pipeline.evaluate(
        pipeline.NetPolicy(bundle.actor, stage.obs_mode),
        difficulty=difficulty,
        episodes=episodes,
        seed=seed,
        reward_cfg=EnvRewardConfig(w_vel=stage.effective_env_w_vel),
        directional_pvb=stage.directional_pvb,
        record_dir=args.record_dir,
    )
    for line in report.lines():
        print(line)
    return 0


def cmd_check(args, overrides) -> int:
    from . import checks

    return 0 if checks.run_all(verbose=True) else 3


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="fieldsac", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    pre = sub.add_parser("pretrain", help="train the field-blind teacher; any config key is overridable via --key value")
    pre.add_argument("--config", default=None, help="key = value config file")
    pre.add_argument("--out", required=True, help="output directory")

    dis = sub.add_parser("distill", help="distill a teacher into field-aware students; any DistillConfig key is overridable via --key value")
    dis.add_argument("--teacher", required=True, help="teacher checkpoint directory")
    dis.add_argument("--replay", required=True, help="replay snapshot directory")
    dis.add_argument("--out", required=True)

    fin = sub.add_parser("finetune", help="resume from a student checkpoint with an empty replay")
    fin.add_argument("--config", default=None)
    fin.add_argument("--student", required=True, help="student checkpoint directory")
    fin.add_argument("--out", required=True)

    ev = sub.add_parser("eval", help="evaluate a checkpoint with deterministic actions")
    ev.add_argument("--checkpoint", required=True)
    ev.add_argument("--difficulty", default=2)
    ev.add_argument("--episodes", default=5)
    ev.add_argument("--seed", default=0)
    ev.add_argument("--record-dir", default=None, help="dump per-episode trajectory CSVs here")

    sub.add_parser("check", help="run the oracle/invariant self-check suite")
    return p


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser()
    try:
        args, leftover = parser.parse_known_args(argv)
        overrides = _parse_overrides(leftover)
        if overrides and args.command in ("eval", "check"):
            raise ConfigError(f"unknown flags for {args.command}: {sorted(overrides)}")
        handler = {
            "pretrain": cmd_pretrain,
            "distill": cmd_distill,
            "finetune": cmd_finetune,
            "eval": cmd_eval,
            "check": cmd_check,
        }[args.command]
        return handler(args, overrides)
    except NumericFault as e:
        print(f"numeric fault: {e}", file=sys.stderr)
        return 2
    except (ConfigError, FieldsacError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
