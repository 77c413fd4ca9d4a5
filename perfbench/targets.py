"""Which public functions of ``fieldsac`` the traced run wraps, and the
per-module metrics computed from the spans they record.

Span names are ``<module>.<function>``; a module's self time is the time
in its spans minus the time of the spans nested directly inside them.
"""

from __future__ import annotations

from fieldsac import distill, env, nn, pipeline, policy, replay, sac
from spans import SpanArrays, Target, percentile

MODULES = ("pipeline", "nn", "sac", "policy", "replay", "env", "distill")

# Where an nn.forward call is attributed: its nearest enclosing span of these.
FORWARD_CONTEXT = {
    "pipeline.learner_step": "learner",
    "pipeline.sampler_tick": "sampler",
    "pipeline.evaluate": "eval",
    "distill.run_distillation": "distill",
    "distill.critic_only": "distill",
    "distill.verify": "distill",
}

_REWARD_FUNCTIONS = (
    "velocity_deviation_penalty",
    "pelvis_velocity_bonus",
    "dense_effort_penalty",
    "target_achieve_bonus",
    "env_reward",
    "env_reward_partial",
)


def _linear_macs(net) -> int:
    return sum(s.in_dim * s.out_dim for s in net.specs if s.kind == "linear")


def _forward_work(args, kwargs, out):
    rows = args[1].shape[0]
    return rows, 2.0 * rows * _linear_macs(args[0])


def _backward_work(args, kwargs, out):
    net, tape = args[0], args[1]
    accumulate = kwargs.get("accumulate", args[3] if len(args) > 3 else True)
    # input gradient always; weight gradient only when accumulating
    return tape.batch, (4.0 if accumulate else 2.0) * tape.batch * _linear_macs(net)


def _segment_bytes(args, kwargs, out):
    seg = args[1]
    return seg.obs.nbytes + seg.actions.nbytes + seg.rewards.nbytes + seg.dones.nbytes, 0.0


def _batch_bytes(args, kwargs, out):
    arrays = (out.obs, out.actions, out.rewards, out.dones, out.lengths, out.weights)
    return sum(a.nbytes for a in arrays), 0.0


class SnapshotLag:
    """Largest gap between the hub's version and a sampler's snapshot, seen
    as each ``Sampler.tick`` begins."""

    def __init__(self):
        self.max_lag = 0

    def __call__(self, args, kwargs):
        sampler = args[0]
        self.max_lag = max(self.max_lag, sampler.hub.version - sampler.snapshot.version)


def targets(lag: SnapshotLag) -> list[Target]:
    T = Target
    out = [
        T(pipeline.Learner, "step", "pipeline.learner_step"),
        T(pipeline.Sampler, "tick", "pipeline.sampler_tick", before=lag),
        T(pipeline, "evaluate", "pipeline.evaluate"),
        T(pipeline, "save_checkpoint", "pipeline.save_checkpoint"),
        T(pipeline.PolicySnapshotHub, "publish", "pipeline.hub_publish"),
        T(nn, "forward", "nn.forward", annotate=_forward_work),
        T(nn, "backward", "nn.backward", annotate=_backward_work),
        T(nn, "adam_step_net", "nn.adam"),
        T(nn, "soft_update_net", "nn.soft_update"),
        T(sac, "critic_loss", "sac.critic_loss"),
        T(sac, "actor_loss", "sac.actor_loss"),
        T(sac, "n_step_targets", "sac.n_step_targets"),
        T(sac, "temperature_loss", "sac.temperature_loss"),
        T(policy, "head_from_output", "policy.head_from_output"),
        T(policy, "sample", "policy.sample"),
        T(policy, "sample_grads", "policy.sample_grads"),
        T(replay.PrioritizedStore, "sample", "replay.sample", annotate=_batch_bytes),
        T(replay.PrioritizedStore, "append", "replay.append", annotate=_segment_bytes),
        T(replay.PrioritizedStore, "update_priorities", "replay.update_priorities"),
        T(replay.PrioritizedStore, "set_exponents", "replay.set_exponents"),
        T(replay.PrioritizedStore, "save", "replay.save"),
        T(replay.PrioritizedStore, "load", "replay.load"),
        T(replay.PrioritizedStore, "all_observation_rows", "replay.all_observation_rows"),
        T(replay.SegmentCutter, "push", "replay.cutter_push"),
        T(replay.SumTree, "rebuild", "replay.tree_rebuild"),
        T(env.PointMassEnv, "step", "env.step"),
        T(env.PointMassEnv, "reset", "env.reset"),
        T(env, "local_grid", "env.local_grid"),
        T(distill, "run_distillation", "distill.run_distillation"),
        T(distill, "distill_step", "distill.step"),
        T(distill, "distill_critic_only", "distill.critic_only"),
        T(distill, "verify_distillation", "distill.verify"),
    ]
    # env.py binds the reward functions by name, so wrap them there
    out += [T(env, fn, "env.rewards") for fn in _REWARD_FUNCTIONS]
    return out


def per_module_metrics(sp: SpanArrays, root: str, segments_stored: int) -> dict:
    """Per-module figures as {name: (value, unit)} from one traced stage."""
    dur = sp.duration_ns.astype(float)
    self_ns = sp.self_ns().astype(float)
    root_s = dur[sp.mask(root)].sum() / 1e9

    def count(name):
        return int(sp.mask(name).sum())

    def total_s(name):
        return dur[sp.mask(name)].sum() / 1e9

    def self_s(name):
        return self_ns[sp.mask(name)].sum() / 1e9

    def mean_s(name, per=None):
        n = count(per or name)
        return total_s(name) / n if n else 0.0

    m: dict = {}
    learner_steps = count("pipeline.learner_step")
    for key, name, scale, unit in (("learner_step", "pipeline.learner_step", 1e-6, "ms"), ("sampler_tick", "pipeline.sampler_tick", 1e-3, "us")):
        p50, n = percentile(dur[sp.mask(name)], 50)
        p99, _ = percentile(dur[sp.mask(name)], 99)
        m[f"pipeline.{key}.p50_{unit}"] = (p50 * scale, unit)
        m[f"pipeline.{key}.p99_{unit}"] = (p99 * scale, unit)
        m[f"pipeline.{key}.count"] = (n, "count")
    m["pipeline.sampler_tick.self_ms"] = (self_s("pipeline.sampler_tick") * 1e3, "ms")
    m["pipeline.learner_share"] = (total_s("pipeline.learner_step") / root_s, "fraction")
    m["pipeline.sampler_share"] = (total_s("pipeline.sampler_tick") / root_s, "fraction")
    m["pipeline.evaluate.total_s"] = (total_s("pipeline.evaluate"), "s")
    m["pipeline.save_checkpoint.total_ms"] = (total_s("pipeline.save_checkpoint") * 1e3, "ms")
    m["pipeline.hub_publish.total_ms"] = (total_s("pipeline.hub_publish") * 1e3, "ms")

    fwd, bwd = sp.mask("nn.forward"), sp.mask("nn.backward")
    m["nn.forward.count"] = (int(fwd.sum()), "count")
    m["nn.forward.self_ms"] = (self_s("nn.forward") * 1e3, "ms")
    ctx = sp.context(FORWARD_CONTEXT)
    by_ctx = dict.fromkeys(("learner", "sampler", "eval", "distill"), 0.0)
    fwd_learner = 0
    for i in fwd.nonzero()[0].tolist():
        if ctx[i] in by_ctx:
            by_ctx[ctx[i]] += self_ns[i] / 1e6
        fwd_learner += ctx[i] == "learner"
    for key, ms in by_ctx.items():
        m[f"nn.forward.self_ms.in_{key}"] = (ms, "ms")
    m["nn.backward.count"] = (int(bwd.sum()), "count")
    m["nn.backward.self_ms"] = (self_s("nn.backward") * 1e3, "ms")
    m["nn.adam.total_ms"] = (total_s("nn.adam") * 1e3, "ms")
    m["nn.soft_update.total_ms"] = (total_s("nn.soft_update") * 1e3, "ms")
    m["nn.forward.rows"] = (int(sp.size[fwd].sum()), "count")
    gflop = (sp.flop[fwd].sum() + sp.flop[bwd].sum()) / 1e9
    nn_s = self_s("nn.forward") + self_s("nn.backward")
    m["nn.gflop"] = (gflop, "GFLOP")
    m["nn.gflop_per_s"] = (gflop / nn_s if nn_s else 0.0, "GFLOP/s")
    bwd_learner = sum(ctx[i] == "learner" for i in bwd.nonzero()[0].tolist())
    m["nn.forward_per_learner_step"] = (fwd_learner / learner_steps if learner_steps else 0.0, "count")
    m["nn.backward_per_learner_step"] = (bwd_learner / learner_steps if learner_steps else 0.0, "count")

    m["sac.critic_loss.self_ms"] = (self_s("sac.critic_loss") * 1e3, "ms")
    m["sac.actor_loss.self_ms"] = (self_s("sac.actor_loss") * 1e3, "ms")
    m["sac.n_step_targets.total_ms"] = (total_s("sac.n_step_targets") * 1e3, "ms")
    m["sac.temperature_loss.mean_us"] = (mean_s("sac.temperature_loss") * 1e6, "us")

    policy_names = ("policy.head_from_output", "policy.sample", "policy.sample_grads")
    m["policy.total_ms"] = (sum(total_s(n) for n in policy_names) * 1e3, "ms")
    m["policy.count"] = (sum(count(n) for n in policy_names), "count")

    m["replay.sample.mean_ms"] = (mean_s("replay.sample") * 1e3, "ms")
    m["replay.append.mean_us"] = (mean_s("replay.append") * 1e6, "us")
    m["replay.cutter_push.mean_us"] = (mean_s("replay.cutter_push") * 1e6, "us")
    m["replay.update_priorities.total_ms"] = (total_s("replay.update_priorities") * 1e3, "ms")
    m["replay.set_exponents.total_ms"] = (total_s("replay.set_exponents") * 1e3, "ms")
    m["replay.tree_rebuilds"] = (count("replay.tree_rebuild"), "count")
    m["replay.save.total_ms"] = (total_s("replay.save") * 1e3, "ms")
    m["replay.load.total_ms"] = (total_s("replay.load") * 1e3, "ms")
    m["replay.all_observation_rows.total_ms"] = (total_s("replay.all_observation_rows") * 1e3, "ms")
    appends = sp.mask("replay.append")
    seg_bytes = float(sp.size[appends].max()) if appends.any() else 0.0
    samples = sp.mask("replay.sample")
    m["replay.bytes_per_segment"] = (seg_bytes, "bytes")
    m["replay.stored_mb"] = (seg_bytes * segments_stored / 1e6, "MB")
    m["replay.gathered_mb_per_batch"] = (float(sp.size[samples].mean()) / 1e6 if samples.any() else 0.0, "MB")

    m["env.step.mean_us"] = (mean_s("env.step") * 1e6, "us")
    m["env.local_grid.mean_us"] = (mean_s("env.local_grid") * 1e6, "us")
    m["env.rewards.mean_us"] = (mean_s("env.rewards", per="env.step") * 1e6, "us")
    m["env.step.count"] = (count("env.step"), "count")
    m["env.reset.count"] = (count("env.reset"), "count")

    m["distill.step.mean_ms"] = (mean_s("distill.step") * 1e3, "ms")
    m["distill.step.count"] = (count("distill.step"), "count")
    m["distill.critic_only.mean_ms"] = (mean_s("distill.critic_only") * 1e3, "ms")
    m["distill.verify.total_ms"] = (total_s("distill.verify") * 1e3, "ms")
    distill_top = ("distill.run_distillation", "distill.critic_only", "distill.verify")
    m["distill.share"] = (sum(total_s(n) for n in distill_top) / root_s, "fraction")

    module_of = [n.split(".", 1)[0] for n in sp.names]
    module_self = dict.fromkeys(MODULES, 0.0)
    for nid, name in enumerate(module_of):
        module_self[name] += self_ns[sp.name_id == nid].sum() / 1e6
    for name in MODULES:
        m[f"module.{name}.self_ms"] = (module_self[name], "ms")
    return m


def largest_self_module(metrics: dict) -> str:
    return max(MODULES, key=lambda name: metrics[f"module.{name}.self_ms"][0])
