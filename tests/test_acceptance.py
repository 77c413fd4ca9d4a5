"""Acceptance criteria, one test per criterion, each printing a
PASS/FAIL line.  Learning criteria run the real curriculum at desk scale
(hidden 64, 4 samplers, fixed seeds) with early stopping; the env-step
caps here are far below the allowed budgets, so passing is stricter than
required.

Run just this module with `pytest tests/test_acceptance.py -s`.
"""

import os

import numpy as np
import pytest
from scipy import integrate, stats

from fieldsac import cli, distill, nn, pipeline, policy, sac
from fieldsac.config import TrainConfig
from fieldsac.replay import AnnealSchedule, PrioritizedStore, Segment, SegmentCutter, segment_priority
from fieldsac.rewards import NUM_TERMS, target_achieve_bonus


def report(name: str, ok: bool, detail: str = "") -> None:
    print(f"\nACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------------------
# 1. Formula oracles


class TestCriterion1FormulaOracles:
    def test_rescaling_round_trip(self):
        xs = np.linspace(-1e4, 1e4, 10_001)
        err = np.max(np.abs(sac.h_inv(sac.h(xs)) - xs) / np.maximum(1.0, np.abs(xs)))
        ok = err < 1e-9 and abs(sac.h(3.0, 1e-3) - 1.003) < 1e-12
        report("1a h/h_inv round trip", ok, f"max rel err {err:.2e}, h(3)={sac.h(3.0, 1e-3)}")

    def test_segment_priority_formula(self):
        ok = (
            abs(segment_priority([1, 2, 3], 0.9) - 2.9) < 1e-12
            and segment_priority([1, 5, 2], 1.0) == 5.0
            and abs(segment_priority([1, 5, 3], 0.0) - 3.0) < 1e-12
        )
        report("1b segment priority", ok, f"p={segment_priority([1, 2, 3], 0.9)}")

    def test_target_achieve_bonus_table(self):
        rng = np.random.default_rng(0)
        worst = 0.0
        for _ in range(1000):
            m = rng.uniform(0, 1.2)
            expect = 0.0 if m > 0.7 else (0.1 if m > 0.5 else 1.0 - 3.5 * m * m)
            worst = max(worst, abs(target_achieve_bonus((m, 0.0)) - expect))
        spot = (target_achieve_bonus((0.8, 0)), target_achieve_bonus((0.6, 0)), target_achieve_bonus((0.0, 0)))
        ok = worst == 0.0 and spot == (0.0, 0.1, 1.0)
        report("1c target achieve bonus", ok, f"1000 random magnitudes exact, spot {spot}")

    def test_n_step_targets_vs_bruteforce(self):
        rng = np.random.default_rng(1)
        worst = 0.0
        for case in range(1000):
            n = 1 + case % 5
            hy = sac.SacHyper(weights=np.ones(NUM_TERMS), n_step=n, use_rescale=bool(case % 2))
            B, L = 1, 4
            rewards = rng.standard_normal((B, L + n - 1, NUM_TERMS))
            dones = rng.random((B, L + n - 1)) < 0.15
            boot = rng.standard_normal((B, L, NUM_TERMS))
            got = sac.n_step_targets(rewards, dones, boot, hy)
            for t in range(L):
                for c in range(NUM_TERMS):
                    g, dead = 0.0, False
                    for k in range(n):
                        if dead:
                            break
                        g += hy.gamma**k * rewards[0, t + k, c]
                        if dones[0, t + k]:
                            dead = True
                    bv = 0.0 if dead else float(hy.rescale_inv(boot[0, t, c]))
                    worst = max(worst, abs(got[0, t, c] - float(hy.rescale(g + hy.gamma**n * bv))))
        report("1d n-step target oracle", worst < 1e-6, f"1000 segments, n in 1..5, max abs err {worst:.2e}")

    def test_bellman_linearity_identity_rescaling(self):
        rng = np.random.default_rng(2)
        worst = 0.0
        for _ in range(1000):
            n = int(rng.integers(1, 6))
            w = rng.standard_normal(NUM_TERMS)
            hy = sac.SacHyper(weights=w, n_step=n, use_rescale=False)
            rewards = rng.standard_normal((1, 4 + n - 1, NUM_TERMS))
            dones = rng.random((1, 4 + n - 1)) < 0.15
            boot = rng.standard_normal((1, 4, NUM_TERMS))
            y_vec = sac.n_step_targets(rewards, dones, boot, hy) @ w
            y_scl = sac.n_step_targets(
                np.repeat((rewards @ w)[:, :, None], NUM_TERMS, 2), dones, np.repeat((boot @ w)[:, :, None], NUM_TERMS, 2), hy
            )[:, :, 0]
            worst = max(worst, float(np.max(np.abs(y_vec - y_scl))))
        report("1e Bellman linearity (identity rescaling)", worst < 1e-9, f"max abs err {worst:.2e}")


# ---------------------------------------------------------------------------
# 2. Gradient suite


def _fd_check_block(loss_fn, blocks, rng, picks=3, step=1e-5):
    worst = 0.0
    analytic = [(b.gw.copy(), b.gb.copy()) for b in blocks]
    for b in blocks:
        b.zero_grads()
    for bi, blk in enumerate(blocks):
        for arr, ga in ((blk.w, analytic[bi][0]), (blk.b, analytic[bi][1])):
            flat = arr.reshape(-1)
            for j in rng.integers(0, flat.size, size=min(picks, flat.size)):
                orig = flat[j]
                flat[j] = orig + step
                up = loss_fn()
                flat[j] = orig - step
                dn = loss_fn()
                flat[j] = orig
                fd = (up - dn) / (2 * step)
                an = ga.reshape(-1)[j]
                worst = max(worst, abs(an - fd) / max(abs(an), abs(fd), 1e-3))
    return worst


class TestCriterion2Gradients:
    def test_critic_loss_gradients(self):
        from tests_helpers_acceptance import make_batch, make_ensemble, make_actor

        rng = np.random.default_rng(3)
        worst = 0.0
        for trial in range(50):
            ens = make_ensemble(rng)
            actor = make_actor(rng)
            hy = sac.SacHyper(weights=np.ones(NUM_TERMS), n_step=2, use_rescale=bool(trial % 2))
            batch = make_batch(rng)
            noise = rng.standard_normal((6, 2))

            def value():
                r = sac.critic_loss(batch, ens, actor, hy, boot_noise=noise)
                ens.q1.net.zero_grads()
                ens.q2.net.zero_grads()
                return r.loss

            # accumulate fresh analytic gradients before probing each twin
            for net in (ens.q1.net, ens.q2.net):
                ens.q1.net.zero_grads()
                ens.q2.net.zero_grads()
                sac.critic_loss(batch, ens, actor, hy, boot_noise=noise)
                worst = max(worst, _fd_check_block(value, net.param_blocks(), rng, picks=2))
        report("2a critic loss gradients", worst < 1e-6, f"50 instances, worst rel err {worst:.2e}")

    def test_actor_loss_gradients(self):
        from tests_helpers_acceptance import make_actor, make_ensemble

        rng = np.random.default_rng(4)
        worst, trials = 0.0, 0
        while trials < 50:
            ens = make_ensemble(rng)
            actor = make_actor(rng)
            hy = sac.SacHyper(weights=rng.standard_normal(NUM_TERMS))
            obs = rng.standard_normal((4, 3))
            noise = rng.standard_normal((4, 2))
            alpha = float(rng.uniform(0, 0.5))
            out, _ = nn.forward(actor, obs, want_tape=False)
            head, _ = policy.head_from_output(out)
            a = policy.sample(head, noise).action
            q1, _ = ens.q1.forward(np.concatenate([obs, a], 1), want_tape=False)
            q2, _ = ens.q2.forward(np.concatenate([obs, a], 1), want_tape=False)
            if np.min(np.abs(q1 - q2)) < 1e-3:
                continue
            trials += 1

            def value():
                l, _ = sac.actor_loss(obs, ens, actor, alpha, hy, noise=noise)
                actor.zero_grads()
                return l

            sac.actor_loss(obs, ens, actor, alpha, hy, noise=noise)
            worst = max(worst, _fd_check_block(value, actor.param_blocks(), rng, picks=2))
        report("2b actor loss gradients", worst < 1e-6, f"50 instances, worst rel err {worst:.2e}")

    def test_temperature_loss_gradients(self):
        rng = np.random.default_rng(5)
        worst = 0.0
        for _ in range(50):
            lp = rng.standard_normal(16) - 1.0
            la, tgt = float(rng.uniform(-2, 0.5)), float(rng.uniform(-3, 3))
            _, grad = sac.temperature_loss(lp, la, tgt)
            e = 1e-6
            fd = (sac.temperature_loss(lp, la + e, tgt)[0] - sac.temperature_loss(lp, la - e, tgt)[0]) / (2 * e)
            worst = max(worst, abs(grad - fd) / max(abs(grad), abs(fd), 1e-3))
        report("2c temperature loss gradients", worst < 1e-6, f"50 instances, worst rel err {worst:.2e}")

    def test_distill_kl_gradients(self):
        rng = np.random.default_rng(6)
        worst = 0.0
        for _ in range(50):
            teacher = nn.build_mlp(3, 6, 4, rng, activation="elu", out_scale=0.05)
            student = nn.build_mlp(5, 6, 4, rng, activation="elu", out_scale=0.05)
            states = rng.standard_normal((4, 3))
            noise = rng.normal(0, 0.1, (4, 2))
            sin = np.concatenate([states, noise], axis=1)
            t_out, _ = nn.forward(teacher, states, want_tape=False)
            t_head, _ = policy.head_from_output(t_out)

            def value():
                s_out, _ = nn.forward(student, sin, want_tape=False)
                s_head, _ = policy.head_from_output(s_out)
                return float(policy.kl_diag_gaussian(s_head, t_head).mean())

            s_out, tape = nn.forward(student, sin)
            s_head, mask = policy.head_from_output(s_out)
            dmu, dls = policy.kl_grads(s_head, t_head, mask)
            nn.backward(student, tape, np.concatenate([dmu, dls], 1) / 4, want_input_grad=False)
            worst = max(worst, _fd_check_block(value, student.param_blocks(), rng, picks=2))
        report("2d distillation KL gradients", worst < 1e-6, f"50 instances, worst rel err {worst:.2e}")

    def test_distill_q_gradients(self):
        rng = np.random.default_rng(7)
        worst = 0.0
        for trial in range(50):
            t_critic = sac.VectorCritic(nn.build_mlp(5, 6, NUM_TERMS, rng, activation="elu"))
            s_critic = sac.VectorCritic(nn.build_mlp(7, 6, NUM_TERMS, rng, activation="elu"))
            w = rng.standard_normal(NUM_TERMS)
            match_vector = bool(trial % 2)
            states = rng.standard_normal((4, 3))
            field = rng.normal(0, 0.1, (4, 2))
            a_s, a_t = rng.uniform(-0.9, 0.9, (4, 2)), rng.uniform(-0.9, 0.9, (4, 2))
            qt, _ = t_critic.forward(np.concatenate([states, a_t], 1), want_tape=False)
            sin = np.concatenate([states, field, a_s], 1)

            def value():
                qs, _ = s_critic.forward(sin, want_tape=False)
                if match_vector:
                    return float(((qs - qt) ** 2).sum(axis=1).mean())
                d = (qs - qt) @ w
                return float((d * d).mean())

            qs, tape = s_critic.forward(sin)
            gq = 2.0 * (qs - qt) / 4 if match_vector else (2.0 * ((qs - qt) @ w) / 4)[:, None] * w[None, :]
            nn.backward(s_critic.net, tape, gq, want_input_grad=False)
            worst = max(worst, _fd_check_block(value, s_critic.net.param_blocks(), rng, picks=2))
        report("2e distillation Q gradients", worst < 1e-6, f"50 instances, worst rel err {worst:.2e}")


# ---------------------------------------------------------------------------
# 3. Replay suite


class TestCriterion3Replay:
    def test_sum_tree_fuzz(self):
        rng = np.random.default_rng(8)
        store = PrioritizedStore(capacity=64, alpha=0.7, n_tail=5)

        def seg():
            return Segment(
                rng.standard_normal((15, 3)), rng.standard_normal((10, 2)),
                rng.standard_normal((14, NUM_TERMS)), np.zeros(14, dtype=bool), 0, 0, 10,
            )

        ids = []
        worst = 0.0
        for op in range(10_000):
            if rng.random() < 0.5 or not ids:
                ids.append(store.append(seg(), priority=float(rng.uniform(0, 5))))
            else:
                pick = [ids[i] for i in rng.integers(0, len(ids), size=4)]
                store.update_priorities(pick, rng.uniform(0, 5, size=4))
            if op % 500 == 0:
                root, brute = store._tree.total(), store.brute_force_total()
                worst = max(worst, abs(root - brute) / max(brute, 1e-12))
        root, brute = store._tree.total(), store.brute_force_total()
        worst = max(worst, abs(root - brute) / max(brute, 1e-12))
        report("3a sum-tree vs brute force (1e4 ops)", worst < 1e-6, f"worst rel err {worst:.2e}")

    def test_sampling_frequencies_chi_square(self):
        rng = np.random.default_rng(9)
        store = PrioritizedStore(capacity=48, alpha=0.8, n_tail=5)
        priorities = rng.uniform(0.2, 4.0, size=48)
        for p in priorities:
            seg = Segment(
                rng.standard_normal((15, 3)), rng.standard_normal((10, 2)),
                rng.standard_normal((14, NUM_TERMS)), np.zeros(14, dtype=bool), 0, 0, 10,
            )
            store.append(seg, priority=float(p))
        slots = store.sample_slots(100_000, np.random.default_rng(10))
        counts = np.bincount(slots, minlength=48)
        expected = priorities**0.8
        expected = expected / expected.sum() * 100_000
        pvalue = stats.chisquare(counts, expected).pvalue
        report("3b sampling chi-square (1e5 draws)", pvalue > 0.01, f"p = {pvalue:.4f}")

    def test_segment_overlap_reconstruction(self):
        cutter = SegmentCutter(obs_dim=2, act_dim=2, episode_id=0, n_tail=5)
        cutter.begin(np.zeros(2))
        segs = []
        T = 1000
        for t in range(T):
            segs += cutter.push(np.full(2, float(t)), np.zeros(NUM_TERMS), t == T - 1, np.full(2, float(t + 1)))
        ok = len(segs) == 199
        recovered = {}
        for seg in segs:
            ok &= seg.start_index % 5 == 0
            for off in range(seg.length):
                t = seg.start_index + off
                val = (float(seg.actions[off, 0]), float(seg.obs[off, 0]))
                if t in recovered:
                    ok &= recovered[t] == val  # every overlap position agrees
                recovered[t] = val
                ok &= val == (float(t), float(t))
        ok &= len(recovered) == T  # the last full span ends exactly at the horizon
        report("3c segment overlap reconstruction", ok, f"{len(segs)} segments, {len(recovered)} steps recovered")

    def test_anneal_value(self):
        s = AnnealSchedule()
        ok = abs(s.value(1500) - 0.5) < 1e-12 and s.value(3000) == 0.9 and s.value(10**6) == 0.9
        report("3d anneal schedule", ok, f"value(1500) = {s.value(1500)}")


# ---------------------------------------------------------------------------
# 4. Distribution suite


class TestCriterion4Distribution:
    def test_kl_self_zero(self):
        rng = np.random.default_rng(11)
        worst = 0.0
        for _ in range(100):
            h = policy.GaussianHead(rng.standard_normal((1, 3)), rng.standard_normal((1, 3)) * 0.4)
            worst = max(worst, abs(policy.kl_diag_gaussian(h, h)[0]))
        report("4a KL(p, p) = 0", worst < 1e-12, f"worst {worst:.2e}")

    def test_kl_vs_monte_carlo(self):
        rng = np.random.default_rng(12)
        p = policy.GaussianHead(np.array([[0.4]]), np.array([[-0.2]]))
        q = policy.GaussianHead(np.array([[-0.3]]), np.array([[0.25]]))
        n = 10**6
        pb = policy.GaussianHead(np.repeat(p.mu, n, 0), np.repeat(p.log_sigma, n, 0))
        qb = policy.GaussianHead(np.repeat(q.mu, n, 0), np.repeat(q.log_sigma, n, 0))
        s = policy.sample(pb, rng.standard_normal((n, 1)))
        diffs = s.log_prob - policy.log_prob_of_pre_squash(qb, s.pre_squash)
        mc, se = float(diffs.mean()), float(diffs.std(ddof=1) / np.sqrt(n))
        closed = float(policy.kl_diag_gaussian(p, q)[0])
        report("4b KL closed form vs Monte Carlo", abs(mc - closed) < 3 * se, f"|{mc:.5f} - {closed:.5f}| < 3*{se:.6f}")

    def test_quadrature_normalization(self):
        worst = 0.0
        for mu, ls in [(0.0, 0.0), (0.7, -0.6), (-1.2, 0.3)]:
            grid = np.tanh(np.linspace(-12, 12, 10**4))
            h = policy.GaussianHead(np.full((grid.size, 1), mu), np.full((grid.size, 1), ls))
            total = integrate.simpson(np.exp(policy.log_prob_of_action(h, grid[:, None])), x=grid)
            worst = max(worst, abs(total - 1.0))
        report("4c squashed log-prob normalization", worst < 1e-4, f"worst |integral - 1| = {worst:.2e}")


# ---------------------------------------------------------------------------
# 5. MVRR structural suite


class TestCriterion5Mvrr:
    def test_extension_bit_exact(self):
        rng = np.random.default_rng(13)
        critic = sac.VectorCritic(nn.build_mlp(5, 8, NUM_TERMS, rng, activation="relu"))
        x = rng.standard_normal((6, 5))
        before, _ = critic.forward(x, want_tape=False)
        after, _ = sac.extend_reward_term(critic, 0.01, rng).forward(x, want_tape=False)
        ok = np.array_equal(after[:, :NUM_TERMS], before)
        report("5a extend_reward_term preserves heads", ok)

    def test_delete_equals_zero_weight(self):
        rng = np.random.default_rng(14)
        obs_dim, act_dim, i = 3, 2, 4
        q1 = sac.VectorCritic(nn.build_mlp(obs_dim + act_dim, 8, NUM_TERMS, rng, activation="elu"))
        q2 = sac.VectorCritic(nn.build_mlp(obs_dim + act_dim, 8, NUM_TERMS, rng, activation="elu"))
        ens = sac.CriticEnsemble(q1, q2, q1.copy(), q2.copy())
        cut = sac.CriticEnsemble(
            sac.remove_reward_term(q1, i), sac.remove_reward_term(q2, i),
            sac.remove_reward_term(q1, i), sac.remove_reward_term(q2, i),
        )
        actor_a = nn.build_mlp(obs_dim, 8, 2 * act_dim, rng, activation="elu", out_scale=0.05)
        actor_b = actor_a.copy()
        w = np.abs(rng.standard_normal(NUM_TERMS)) + 0.1
        w_zero = w.copy()
        w_zero[i] = 0.0
        hy_zero = sac.SacHyper(weights=w_zero)
        hy_cut = sac.SacHyper.__new__(sac.SacHyper)
        hy_cut.weights, hy_cut.gamma, hy_cut.n_step = np.delete(w, i), 0.99, 5
        hy_cut.rescale_eps, hy_cut.use_rescale, hy_cut.target_entropy, hy_cut.tau = 1e-3, True, -2.0, 0.005
        obs = rng.standard_normal((5, obs_dim))
        noise = rng.standard_normal((5, act_dim))
        la, _ = sac.actor_loss(obs, ens, actor_a, 0.3, hy_zero, noise=noise)
        lb, _ = sac.actor_loss(obs, cut, actor_b, 0.3, hy_cut, noise=noise)
        grads_equal = all(
            np.allclose(ba.gw, bb.gw, atol=1e-12) and np.allclose(ba.gb, bb.gb, atol=1e-12)
            for ba, bb in zip(actor_a.param_blocks(), actor_b.param_blocks())
        )
        ok = abs(la - lb) < 1e-12 and grads_equal
        report("5b delete row == zero weight", ok, f"|loss gap| = {abs(la - lb):.2e}")

    def test_argmax_scale_invariance(self):
        rng = np.random.default_rng(15)
        q1 = sac.VectorCritic(nn.build_mlp(5, 8, NUM_TERMS, rng, activation="relu"))
        q2 = sac.VectorCritic(nn.build_mlp(5, 8, NUM_TERMS, rng, activation="relu"))
        w = np.abs(rng.standard_normal(NUM_TERMS)) + 0.1
        ok = True
        for _ in range(20):
            obs = rng.standard_normal(3)
            cands = rng.uniform(-1, 1, (64, 2))
            rows = np.concatenate([np.tile(obs, (64, 1)), cands], axis=1)
            qa, _ = q1.forward(rows, want_tape=False)
            qb, _ = q2.forward(rows, want_tape=False)
            qmin = np.minimum(qa, qb)
            base = np.argmax(qmin @ w)
            for scale in (0.01, 0.5, 3.0, 250.0):
                ok &= np.argmax(qmin @ (scale * w)) == base
        report("5c argmax invariant under positive scaling", ok)


# ---------------------------------------------------------------------------
# 6. Learning smoke (fixed seeds, desk scale: hidden 64, 4 samplers)


PRETRAIN_SEEDS = (1, 2, 3, 4, 5)


def pretrain_cfg(seed: int) -> TrainConfig:
    # env-step cap far below the 3e5 budget; early stop at the threshold
    return TrainConfig(
        stage="pretrain", seed=seed, num_samplers=4, hidden=64, batch=32,
        total_env_steps=25_000, epoch_env_steps=2_500, single_thread=True,
        capacity=20_000, publish_every=50, lr_actor=3e-4, lr_critic=1e-3,
        stop_at_eval_speed=0.7,
    )


@pytest.fixture(scope="session")
def pretrain_runs(tmp_path_factory):
    base = tmp_path_factory.mktemp("acceptance_pretrain")
    runs = {}
    for seed in PRETRAIN_SEEDS:
        runs[seed] = pipeline.train_stage(pretrain_cfg(seed), str(base / f"seed{seed}"))
    return runs


@pytest.fixture(scope="session")
def distill_run(pretrain_runs, tmp_path_factory):
    base = tmp_path_factory.mktemp("acceptance_distill")
    first = pretrain_runs[PRETRAIN_SEEDS[0]]
    teacher = pipeline.load_checkpoint(first.checkpoint_dir)
    fp_before = (
        distill.network_fingerprint(teacher.actor)
        + distill.network_fingerprint(teacher.ensemble.q1.net)
        + distill.network_fingerprint(teacher.ensemble.q2.net)
    )
    dcfg = distill.DistillConfig(
        field_dim=242, student_hidden=64, batch=128, lr_actor=1e-3, lr_critic=1e-3,
        max_steps=12_000, kl_stop=5e-5, lr_decay_step=6_000, seed=7,
    )
    res = pipeline.run_distill_stage(first.checkpoint_dir, first.replay_dir, str(base), dcfg)
    return res, fp_before, first


@pytest.fixture(scope="session")
def finetune_run(distill_run, tmp_path_factory):
    res, _, _ = distill_run
    base = tmp_path_factory.mktemp("acceptance_finetune")
    bundle = pipeline.load_checkpoint(res.checkpoint_dir)
    cfg = TrainConfig(
        stage="finetune", seed=11, difficulty=2, num_samplers=4, hidden=64, batch=32,
        total_env_steps=60_000, epoch_env_steps=5_000, single_thread=True,
        capacity=20_000, publish_every=50, lr_actor=3e-4, lr_critic=1e-3,
        stop_at_sink_fraction=0.8,
    )
    return pipeline.train_stage(cfg, str(base), resume_actor=bundle.actor, resume_ensemble=bundle.ensemble)


@pytest.mark.slow
class TestCriterion6LearningSmoke:
    def test_6a_pretrain_speed_and_direction_spread(self, pretrain_runs):
        speeds = {s: r.final_eval.mean_speed for s, r in pretrain_runs.items()}
        dirs = {s: r.final_eval.direction for s, r in pretrain_runs.items()}
        env_caps = all(r.env_steps <= 300_000 for r in pretrain_runs.values())
        speed_ok = all(v >= 0.7 for v in speeds.values())
        units = [np.array([np.cos(d), np.sin(d)]) for d in dirs.values()]
        spread = max(
            np.degrees(np.arccos(np.clip(units[i] @ units[j], -1, 1)))
            for i in range(5)
            for j in range(i + 1, 5)
        )
        ok = env_caps and speed_ok and spread >= 60.0
        detail = (
            "speeds " + ", ".join(f"{s}:{v:.2f}" for s, v in speeds.items())
            + f"; spread {spread:.0f} deg; env steps <= " + str(max(r.env_steps for r in pretrain_runs.values()))
        )
        report("6a pretrain speed >= 0.7 and spread >= 60 deg", ok, detail)

    def test_6b_distillation_quality(self, distill_run):
        res, fp_before, first = distill_run
        teacher = pipeline.load_checkpoint(first.checkpoint_dir)
        fp_after = (
            distill.network_fingerprint(teacher.actor)
            + distill.network_fingerprint(teacher.ensemble.q1.net)
            + distill.network_fingerprint(teacher.ensemble.q2.net)
        )
        ok = res.report.mean_kl < 0.05 and res.report.max_action_deviation < 0.05 and res.teacher_unchanged and fp_before == fp_after
        report(
            "6b distill KL < 0.05, action gap < 0.05, teacher intact",
            ok,
            f"kl {res.report.mean_kl:.5f}, gap {res.report.max_action_deviation:.5f}",
        )

    def test_6c_finetune_sink_reach(self, finetune_run):
        r = finetune_run
        ok = r.final_eval.sink_reach_fraction >= 0.8 and r.env_steps <= 500_000
        report(
            "6c finetune sink-reach >= 0.8 (difficulty 2)",
            ok,
            f"fraction {r.final_eval.sink_reach_fraction:.2f} after {r.env_steps} env steps",
        )

    def test_6c_reference_points(self):
        oracle = pipeline.evaluate(pipeline.SinkSeeker(), difficulty=2, episodes=5, seed=11, horizon=1000)
        cfg = TrainConfig(stage="pretrain")
        random_actor, _ = pipeline.build_learner_nets(cfg, np.random.default_rng(0))
        rand = pipeline.evaluate(pipeline.NetPolicy(random_actor, "teacher"), difficulty=2, episodes=5, seed=11, horizon=1000)
        ok = oracle.sink_reach_fraction == 1.0 and rand.sink_reach_fraction <= 0.2
        report("6c oracle 1.0 / random ~0 reference", ok, f"oracle {oracle.sink_reach_fraction}, random {rand.sink_reach_fraction}")


# ---------------------------------------------------------------------------
# 7. Reproducibility


class TestCriterion7Reproducibility:
    def test_single_thread_bit_identical(self, tmp_path):
        fps = []
        for name in ("a", "b"):
            rc = cli.main(
                [
                    "pretrain", "--out", str(tmp_path / name),
                    "--seed", "5", "--num_samplers", "2", "--hidden", "16", "--batch", "16",
                    "--replay_ratio", "4", "--capacity", "4000", "--total_env_steps", "800",
                    "--epoch_env_steps", "400", "--single_thread", "true", "--horizon", "200",
                ]
            )
            assert rc == 0
            fps.append(pipeline.checkpoint_fingerprint(str(tmp_path / name / "checkpoint")))
        ok = fps[0] == fps[1]
        report("7 single-thread bit-identical checkpoints", ok, f"{len(fps[0])} bytes compared")


# ---------------------------------------------------------------------------
# 8. End-to-end CLI smoke


class TestCriterion8EndToEnd:
    def test_cli_pipeline_smoke(self, tmp_path):
        cfg = tmp_path / "tiny.txt"
        cfg.write_text(
            "num_samplers = 2\nhidden = 16\nbatch = 16\nreplay_ratio = 4\ncapacity = 4000\n"
            "total_env_steps = 1500\nepoch_env_steps = 750\nhorizon = 150\nsingle_thread = false\n"
        )
        rc1 = cli.main(["pretrain", "--config", str(cfg), "--out", str(tmp_path / "pre"), "--seed", "3"])
        rc2 = cli.main(
            [
                "distill", "--teacher", str(tmp_path / "pre" / "checkpoint"), "--replay", str(tmp_path / "pre" / "replay"),
                "--out", str(tmp_path / "dist"), "--student-hidden", "16", "--batch", "32",
                "--lr", "0.001", "--max-steps", "150", "--kl-stop", "1e-9",
            ]
        )
        rc3 = cli.main(
            [
                "finetune", "--config", str(cfg), "--student", str(tmp_path / "dist" / "checkpoint"),
                "--out", str(tmp_path / "fin"), "--seed", "3", "--difficulty", "2",
                "--total_env_steps", "1000", "--epoch_env_steps", "500",
            ]
        )
        rc4 = cli.main(["eval", "--checkpoint", str(tmp_path / "fin" / "checkpoint"), "--difficulty", "2", "--episodes", "2"])
        ok = (rc1, rc2, rc3, rc4) == (0, 0, 0, 0)
        report("8 end-to-end CLI pretrain->distill->finetune->eval", ok, f"exit codes {(rc1, rc2, rc3, rc4)}")
