import numpy as np
import pytest

from fieldsac import distill, nn, policy, sac
from fieldsac.errors import ConfigError
from fieldsac.rewards import NUM_TERMS


def teacher_pair(rng, obs_dim=6, act_dim=2, hidden=8):
    actor = nn.build_mlp(obs_dim, hidden, 2 * act_dim, rng, activation="elu", out_scale=0.05)
    critic = sac.VectorCritic(nn.build_mlp(obs_dim + act_dim, hidden, NUM_TERMS, rng, activation="relu"))
    return actor, critic


def student_pair(actor, critic, field_dim, hidden, rng):
    """Fresh students as ``run_distillation`` builds them."""
    obs_dim, act_dim = actor.in_dim + field_dim, actor.out_dim // 2
    return sac.build_actor(obs_dim, act_dim, hidden, rng), sac.VectorCritic.build(obs_dim, act_dim, hidden, rng, critic.n_terms)


class TestBuildStudent:
    def test_toy_dimension_arithmetic(self):
        rng = np.random.default_rng(0)
        actor, critic = teacher_pair(rng)
        s_actor, s_critic = student_pair(actor, critic, field_dim=242, hidden=16, rng=rng)
        assert s_actor.in_dim == 248
        assert s_critic.net.in_dim == 250
        assert s_actor.out_dim == actor.out_dim
        assert s_critic.n_terms == NUM_TERMS

    def test_zero_field_dim_matches_teacher_dims(self):
        rng = np.random.default_rng(1)
        actor, critic = teacher_pair(rng)
        s_actor, s_critic = student_pair(actor, critic, field_dim=0, hidden=16, rng=rng)
        assert s_actor.in_dim == actor.in_dim
        assert s_critic.net.in_dim == critic.net.in_dim

    def test_student_forward_on_zero_field_is_finite(self):
        rng = np.random.default_rng(2)
        actor, _ = teacher_pair(rng)
        s_actor = sac.build_actor(6 + 242, 2, 16, rng)
        x = np.concatenate([rng.standard_normal((3, 6)), np.zeros((3, 242))], axis=1)
        out, _ = nn.forward(s_actor, x, want_tape=False)
        assert np.isfinite(out).all()

    def test_mismatched_teacher_critic_dims_rejected(self):
        rng = np.random.default_rng(3)
        actor, _ = teacher_pair(rng)
        _, critic = teacher_pair(rng, obs_dim=5)
        cfg = distill.DistillConfig(field_dim=4, batch=8, student_hidden=8, max_steps=1)
        with pytest.raises(ConfigError, match="teacher critic expects 7 inputs"):
            distill.run_distillation(actor, critic, rng.standard_normal((16, 6)), np.ones(NUM_TERMS), cfg)


class TestClone:
    def test_cloned_actor_reproduces_teacher_under_any_field(self):
        rng = np.random.default_rng(4)
        actor, _ = teacher_pair(rng)
        clone = distill.clone_actor_into_student(actor, field_dim=10)
        obs = rng.standard_normal((5, 6))
        field = rng.standard_normal((5, 10)) * 3.0
        t_out, _ = nn.forward(actor, obs, want_tape=False)
        s_out, _ = nn.forward(clone, np.concatenate([obs, field], axis=1), want_tape=False)
        assert np.array_equal(t_out, s_out)

    def test_cloned_critic_reproduces_teacher(self):
        rng = np.random.default_rng(5)
        _, critic = teacher_pair(rng)
        clone = distill.clone_critic_into_student(critic, obs_dim=6, field_dim=10)
        obs = rng.standard_normal((5, 6))
        act = rng.uniform(-1, 1, (5, 2))
        field = rng.standard_normal((5, 10))
        t_out, _ = critic.forward(np.concatenate([obs, act], axis=1), want_tape=False)
        s_out, _ = clone.forward(np.concatenate([obs, field, act], axis=1), want_tape=False)
        assert np.array_equal(t_out, s_out)

    def test_clone_has_zero_kl_at_step_zero(self):
        rng = np.random.default_rng(6)
        actor, critic = teacher_pair(rng)
        s_actor = distill.clone_actor_into_student(actor, field_dim=4)
        s_critic = distill.clone_critic_into_student(critic, obs_dim=6, field_dim=4)
        cfg = distill.DistillConfig(field_dim=4, noise_std=0.1, batch=16)
        states = rng.standard_normal((64, 6))
        res = distill.distill_step(s_actor, s_critic, actor, critic, states[:16], rng, cfg, np.ones(NUM_TERMS))
        assert res.kl_loss == pytest.approx(0.0, abs=1e-15)


class TestDistillStep:
    def test_losses_nonnegative_and_finite(self):
        rng = np.random.default_rng(7)
        actor, critic = teacher_pair(rng)
        cfg = distill.DistillConfig(field_dim=8, batch=16, student_hidden=8)
        s_actor, s_critic = student_pair(actor, critic, 8, 8, rng)
        for _ in range(20):
            states = rng.standard_normal((16, 6))
            res = distill.distill_step(s_actor, s_critic, actor, critic, states, rng, cfg, np.ones(NUM_TERMS))
            assert res.kl_loss >= 0.0 and res.q_loss >= 0.0
            assert np.isfinite(res.kl_loss) and np.isfinite(res.q_loss)

    def test_teachers_bit_identical_after_training(self):
        rng = np.random.default_rng(8)
        actor, critic = teacher_pair(rng)
        fp_a = distill.network_fingerprint(actor)
        fp_c = distill.network_fingerprint(critic.net)
        cfg = distill.DistillConfig(field_dim=6, batch=8, student_hidden=8, max_steps=30, kl_stop=1e-9)
        states = rng.standard_normal((64, 6))
        distill.run_distillation(actor, critic, states, np.ones(NUM_TERMS), cfg)
        assert distill.network_fingerprint(actor) == fp_a
        assert distill.network_fingerprint(critic.net) == fp_c

    def test_zero_noise_std_gives_zero_field_input(self, monkeypatch):
        rng = np.random.default_rng(9)
        actor, critic = teacher_pair(rng)
        cfg = distill.DistillConfig(field_dim=5, noise_std=0.0, batch=4, student_hidden=8)
        s_actor = distill.clone_actor_into_student(actor, 5)
        s_critic = distill.clone_critic_into_student(critic, 6, 5)
        states = rng.standard_normal((4, 6))
        # with a field-insensitive clone and zero noise, the step reduces to
        # matching teacher outputs exactly: KL 0 and zero actor gradient,
        # read as Adam receives it (the step zeroes it afterwards)
        actor_gw = []
        adam_step_net = nn.adam_step_net

        def record_then_step(net, lr):
            if net is s_actor:
                actor_gw.extend(blk.gw.copy() for blk in net.param_blocks())
            adam_step_net(net, lr)

        monkeypatch.setattr(nn, "adam_step_net", record_then_step)
        res = distill.distill_step(s_actor, s_critic, actor, critic, states, rng, cfg, np.ones(NUM_TERMS))
        assert res.kl_loss == pytest.approx(0.0, abs=1e-15)
        assert len(actor_gw) == len(s_actor.param_blocks())
        for gw in actor_gw:
            assert np.allclose(gw, 0.0, atol=1e-12)

    def test_kl_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(10)
        worst = 0.0
        for _ in range(50):
            actor, critic = teacher_pair(rng, obs_dim=3, act_dim=2, hidden=6)
            cfg = distill.DistillConfig(field_dim=2, batch=4, student_hidden=6)
            s_actor = sac.build_actor(3 + 2, 2, 6, rng)
            states = rng.standard_normal((4, 3))
            noise = rng.normal(0, cfg.noise_std, (4, 2))
            student_in = np.concatenate([states, noise], axis=1)
            t_out, _ = nn.forward(actor, states, want_tape=False)
            t_head, _ = policy.head_from_output(t_out)

            def kl_value():
                s_out, _ = nn.forward(s_actor, student_in, want_tape=False)
                s_head, _ = policy.head_from_output(s_out)
                return float(policy.kl_diag_gaussian(s_head, t_head).mean())

            s_out, s_tape = nn.forward(s_actor, student_in)
            s_head, s_mask = policy.head_from_output(s_out)
            dmu, dls = policy.kl_grads(s_head, t_head, s_mask)
            nn.backward(s_actor, s_tape, np.concatenate([dmu, dls], axis=1) / 4, want_input_grad=False)
            analytic = [(b.gw.copy(), b.gb.copy()) for b in s_actor.param_blocks()]
            s_actor.zero_grads()
            step = 1e-5
            for bi, blk in enumerate(s_actor.param_blocks()):
                for arr, ga in ((blk.w, analytic[bi][0]), (blk.b, analytic[bi][1])):
                    flat = arr.reshape(-1)
                    for j in rng.integers(0, flat.size, size=min(3, flat.size)):
                        orig = flat[j]
                        flat[j] = orig + step
                        up = kl_value()
                        flat[j] = orig - step
                        dn = kl_value()
                        flat[j] = orig
                        fd = (up - dn) / (2 * step)
                        an = ga.reshape(-1)[j]
                        worst = max(worst, abs(an - fd) / max(abs(an), abs(fd), 1e-3))
        assert worst < 1e-6, worst

    def test_q_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        worst = 0.0
        for trial in range(50):
            actor, critic = teacher_pair(rng, obs_dim=3, act_dim=2, hidden=6)
            cfg = distill.DistillConfig(field_dim=2, batch=4, student_hidden=6, match_vector=bool(trial % 2))
            s_critic = sac.VectorCritic(nn.build_mlp(3 + 2 + 2, 6, NUM_TERMS, rng, activation="elu"))
            w = rng.standard_normal(NUM_TERMS)
            states = rng.standard_normal((4, 3))
            field = rng.normal(0, cfg.noise_std, (4, 2))
            a_s = rng.uniform(-0.9, 0.9, (4, 2))
            a_t = rng.uniform(-0.9, 0.9, (4, 2))
            qt, _ = critic.forward(np.concatenate([states, a_t], axis=1), want_tape=False)
            crit_in = np.concatenate([states, field, a_s], axis=1)

            def q_value():
                qs, _ = s_critic.forward(crit_in, want_tape=False)
                if cfg.match_vector:
                    return float(((qs - qt) ** 2).sum(axis=1).mean())
                d = (qs - qt) @ w
                return float((d * d).mean())

            qs, q_tape = s_critic.forward(crit_in)
            if cfg.match_vector:
                gq = 2.0 * (qs - qt) / 4
            else:
                gq = (2.0 * ((qs - qt) @ w) / 4)[:, None] * w[None, :]
            nn.backward(s_critic.net, q_tape, gq, want_input_grad=False)
            analytic = [(b.gw.copy(), b.gb.copy()) for b in s_critic.net.param_blocks()]
            s_critic.net.zero_grads()
            step = 1e-5
            for bi, blk in enumerate(s_critic.net.param_blocks()):
                for arr, ga in ((blk.w, analytic[bi][0]), (blk.b, analytic[bi][1])):
                    flat = arr.reshape(-1)
                    for j in rng.integers(0, flat.size, size=min(3, flat.size)):
                        orig = flat[j]
                        flat[j] = orig + step
                        up = q_value()
                        flat[j] = orig - step
                        dn = q_value()
                        flat[j] = orig
                        fd = (up - dn) / (2 * step)
                        an = ga.reshape(-1)[j]
                        worst = max(worst, abs(an - fd) / max(abs(an), abs(fd), 1e-3))
        assert worst < 1e-6, worst


class TestVerify:
    def test_clone_reports_zero_deviation(self):
        rng = np.random.default_rng(12)
        actor, _ = teacher_pair(rng)
        clone = distill.clone_actor_into_student(actor, 8)
        report = distill.verify_distillation(clone, actor, rng.standard_normal((32, 6)), 8)
        assert report.mean_kl == pytest.approx(0.0, abs=1e-15)
        assert report.max_action_deviation == pytest.approx(0.0, abs=1e-15)
        assert report.passed

    def test_random_student_fails_thresholds(self):
        rng = np.random.default_rng(13)
        actor, _ = teacher_pair(rng)
        random_student = sac.build_actor(6 + 8, 2, 16, np.random.default_rng(999))
        report = distill.verify_distillation(random_student, actor, rng.standard_normal((32, 6)) * 2, 8)
        assert not report.passed

    def test_convergence_on_constant_teacher(self):
        # teacher with constant output head: students converge quickly
        rng = np.random.default_rng(14)
        actor, critic = teacher_pair(rng, obs_dim=2, act_dim=1, hidden=6)
        for blk in actor.param_blocks():
            blk.w[:] = 0.0
            blk.b[:] = 0.0
        actor.blocks[-1].b[:] = np.array([0.4, -0.5])  # fixed mu, log_sigma
        actor.bump_version()
        cfg = distill.DistillConfig(field_dim=2, batch=32, student_hidden=6, max_steps=2000, kl_stop=1e-5, lr_actor=3e-3, lr_critic=3e-3, seed=5)
        states = rng.standard_normal((256, 2))
        s_actor, s_critic, history = distill.run_distillation(actor, critic, states, np.ones(NUM_TERMS), cfg)
        assert history[-1].kl_loss < 1e-4

    def test_metrics_csv_written(self, tmp_path):
        rng = np.random.default_rng(15)
        actor, critic = teacher_pair(rng, obs_dim=2, act_dim=1, hidden=6)
        cfg = distill.DistillConfig(field_dim=2, batch=8, student_hidden=6, max_steps=5, kl_stop=1e-12)
        path = str(tmp_path / "distill.csv")
        distill.run_distillation(actor, critic, rng.standard_normal((32, 2)), np.ones(NUM_TERMS), cfg, metrics_path=path)
        with open(path) as f:
            rows = f.read().strip().split("\n")
        assert rows[0] == "step,kl_loss,q_loss"
        assert len(rows) >= 2
        step, kl, q = rows[1].split(",")
        assert float(kl) >= 0.0 and float(q) >= 0.0

    def test_stopping_step_written_once(self, tmp_path):
        # the stop lands on step 49 = max_steps - 1, a logged step: its row
        # used to appear twice
        rng = np.random.default_rng(15)
        actor, critic = teacher_pair(rng, obs_dim=2, act_dim=1, hidden=6)
        cfg = distill.DistillConfig(field_dim=2, batch=8, student_hidden=6, max_steps=50, kl_stop=1e9)
        path = str(tmp_path / "distill.csv")
        _, _, history = distill.run_distillation(actor, critic, rng.standard_normal((32, 2)), np.ones(NUM_TERMS), cfg, metrics_path=path)
        with open(path) as f:
            steps = [row.split(",")[0] for row in f.read().strip().split("\n")[1:]]
        assert len(history) == 50 and steps == ["0", "49"]
