import threading
import tracemalloc

import numpy as np
import pytest

from fieldsac import nn, policy, sac
from fieldsac.errors import ConfigError, ContractViolation, NumericFault
from fieldsac.replay import SampleBatch
from fieldsac.rewards import NUM_TERMS


def hyper(weights=None, **kw):
    w = np.ones(NUM_TERMS) if weights is None else np.asarray(weights, dtype=float)
    return sac.SacHyper(weights=w, **kw)


def oracle_targets(rewards, dones, boot_q, hy):
    """Literal unroll of the n-step definition, one coordinate at a time."""
    B, L_r, C = rewards.shape
    n = hy.n_step
    L = L_r - n + 1
    y = np.zeros((B, L, C))
    for b in range(B):
        for t in range(L):
            for c in range(C):
                g, dead = 0.0, False
                for k in range(n):
                    if dead:
                        break
                    g += hy.gamma**k * rewards[b, t + k, c]
                    if dones[b, t + k]:
                        dead = True
                boot = 0.0 if dead else float(hy.rescale_inv(boot_q[b, t, c]))
                y[b, t, c] = float(hy.rescale(g + hy.gamma**n * boot))
    return y


def random_target_inputs(rng, B=4, L=6, n=3, C=NUM_TERMS, p_done=0.15):
    rewards = rng.standard_normal((B, L + n - 1, C))
    dones = rng.random((B, L + n - 1)) < p_done
    boot_q = rng.standard_normal((B, L, C))
    return rewards, dones, boot_q


class TestRescaling:
    def test_odd_and_zero(self):
        assert sac.h(0.0) == 0.0
        for x in (0.5, 3.0, 120.0):
            assert sac.h(-x) == pytest.approx(-sac.h(x))

    def test_worked_value(self):
        assert sac.h(3.0, eps=1e-3) == pytest.approx(1.003, abs=1e-12)

    def test_round_trip_reference_points(self):
        for x in (-100.0, -10.0, -1.0, 0.0, 1.0, 10.0, 100.0):
            assert sac.h_inv(sac.h(x)) == pytest.approx(x, abs=1e-9)

    def test_round_trip_dense_grid(self):
        xs = np.linspace(-1e4, 1e4, 10_001)
        back = sac.h_inv(sac.h(xs))
        assert np.max(np.abs(back - xs) / np.maximum(1.0, np.abs(xs))) < 1e-9

    def test_strictly_increasing_on_grid(self):
        xs = np.linspace(-1e4, 1e4, 10_000)
        ys = sac.h(xs)
        assert np.all(np.diff(ys) > 0.0)

    def test_inverse_matches_bisection(self):
        rng = np.random.default_rng(0)
        for y in rng.uniform(-50, 50, size=20):
            lo, hi = -1e7, 1e7
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if sac.h(mid) < y:
                    lo = mid
                else:
                    hi = mid
            assert sac.h_inv(y) == pytest.approx(0.5 * (lo + hi), rel=1e-8, abs=1e-8)


class TestNStepTargets:
    def test_one_step_identity_rescaling_reduces_to_td0(self):
        rng = np.random.default_rng(1)
        hy = hyper(n_step=1, use_rescale=False, gamma=0.9)
        rewards = rng.standard_normal((2, 5, NUM_TERMS))
        dones = np.zeros((2, 5), dtype=bool)
        boot = rng.standard_normal((2, 5, NUM_TERMS))
        y = sac.n_step_targets(rewards, dones, boot, hy)
        assert np.allclose(y, rewards + 0.9 * boot)

    def test_geometric_sum_with_terminal(self):
        hy = hyper(n_step=3, use_rescale=False, gamma=0.99)
        rewards = np.ones((1, 3, NUM_TERMS))
        dones = np.zeros((1, 3), dtype=bool)
        dones[0, 2] = True  # terminal right after the third reward
        boot = np.full((1, 1, NUM_TERMS), 123.0)  # must be ignored
        y = sac.n_step_targets(rewards, dones, boot, hy)
        assert np.allclose(y, 1 + 0.99 + 0.99**2)
        assert y[0, 0, 0] == pytest.approx(2.9701)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_matches_brute_force_oracle(self, n):
        rng = np.random.default_rng(n)
        for use_rescale in (False, True):
            hy = hyper(n_step=n, use_rescale=use_rescale)
            for _ in range(100):
                rewards, dones, boot = random_target_inputs(rng, n=n)
                y = sac.n_step_targets(rewards, dones, boot, hy)
                assert np.max(np.abs(y - oracle_targets(rewards, dones, boot, hy))) < 1e-6

    def test_bellman_linearity_under_identity_rescaling(self):
        rng = np.random.default_rng(2)
        w = rng.standard_normal(NUM_TERMS)
        hy_vec = hyper(weights=w, n_step=4, use_rescale=False)
        hy_scl = sac.SacHyper(weights=np.ones(NUM_TERMS), n_step=4, use_rescale=False)
        for _ in range(1000):
            rewards, dones, boot = random_target_inputs(rng, B=1, L=4, n=4)
            y_vec = sac.n_step_targets(rewards, dones, boot, hy_vec) @ w
            y_scl = sac.n_step_targets(
                np.repeat((rewards @ w)[:, :, None], NUM_TERMS, axis=2),
                dones,
                np.repeat((boot @ w)[:, :, None], NUM_TERMS, axis=2),
                hy_scl,
            )[:, :, 0]
            assert np.max(np.abs(y_vec - y_scl)) < 1e-9

    def test_rescaling_breaks_linearity(self):
        # documents the per-coordinate rescaling choice: with h active the
        # scalarized target differs from the scalarization of the targets
        rng = np.random.default_rng(3)
        w = np.ones(NUM_TERMS)
        hy = hyper(n_step=2, use_rescale=True)
        rewards, dones, boot = random_target_inputs(rng, B=1, L=3, n=2, p_done=0.0)
        y_vec = sac.n_step_targets(rewards, dones, boot, hy) @ w
        y_scl = sac.n_step_targets(
            np.repeat((rewards @ w)[:, :, None], NUM_TERMS, axis=2),
            dones,
            np.repeat((boot @ w)[:, :, None], NUM_TERMS, axis=2),
            hy,
        )[:, :, 0]
        assert np.max(np.abs(y_vec - y_scl)) > 1e-6

    def test_short_slice_rejected(self):
        hy = hyper(n_step=5)
        with pytest.raises(ContractViolation):
            sac.n_step_targets(np.zeros((1, 3, NUM_TERMS)), np.zeros((1, 3), dtype=bool), np.zeros((1, 1, NUM_TERMS)), hy)


def constant_critic(obs_dim, act_dim, bias, n_terms=1):
    """Critic whose output is a constant vector regardless of input."""
    specs = [nn.LayerSpec("linear", obs_dim + act_dim, n_terms)]
    blk = nn.ParamBlock(np.zeros((obs_dim + act_dim, n_terms)), np.full(n_terms, float(bias)))
    return sac.VectorCritic(nn.Network(specs, [blk]))


def tiny_actor(rng, obs_dim, act_dim, hidden=8):
    return nn.build_mlp(obs_dim, hidden, 2 * act_dim, rng, hidden_blocks=1, activation="elu", out_scale=0.05)


def tiny_ensemble(rng, obs_dim, act_dim, hidden=8, n_terms=NUM_TERMS):
    def build():
        return sac.VectorCritic(nn.build_mlp(obs_dim + act_dim, hidden, n_terms, rng, hidden_blocks=1, activation="elu"))

    return sac.CriticEnsemble.of(build(), build())


def tiny_batch(rng, B=3, L=4, n=2, obs_dim=3, act_dim=2, full=True):
    lengths = np.full(B, L, dtype=np.int64) if full else rng.integers(1, L + 1, size=B)
    dones = np.zeros((B, L + n - 1), dtype=bool)
    for b in range(B):
        if lengths[b] < L:
            dones[b, lengths[b] - 1 :] = True
    return SampleBatch(
        obs=rng.standard_normal((B, L + n, obs_dim)),
        actions=rng.uniform(-0.9, 0.9, (B, L, act_dim)),
        rewards=rng.standard_normal((B, L + n - 1, NUM_TERMS)),
        dones=dones,
        lengths=lengths,
        ids=[(b, 1) for b in range(B)],
        weights=rng.uniform(0.5, 1.0, B),
    )


class TestCriticLoss:
    def test_perfect_predictions_give_zero_loss(self):
        # constant critics at bias 0, zero rewards, terminal right away:
        # y = 0 everywhere and Q = 0
        hy = hyper(n_step=1, use_rescale=False)
        q = constant_critic(3, 2, 0.0, NUM_TERMS)
        ens = sac.CriticEnsemble(q, q.copy(), q.copy(), q.copy())
        rng = np.random.default_rng(4)
        actor = tiny_actor(rng, 3, 2)
        batch = tiny_batch(rng, B=2, L=3, n=1)
        batch.rewards[:] = 0.0
        batch.dones[:] = True
        batch.dones[:, 1:] = True
        batch.lengths[:] = 1
        batch.dones[:, 0] = True
        res = sac.critic_loss(batch, ens, actor, hy, rng=rng)
        assert res.loss == pytest.approx(0.0, abs=1e-15)
        assert np.all(res.td_magnitudes == 0.0)

    def test_single_sample_arithmetic(self):
        # one sample, one trained position, single coordinate weight:
        # ŷ = 0 (terminal, zero reward); q1 deviates by 2, q2 exact
        hy = sac.SacHyper(weights=np.eye(NUM_TERMS)[0], n_step=1, use_rescale=False)
        q1 = constant_critic(3, 2, 2.0, NUM_TERMS)
        q2 = constant_critic(3, 2, 0.0, NUM_TERMS)
        ens = sac.CriticEnsemble(q1, q2, q1.copy(), q2.copy())
        rng = np.random.default_rng(5)
        actor = tiny_actor(rng, 3, 2)
        batch = tiny_batch(rng, B=1, L=1, n=1)
        batch.rewards[:] = 0.0
        batch.dones[:] = True
        batch.lengths[:] = 1
        batch.weights[:] = 1.0
        res = sac.critic_loss(batch, ens, actor, hy, rng=rng)
        # only coordinate 0 is weighted in the TD magnitude, but the loss
        # sums every coordinate: 7 * (1/2) * 2^2 for the deviating twin
        assert res.loss == pytest.approx(NUM_TERMS * 2.0)
        assert res.td_magnitudes[0, 0] == pytest.approx(1.0)  # twin mean (2+0)/2
        # both twins deviating equally doubles the loss
        ens2 = sac.CriticEnsemble(q1, q1.copy(), q1.copy(), q1.copy())
        res2 = sac.critic_loss(batch, ens2, actor, hy, rng=rng)
        assert res2.loss == pytest.approx(NUM_TERMS * 4.0)

    def test_zero_weight_removes_coordinate_from_td_not_loss(self):
        rng = np.random.default_rng(6)
        ens = tiny_ensemble(rng, 3, 2)
        actor = tiny_actor(rng, 3, 2)
        batch = tiny_batch(rng)
        noise = rng.standard_normal((batch.actions.shape[0] * batch.actions.shape[1], 2))
        w_full = np.ones(NUM_TERMS)
        w_cut = w_full.copy()
        w_cut[3] = 0.0
        res_full = sac.critic_loss(batch, ens, actor, hyper(weights=w_full, n_step=2), boot_noise=noise)
        ens.q1.net.zero_grads()
        ens.q2.net.zero_grads()
        res_cut = sac.critic_loss(batch, ens, actor, hyper(weights=w_cut, n_step=2), boot_noise=noise)
        assert res_full.loss == pytest.approx(res_cut.loss)
        assert not np.allclose(res_full.td_magnitudes, res_cut.td_magnitudes)

    def test_importance_weights_scale_gradients(self):
        rng = np.random.default_rng(7)
        ens = tiny_ensemble(rng, 3, 2)
        actor = tiny_actor(rng, 3, 2)
        batch = tiny_batch(rng, B=2)
        noise = rng.standard_normal((batch.actions.shape[0] * batch.actions.shape[1], 2))
        batch.weights[:] = 1.0
        sac.critic_loss(batch, ens, actor, hyper(n_step=2), boot_noise=noise)
        g1 = ens.q1.net.param_blocks()[0].gw.copy()
        ens.q1.net.zero_grads()
        ens.q2.net.zero_grads()
        batch.weights[:] = 0.5
        sac.critic_loss(batch, ens, actor, hyper(n_step=2), boot_noise=noise)
        g2 = ens.q1.net.param_blocks()[0].gw.copy()
        assert np.allclose(g2, 0.5 * g1)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(8)
        worst = 0.0
        for trial in range(50):
            ens = tiny_ensemble(rng, 3, 2, hidden=6)
            actor = tiny_actor(rng, 3, 2, hidden=6)
            hy = hyper(n_step=2, use_rescale=bool(trial % 2))
            batch = tiny_batch(rng, B=2, L=3, n=2, full=bool(trial % 3))
            noise = rng.standard_normal((6, 2))

            def loss_value():
                r = sac.critic_loss(batch, ens, actor, hy, boot_noise=noise)
                ens.q1.net.zero_grads()
                ens.q2.net.zero_grads()
                return r.loss

            sac.critic_loss(batch, ens, actor, hy, boot_noise=noise)
            analytic_by_net = {
                id(net): [(b.gw.copy(), b.gb.copy()) for b in net.param_blocks()]
                for net in (ens.q1.net, ens.q2.net)
            }
            ens.q1.net.zero_grads()
            ens.q2.net.zero_grads()
            for net in (ens.q1.net, ens.q2.net):
                analytic = analytic_by_net[id(net)]
                step = 1e-5
                for bi, blk in enumerate(net.param_blocks()):
                    for arr, ga in ((blk.w, analytic[bi][0]), (blk.b, analytic[bi][1])):
                        flat = arr.reshape(-1)
                        idx = rng.integers(0, flat.size, size=min(4, flat.size))
                        for j in idx:
                            orig = flat[j]
                            flat[j] = orig + step
                            up = loss_value()
                            flat[j] = orig - step
                            dn = loss_value()
                            flat[j] = orig
                            fd = (up - dn) / (2 * step)
                            an = ga.reshape(-1)[j]
                            rel = abs(an - fd) / max(abs(an), abs(fd), 1e-3)
                            worst = max(worst, rel)
        assert worst < 1e-6, worst


class TestActorLoss:
    def test_alpha_zero_constant_critic_gives_zero_gradient(self):
        rng = np.random.default_rng(9)
        q = constant_critic(3, 2, 1.7, NUM_TERMS)
        ens = sac.CriticEnsemble(q, q.copy(), q.copy(), q.copy())
        actor = tiny_actor(rng, 3, 2)
        obs = rng.standard_normal((5, 3))
        loss, _ = sac.actor_loss(obs, ens, actor, alpha=0.0, hyper=hyper(), rng=rng)
        for blk in actor.param_blocks():
            assert np.allclose(blk.gw, 0.0) and np.allclose(blk.gb, 0.0)

    def test_doubling_weights_doubles_q_term(self):
        rng = np.random.default_rng(10)
        ens = tiny_ensemble(rng, 3, 2)
        actor = tiny_actor(rng, 3, 2)
        obs = rng.standard_normal((6, 3))
        noise = rng.standard_normal((6, 2))
        w = np.abs(rng.standard_normal(NUM_TERMS)) + 0.1
        l1, _ = sac.actor_loss(obs, ens, actor, 0.0, hyper(weights=w), noise=noise)
        actor.zero_grads()
        l2, _ = sac.actor_loss(obs, ens, actor, 0.0, hyper(weights=2 * w), noise=noise)
        actor.zero_grads()
        assert l2 == pytest.approx(2 * l1)

    def test_argmax_invariant_under_positive_scaling(self):
        rng = np.random.default_rng(11)
        ens = tiny_ensemble(rng, 3, 2)
        w = np.abs(rng.standard_normal(NUM_TERMS)) + 0.1
        obs = rng.standard_normal(3)
        candidates = rng.uniform(-1, 1, (32, 2))
        rows = np.concatenate([np.tile(obs, (32, 1)), candidates], axis=1)
        q1, _ = ens.q1.forward(rows, want_tape=False)
        q2, _ = ens.q2.forward(rows, want_tape=False)
        qmin = np.minimum(q1, q2)
        for scale in (0.5, 1.0, 3.7, 100.0):
            assert np.argmax(qmin @ (scale * w)) == np.argmax(qmin @ w)

    def test_gradients_match_finite_differences(self):
        self._check_gradients_against_finite_differences()

    def test_gradients_over_blocks_match_finite_differences(self, monkeypatch):
        # 3-row blocks split the 4 rows into a full and a ragged block
        monkeypatch.setattr(sac, "_ACTOR_BLOCK_ROWS", 3)
        self._check_gradients_against_finite_differences()

    @staticmethod
    def _check_gradients_against_finite_differences():
        rng = np.random.default_rng(12)
        worst = 0.0
        trials = 0
        while trials < 50:
            ens = tiny_ensemble(rng, 3, 2, hidden=6)
            actor = tiny_actor(rng, 3, 2, hidden=6)
            hy = hyper(weights=rng.standard_normal(NUM_TERMS))
            obs = rng.standard_normal((4, 3))
            noise = rng.standard_normal((4, 2))
            alpha = float(rng.uniform(0.0, 0.5))

            # margin guard: FD across a twin-min crossing is invalid
            out, _ = nn.forward(actor, obs, want_tape=False)
            head, _ = policy.head_from_output(out)
            a = policy.sample(head, noise).action
            q1, _ = ens.q1.forward(np.concatenate([obs, a], 1), want_tape=False)
            q2, _ = ens.q2.forward(np.concatenate([obs, a], 1), want_tape=False)
            if np.min(np.abs(q1 - q2)) < 1e-3:
                continue
            trials += 1

            def loss_value():
                l, _ = sac.actor_loss(obs, ens, actor, alpha, hy, noise=noise)
                actor.zero_grads()
                return l

            sac.actor_loss(obs, ens, actor, alpha, hy, noise=noise)
            analytic = [(b.gw.copy(), b.gb.copy()) for b in actor.param_blocks()]
            actor.zero_grads()
            step = 1e-5
            for bi, blk in enumerate(actor.param_blocks()):
                for arr, ga in ((blk.w, analytic[bi][0]), (blk.b, analytic[bi][1])):
                    flat = arr.reshape(-1)
                    idx = rng.integers(0, flat.size, size=min(3, flat.size))
                    for j in idx:
                        orig = flat[j]
                        flat[j] = orig + step
                        up = loss_value()
                        flat[j] = orig - step
                        dn = loss_value()
                        flat[j] = orig
                        fd = (up - dn) / (2 * step)
                        an = ga.reshape(-1)[j]
                        rel = abs(an - fd) / max(abs(an), abs(fd), 1e-3)
                        worst = max(worst, rel)
        assert worst < 1e-6, worst

    def test_gradient_descent_finds_synthetic_critic_optimum(self):
        # critic is an exact piecewise-linear rendering of -(a0 - 0.3)^2
        # with a kink node at 0.3, so the argmax is exactly 0.3
        rng = np.random.default_rng(13)
        obs_dim, act_dim = 1, 1
        nodes = np.unique(np.concatenate([np.linspace(-1.2, 1.2, 49), [0.3]]))
        f = -((nodes - 0.3) ** 2)
        slopes = np.diff(f) / np.diff(nodes)
        k = nodes[:-1]
        w1 = np.zeros((obs_dim + act_dim, k.size + 1))
        b1 = np.zeros(k.size + 1)
        w1[obs_dim, 0] = 1.0
        b1[0] = 10.0  # affine carrier: relu(a + 10) = a + 10 on (-1, 1)
        w1[obs_dim, 1:] = 1.0
        b1[1:] = -k
        w2 = np.zeros((k.size + 1, NUM_TERMS))
        w2[0, 0] = slopes[0]
        w2[1:, 0] = np.diff(slopes, prepend=slopes[0])
        b2 = np.zeros(NUM_TERMS)
        b2[0] = f[0] - slopes[0] * (k[0] + 10.0)
        specs = [nn.LayerSpec("linear", 2, k.size + 1), nn.LayerSpec("relu", k.size + 1, k.size + 1), nn.LayerSpec("linear", k.size + 1, NUM_TERMS)]
        qnet = nn.Network(specs, [nn.ParamBlock(w1, b1), None, nn.ParamBlock(w2, b2)])
        critic = sac.VectorCritic(qnet)
        probe = np.array([[0.0, 0.3]])
        assert critic.forward(probe, want_tape=False)[0][0, 0] == pytest.approx(0.0, abs=1e-12)
        ens = sac.CriticEnsemble(critic, critic.copy(), critic.copy(), critic.copy())
        actor = tiny_actor(rng, obs_dim, act_dim, hidden=8)
        hy = hyper(weights=np.eye(NUM_TERMS)[0])
        obs = np.zeros((16, 1))
        for step_i in range(4000):
            sac.actor_loss(obs, ens, actor, 0.0, hy, rng=rng)
            lr = 3e-3 if step_i < 3000 else 1e-4
            nn.adam_step_net(actor, lr)
        out, _ = nn.forward(actor, np.zeros((1, 1)), want_tape=False)
        head, _ = policy.head_from_output(out)
        final = policy.deterministic_action(head)[0, 0]
        assert final == pytest.approx(0.3, abs=1e-3)


class TestTwinThreads:
    """With every pass split over two lanes, each output must be the same
    bits whether the second halves run on the worker thread or after the
    first halves on the calling thread."""

    @staticmethod
    def _losses():
        rng = np.random.default_rng(60)
        ens, actor = tiny_ensemble(rng, 3, 2), tiny_actor(rng, 3, 2)
        batch = tiny_batch(rng, full=False)
        hy = hyper(n_step=2)
        res = sac.critic_loss(batch, ens, actor, hy, rng=np.random.default_rng(1))
        loss, logp = sac.actor_loss(batch.obs[:, :4].reshape(-1, 3), ens, actor, 0.2, hy, rng=np.random.default_rng(2))
        arrays = [res.td_magnitudes, res.segment_priorities, res.targets, logp, actor.arena.grads]
        arrays += [c.net.arena.grads for c in (ens.q1, ens.q2)]  # the targets hold no gradients
        return res.loss, loss, arrays

    def test_critic_and_actor_losses_same_bits_threaded_or_not(self, monkeypatch):
        monkeypatch.setattr(nn, "_BOTH_MIN_WORK", 0)
        threaded = self._losses()
        with nn._LANE_OPEN:  # the worker is held: second halves run after the first
            sequential = self._losses()
        assert threaded[:2] == sequential[:2]
        for a, b in zip(threaded[2], sequential[2]):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
        assert threaded[2][4].any() and threaded[2][5].any()  # the actor and q1 gradients are live


class TestStaggeredLanes:
    """``critic_loss`` staggers the twin critics rather than pairing their
    passes: q1's forward, loss check and backward all run before q2's
    forward.  It checks q1's half of the loss before q1's backward and the
    whole loss before q2's, with passes split over both lanes or whole."""

    @staticmethod
    def _setup(seed):
        rng = np.random.default_rng(seed)
        return tiny_ensemble(rng, 3, 2), tiny_actor(rng, 3, 2), tiny_batch(rng, full=False)

    @staticmethod
    def _grads(ens, actor):
        return [n.arena.grads.copy() for n in (ens.q1.net, ens.q2.net, actor)]

    @pytest.mark.parametrize("gate", [0, 1 << 62])
    def test_fault_in_targets_leaves_every_gradient_untouched(self, gate, monkeypatch):
        monkeypatch.setattr(nn, "_BOTH_MIN_WORK", gate)
        ens, actor, batch = self._setup(64)
        for net in (ens.q1.net, ens.q2.net, actor):
            net.arena.grads[:] = np.random.default_rng(5).standard_normal(net.arena.grads.size)
        before = self._grads(ens, actor)
        batch.rewards[0, 0, 0] = np.nan
        threads = threading.active_count()
        with pytest.raises(NumericFault, match="non-finite critic loss"):
            sac.critic_loss(batch, ens, actor, hyper(n_step=2), rng=np.random.default_rng(1))
        assert threading.active_count() == threads
        for a, b in zip(self._grads(ens, actor), before):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("gate", [0, 1 << 62])
    def test_fault_in_q2_forward_comes_after_q1_backward(self, gate, monkeypatch):
        monkeypatch.setattr(nn, "_BOTH_MIN_WORK", gate)
        ens, actor, batch = self._setup(65)
        ens.q2.net.blocks[-1].b[0] = np.inf
        threads = threading.active_count()
        with pytest.raises(NumericFault, match="non-finite output"):
            sac.critic_loss(batch, ens, actor, hyper(n_step=2), rng=np.random.default_rng(1))
        assert threading.active_count() == threads
        g1, g2, ga = self._grads(ens, actor)
        assert g1.any() and np.isfinite(g1).all()
        assert not g2.any() and not ga.any()


class TestActorBlocks:
    """``actor_loss`` runs its critic pair over row blocks.  A ragged split
    changes no bit of the loss or the log-probs, leaves the critics'
    gradients zero and moves the actor's by rounding only; a fault in a
    block touches no gradient and leaves no thread behind."""

    @staticmethod
    def _setup(seed):
        rng = np.random.default_rng(seed)
        ens, actor = tiny_ensemble(rng, 3, 2), tiny_actor(rng, 3, 2)
        return ens, actor, rng.standard_normal((10, 3)), hyper(weights=rng.standard_normal(NUM_TERMS))

    @pytest.mark.parametrize("gate", [0, 1 << 62])
    def test_blocks_give_the_same_loss_and_log_probs(self, gate, monkeypatch):
        monkeypatch.setattr(nn, "_BOTH_MIN_WORK", gate)
        runs = []
        # blocks of 6 and 4 rows, then one block; at gate 0 every half has
        # at least 2 rows, since numpy runs a 1-row product as a
        # matrix-vector product, whose bits differ from a GEMM's
        for block_rows in (6, 16):
            monkeypatch.setattr(sac, "_ACTOR_BLOCK_ROWS", block_rows)
            ens, actor, obs, hy = self._setup(80)
            loss, logp = sac.actor_loss(obs, ens, actor, 0.2, hy, rng=np.random.default_rng(3))
            assert not ens.q1.net.arena.grads.any() and not ens.q2.net.arena.grads.any()
            runs.append((loss, logp, actor.arena.grads))
        (loss6, logp6, g6), (loss16, logp16, g16) = runs
        assert loss6 == loss16 and logp6.tobytes() == logp16.tobytes()
        assert g16.any()
        np.testing.assert_allclose(g6, g16, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("gate", [0, 1 << 62])
    def test_fault_in_q2_leaves_every_gradient_untouched(self, gate, monkeypatch):
        monkeypatch.setattr(nn, "_BOTH_MIN_WORK", gate)
        monkeypatch.setattr(sac, "_ACTOR_BLOCK_ROWS", 4)
        ens, actor, obs, hy = self._setup(81)
        nets = (ens.q1.net, ens.q2.net, actor)
        for net in nets:
            net.arena.grads[:] = np.random.default_rng(5).standard_normal(net.arena.grads.size)
        before = [net.arena.grads.copy() for net in nets]
        ens.q2.net.blocks[-1].b[0] = np.inf
        threads = threading.active_count()
        with pytest.raises(NumericFault, match="non-finite output"):
            sac.actor_loss(obs, ens, actor, 0.2, hy, rng=np.random.default_rng(3))
        assert threading.active_count() == threads
        for net, b in zip(nets, before):
            assert net.arena.grads.tobytes() == b.tobytes()


class TestLossPeaks:
    """At a mid-size shape (640 rows, hidden 256, 248 observation columns)
    ``critic_loss`` holds one online critic's tape at a time and
    ``actor_loss`` the actor tape and one row block's two critic tapes,
    each beside its pass temporaries, and little else: no dead copies of
    the batch and no spent tape records."""

    B, L, N, OBS, HIDDEN = 64, 10, 5, 248, 256

    def _peak(self, fn) -> float:
        """tracemalloc peak of ``fn()`` in units of one (rows, hidden) float64 buffer."""
        tracemalloc.start()
        try:
            fn()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / (self.B * self.L * self.HIDDEN * 8)

    def _nets(self):
        rng = np.random.default_rng(70)
        actor = nn.build_mlp(self.OBS, self.HIDDEN, 4, rng, activation="elu", out_scale=0.01)
        return rng, actor, sac.CriticEnsemble.build(self.OBS, 2, self.HIDDEN, rng)

    def test_critic_loss_peak(self):
        # 25.5 buffers before tapes were single-use and the batch copies died early, 16.9 after;
        # 14.7-16.4 once the twin critics' passes ran one after the other
        rng, actor, ens = self._nets()
        batch = tiny_batch(rng, B=self.B, L=self.L, n=self.N, obs_dim=self.OBS)
        assert self._peak(lambda: sac.critic_loss(batch, ens, actor, hyper(n_step=self.N), rng=rng)) < 21

    def test_actor_loss_peak(self):
        # 25.1 buffers before, 17.8 after
        rng, actor, ens = self._nets()
        obs_rows = rng.standard_normal((self.B * self.L, self.OBS))
        assert self._peak(lambda: sac.actor_loss(obs_rows, ens, actor, 0.2, hyper(), rng=rng)) < 21

    def test_blocked_actor_loss_peak(self, monkeypatch):
        # 1920 rows: three blocks hold one block's critic tapes beside the
        # actor tape at a time.  9.5-9.7 buffers of 1920 rows against
        # 15.9-16.8 as one block.  critic_loss reads 9.0-9.9 at this shape,
        # so the two losses' peaks are not ordered here; which is higher
        # follows the lanes' timing
        rows = 3 * sac._ACTOR_BLOCK_ROWS
        rng, actor, ens = self._nets()
        obs_rows = rng.standard_normal((rows, self.OBS))
        blocked = self._peak(lambda: sac.actor_loss(obs_rows, ens, actor, 0.2, hyper(), rng=rng))
        monkeypatch.setattr(sac, "_ACTOR_BLOCK_ROWS", rows)
        whole = self._peak(lambda: sac.actor_loss(obs_rows, ens, actor, 0.2, hyper(), rng=rng))
        assert blocked < 0.7 * whole, (blocked, whole)


class TestTemperature:
    def test_stationary_at_target_entropy(self):
        lp = np.full(32, -1.7)
        loss, grad = sac.temperature_loss(lp, log_alpha=0.1, target_entropy=1.7)
        assert grad == pytest.approx(0.0, abs=1e-12)

    @staticmethod
    def _step(log_alpha, log_probs, target, lr):
        _, grad = sac.temperature_loss(log_probs, log_alpha.params[0], target)
        log_alpha.grads[0] = grad
        nn.adam_step(log_alpha, lr)

    def test_alpha_rises_when_entropy_below_target(self):
        # -log pi = 0.5 entropy, target 2.0: alpha must grow
        la = sac.log_alpha_arena(np.log(0.2))
        self._step(la, np.full(32, -0.5), 2.0, lr=1e-2)
        assert la.params[0] > np.log(0.2)

    def test_alpha_falls_when_entropy_above_target(self):
        la = sac.log_alpha_arena(np.log(0.2))
        self._step(la, np.full(32, -5.0), 2.0, lr=1e-2)
        assert la.params[0] < np.log(0.2)

    def test_log_alpha_steps_by_the_scalar_adam_formula(self):
        # the checkpoint's alpha_* keys hold exactly what the scalar formula
        # in Python floats gives, step after step
        rng = np.random.default_rng(16)
        b1, b2, eps = nn.ADAM_BETA1, nn.ADAM_BETA2, nn.ADAM_EPS
        for _ in range(20):
            la = sac.log_alpha_arena(float(rng.uniform(-3, 1)))
            value, m, v = float(la.params[0]), 0.0, 0.0
            lr = float(10 ** rng.uniform(-6, -1))
            for t in range(1, 51):
                grad = float(rng.standard_normal() * 10 ** rng.uniform(-8, 3))
                la.grads[0] = grad
                nn.adam_step(la, lr)
                v = b2 * v + (1 - b2) * grad * grad
                m = b1 * m + (1 - b1) * grad
                value = value - lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)
                assert (la.params[0], la.m[0], la.v[0], la.step_count) == (value, m, v, t)

    @pytest.mark.parametrize("value, grad, lr", [(-1.3, 1e160, 1e-2), (-1.3, np.inf, 1e-2), (-1.3, np.nan, 1e-2), (1.7e308, -10.0, 1e308)])
    def test_scalar_adam_aborts_on_overflow_before_touching_state(self, value, grad, lr):
        # the second moment or the value itself leaves the float range, for
        # log(alpha) and for the same state as the first element of a network
        la = sac.log_alpha_arena(value)
        net = nn.build_mlp(3, 4, 2, np.random.default_rng(17), activation="relu")
        for arena, step in ((la, lambda: nn.adam_step(la, lr)), (net.arena, lambda: nn.adam_step_net(net, lr))):
            arena.params[0], arena.m[0], arena.v[0], arena.grads[0], arena.step_count = value, 0.2, 0.01, grad, 7
            before = arena.copy()
            with np.errstate(over="ignore"), pytest.raises(NumericFault):
                step()
            assert arena.step_count == 7 and net.version == 0
            for name in ("params", "grads", "m", "v"):
                assert getattr(arena, name).tobytes() == getattr(before, name).tobytes(), name

    def test_found_overflow_of_the_bias_corrected_second_moment_faults(self):
        # (1 - beta2) * g * g = 1e307 is finite, v / c2 = 1e310 is not: the
        # step used to count itself and leave log(alpha) where it was
        la = sac.log_alpha_arena(-1.3)
        la.grads[0] = 1e155
        with pytest.raises(NumericFault, match="overflowing"):
            nn.adam_step(la, 1e-2)
        assert la.step_count == 0 and la.params[0] == -1.3 and la.grads[0] == 1e155
        assert la.m[0] == 0.0 and la.v[0] == 0.0

    def test_fixed_point_iteration_converges(self):
        # synthetic fixed policy: entropy depends on alpha through a known
        # smooth map; iterate until the gradient vanishes
        la = sac.log_alpha_arena(np.log(0.5))
        target = 1.3

        def log_probs():
            entropy = 1.0 + 0.5 * np.tanh(np.exp(la.params[0]))  # rises with alpha
            return np.full(16, -entropy)

        for _ in range(6000):
            self._step(la, log_probs(), target, lr=3e-3)
        _, grad = sac.temperature_loss(log_probs(), la.params[0], target)
        assert abs(grad) < 1e-6

    def test_grad_matches_finite_differences(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            lp = rng.standard_normal(16) - 1.0
            la = float(rng.uniform(-2, 0.5))
            tgt = float(rng.uniform(-3, 3))
            _, grad = sac.temperature_loss(lp, la, tgt)
            e = 1e-6
            up, _ = sac.temperature_loss(lp, la + e, tgt)
            dn, _ = sac.temperature_loss(lp, la - e, tgt)
            assert grad == pytest.approx((up - dn) / (2 * e), rel=1e-5, abs=1e-9)


class TestEnsemble:
    def test_soft_update_extremes_and_average(self):
        rng = np.random.default_rng(15)
        ens = tiny_ensemble(rng, 3, 2)
        for blk in ens.q1_target.net.param_blocks():
            blk.w[:] = 0.0
            blk.b[:] = 0.0
        ens.soft_update(0.0)
        assert all(np.all(b.w == 0.0) for b in ens.q1_target.net.param_blocks())
        ens.soft_update(0.5)
        ens.soft_update(0.5)
        for t, o in zip(ens.q1_target.net.param_blocks(), ens.q1.net.param_blocks()):
            assert np.allclose(t.w, 0.75 * o.w)
        ens.soft_update(1.0)
        for t, o in zip(ens.q1_target.net.param_blocks(), ens.q1.net.param_blocks()):
            assert np.array_equal(t.w, o.w)


class TestRewardTermSurgery:
    def test_extension_preserves_existing_heads_bit_exactly(self):
        rng = np.random.default_rng(16)
        critic = sac.VectorCritic(nn.build_mlp(5, 8, NUM_TERMS, rng, activation="relu"))
        x = rng.standard_normal((6, 5))
        before, _ = critic.forward(x, want_tape=False)
        extended = sac.extend_reward_term(critic, init_scale=0.01, rng=rng)
        after, _ = extended.forward(x, want_tape=False)
        assert extended.n_terms == NUM_TERMS + 1
        assert np.array_equal(after[:, :NUM_TERMS], before)

    def test_removal_preserves_remaining_heads(self):
        rng = np.random.default_rng(17)
        critic = sac.VectorCritic(nn.build_mlp(5, 8, NUM_TERMS, rng, activation="relu"))
        x = rng.standard_normal((6, 5))
        before, _ = critic.forward(x, want_tape=False)
        cut = sac.remove_reward_term(critic, 2)
        after, _ = cut.forward(x, want_tape=False)
        keep = [j for j in range(NUM_TERMS) if j != 2]
        assert np.array_equal(after, before[:, keep])

    def test_zero_weight_equals_deleted_row_for_actor_loss(self):
        rng = np.random.default_rng(18)
        obs_dim, act_dim = 3, 2
        ens = tiny_ensemble(rng, obs_dim, act_dim)
        actor_a = tiny_actor(rng, obs_dim, act_dim)
        actor_b = actor_a.copy()
        w = np.abs(rng.standard_normal(NUM_TERMS)) + 0.1
        i = 4
        w_zero = w.copy()
        w_zero[i] = 0.0
        cut = sac.CriticEnsemble(
            sac.remove_reward_term(ens.q1, i),
            sac.remove_reward_term(ens.q2, i),
            sac.remove_reward_term(ens.q1_target, i),
            sac.remove_reward_term(ens.q2_target, i),
        )
        w_cut = np.delete(w, i)
        obs = rng.standard_normal((5, obs_dim))
        noise = rng.standard_normal((5, act_dim))
        hy_zero = sac.SacHyper(weights=w_zero)
        hy_cut = sac.SacHyper.__new__(sac.SacHyper)  # bypass the 7-term check for the 6-head variant
        hy_cut.weights = w_cut
        hy_cut.gamma, hy_cut.n_step, hy_cut.rescale_eps = 0.99, 5, 1e-3
        hy_cut.use_rescale, hy_cut.target_entropy, hy_cut.tau = True, -2.0, 0.005
        la, _ = sac.actor_loss(obs, ens, actor_a, 0.3, hy_zero, noise=noise)
        lb, _ = sac.actor_loss(obs, cut, actor_b, 0.3, hy_cut, noise=noise)
        assert la == pytest.approx(lb, abs=1e-12)
        for ba, bb in zip(actor_a.param_blocks(), actor_b.param_blocks()):
            assert np.allclose(ba.gw, bb.gw, atol=1e-12)

    def test_extend_then_remove_is_identity(self):
        rng = np.random.default_rng(19)
        critic = sac.VectorCritic(nn.build_mlp(4, 6, 3, rng, activation="relu"))
        round_trip = sac.remove_reward_term(sac.extend_reward_term(critic, 0.1, rng), 3)
        x = rng.standard_normal((2, 4))
        a, _ = critic.forward(x, want_tape=False)
        b, _ = round_trip.forward(x, want_tape=False)
        assert np.array_equal(a, b)

    def test_remove_bad_index_rejected(self):
        rng = np.random.default_rng(20)
        critic = sac.VectorCritic(nn.build_mlp(4, 6, 3, rng, activation="relu"))
        with pytest.raises(ConfigError):
            sac.remove_reward_term(critic, 3)
