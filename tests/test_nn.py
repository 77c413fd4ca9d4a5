import numpy as np
import pytest

from fieldsac import nn
from fieldsac.errors import ConfigError, ContractViolation, NumericFault


def identity_linear(dim):
    spec = [nn.LayerSpec("linear", dim, dim)]
    blocks = [nn.ParamBlock(np.eye(dim), np.zeros(dim))]
    return nn.Network(spec, blocks)


def random_net(rng, in_dim=None, hidden=None, out_dim=None, activation=None):
    in_dim = in_dim or int(rng.integers(2, 7))
    hidden = hidden or int(rng.integers(4, 10))
    out_dim = out_dim or int(rng.integers(1, 5))
    activation = activation or ("elu" if rng.random() < 0.5 else "relu")
    return nn.build_mlp(in_dim, hidden, out_dim, rng, hidden_blocks=2, activation=activation)


class TestForward:
    def test_identity_linear_passthrough(self):
        net = identity_linear(4)
        x = np.arange(8.0).reshape(2, 4)
        y, _ = nn.forward(net, x)
        assert np.array_equal(y, x)

    def test_layer_norm_constant_vector_is_zero(self):
        spec = [nn.LayerSpec("layer_norm", 5, 5)]
        net = nn.Network(spec, [nn.ParamBlock(np.ones((1, 5)), np.zeros(5))])
        y, _ = nn.forward(net, np.full((3, 5), 2.5))
        assert np.allclose(y, 0.0)

    def test_activation_definitions(self):
        for kind, x, expect in [("elu", 0.0, 0.0), ("relu", -1.0, 0.0), ("relu", 2.0, 2.0)]:
            net = nn.Network([nn.LayerSpec(kind, 1, 1)], [None])
            y, _ = nn.forward(net, np.array([[x]]))
            assert y[0, 0] == pytest.approx(expect)
        net = nn.Network([nn.LayerSpec("elu", 1, 1)], [None])
        y, _ = nn.forward(net, np.array([[-1.0]]))
        assert y[0, 0] == pytest.approx(np.expm1(-1.0))

    def test_dimension_mismatch_raises(self):
        net = identity_linear(4)
        with pytest.raises(ConfigError):
            nn.forward(net, np.zeros((2, 3)))

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_nonfinite_reports_layer_index(self):
        specs = [nn.LayerSpec("linear", 2, 2), nn.LayerSpec("relu", 2, 2)]
        blocks = [nn.ParamBlock(np.array([[1e308, 0.0], [1e308, 0.0]]), np.zeros(2)), None]
        net = nn.Network(specs, blocks)
        with pytest.raises(NumericFault, match="layer 0"):
            nn.forward(net, np.array([[1e10, 1e10]]))

    def test_forward_is_deterministic(self):
        rng = np.random.default_rng(0)
        net = random_net(rng)
        x = rng.standard_normal((4, net.in_dim))
        y1, _ = nn.forward(net, x)
        y2, _ = nn.forward(net, x)
        assert np.array_equal(y1, y2)

    def test_residual_span_adds_input_exactly(self):
        rng = np.random.default_rng(1)
        dim = 6
        specs = [
            nn.LayerSpec("residual_begin", dim, dim),
            nn.LayerSpec("linear", dim, dim),
            nn.LayerSpec("residual_end", dim, dim),
        ]
        blocks = nn.init_blocks(specs, rng)
        net = nn.Network(specs, blocks)
        x = rng.standard_normal((3, dim))
        inner = nn.Network([specs[1]], [blocks[1]])
        y_inner, _ = nn.forward(inner, x)
        y, _ = nn.forward(net, x)
        assert np.array_equal(y, y_inner + x)

    def test_residual_requires_matching_width(self):
        specs = [
            nn.LayerSpec("residual_begin", 3, 3),
            nn.LayerSpec("linear", 3, 4),
            nn.LayerSpec("residual_end", 4, 4),
        ]
        blocks = [None, nn.ParamBlock(np.zeros((3, 4)), np.zeros(4)), None]
        with pytest.raises(ConfigError):
            nn.Network(specs, blocks)

    def test_unterminated_span_rejected(self):
        with pytest.raises(ConfigError):
            nn.Network([nn.LayerSpec("residual_begin", 3, 3)], [None])


class TestBackward:
    def test_linear_weight_grad_is_outer_product(self):
        rng = np.random.default_rng(2)
        net = identity_linear(3)
        x = rng.standard_normal((1, 3))
        g = rng.standard_normal((1, 3))
        y, tape = nn.forward(net, x)
        nn.backward(net, tape, g)
        # with W of shape (in, out): dW = x^T g
        assert np.allclose(net.blocks[0].gw, x.T @ g)
        assert np.allclose(net.blocks[0].gb, g[0])

    def test_zero_upstream_grad_gives_zero_param_grads(self):
        rng = np.random.default_rng(3)
        net = random_net(rng)
        x = rng.standard_normal((5, net.in_dim))
        y, tape = nn.forward(net, x)
        nn.backward(net, tape, np.zeros_like(y))
        for blk in net.param_blocks():
            assert np.all(blk.gw == 0.0) and np.all(blk.gb == 0.0)

    def test_stale_tape_rejected(self):
        rng = np.random.default_rng(4)
        net = random_net(rng)
        x = rng.standard_normal((2, net.in_dim))
        y, tape = nn.forward(net, x)
        net.blocks_with = None  # unrelated attribute; params untouched
        nn.adam_step_net(net, 0.0)  # bumps version even with zero grads/lr
        with pytest.raises(ContractViolation):
            nn.backward(net, tape, np.zeros_like(y))

    def test_input_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        net = random_net(rng, activation="elu")
        x = rng.standard_normal((1, net.in_dim))
        g = rng.standard_normal((1, net.out_dim))
        y, tape = nn.forward(net, x)
        gin = nn.backward(net, tape, g, accumulate=False)
        h = 1e-6
        for j in range(net.in_dim):
            xp, xm = x.copy(), x.copy()
            xp[0, j] += h
            xm[0, j] -= h
            up, _ = nn.forward(net, xp, want_tape=False)
            dn, _ = nn.forward(net, xm, want_tape=False)
            fd = ((up - dn) * g).sum() / (2 * h)
            assert gin[0, j] == pytest.approx(fd, rel=1e-5, abs=1e-7)


def _edge_batch(rng, width=16):
    """Random rows plus rows of signed zeros, subnormal-scale, saturating
    and huge values."""
    edges = np.array([0.0, -0.0, 1e-300, -1e-300, -700.0, 1e300, -1e300])
    rows = [rng.standard_normal((40, width)) * 3.0]
    rows += [np.full((1, width), e) for e in edges]
    rows.append(np.resize(edges, (3, width)))
    return np.concatenate(rows)


def _activation_net(kind, width):
    return nn.Network([nn.LayerSpec(kind, width, width)], [None])


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestKernelFormulas:
    """The ELU/ReLU/layer-norm kernels against the masked-ufunc, np.where
    and out-of-place formulas they replaced."""

    def test_elu_forward_and_backward_match_masked_formulas(self):
        rng = np.random.default_rng(20)
        h = _edge_batch(rng)
        g = rng.standard_normal(h.shape)
        old_y = h.copy()
        np.expm1(h, out=old_y, where=h <= 0.0)
        old_der = np.ones_like(h)
        np.exp(h, out=old_der, where=h <= 0.0)
        old_g = g * old_der

        net = _activation_net("elu", h.shape[1])
        y, tape = nn.forward(net, h)
        gin = nn.backward(net, tape, g)
        # the forward output keeps even the sign of zero
        assert _same_bits(y, old_y)
        assert _same_bits(gin, old_g)

    def test_relu_forward_and_backward_match_where_formulas(self):
        rng = np.random.default_rng(21)
        h = _edge_batch(rng)
        g = rng.standard_normal(h.shape)
        old_y = np.where(h > 0.0, h, 0.0)
        old_g = np.where(h > 0.0, g, 0.0)

        net = _activation_net("relu", h.shape[1])
        y, tape = nn.forward(net, h)
        gin = nn.backward(net, tape, g)
        assert _same_bits(y, old_y)
        # a negative upstream gradient at a dead unit now gives -0.0; equal
        # under IEEE, and gradient accumulators start at +0.0, which
        # absorbs it (+0.0 + -0.0 == +0.0)
        assert np.array_equal(gin, old_g)
        y2, no_tape = nn.forward(net, h, want_tape=False)
        assert no_tape is None and _same_bits(y2, y)

    def test_layer_norm_backward_matches_out_of_place_formula(self):
        rng = np.random.default_rng(23)
        h = rng.standard_normal((50, 16)) * 3.0
        g = rng.standard_normal(h.shape)
        w, b = rng.standard_normal((1, 16)), rng.standard_normal(16)
        net = nn.Network([nn.LayerSpec("layer_norm", 16, 16)], [nn.ParamBlock(w, b)])
        _, tape = nn.forward(net, h)
        xhat, inv = tape.records[0]
        dxhat = g * w[0]
        m1 = dxhat.mean(axis=1, keepdims=True)
        m2 = (dxhat * xhat).mean(axis=1, keepdims=True)
        old_g = inv * (dxhat - m1 - xhat * m2)

        gin = nn.backward(net, tape, g)
        blk = net.blocks[0]
        assert _same_bits(gin, old_g)
        assert _same_bits(blk.gw, (g * xhat).sum(axis=0, keepdims=True))
        assert _same_bits(blk.gb, g.sum(axis=0))
        net.zero_grads()
        assert _same_bits(nn.backward(net, tape, g, accumulate=False), old_g)
        assert np.all(blk.gw == 0.0) and np.all(blk.gb == 0.0)

    def test_no_input_grad_skips_it_and_keeps_param_grads(self):
        rng = np.random.default_rng(22)
        for activation in ("elu", "relu"):
            net = random_net(rng, activation=activation)
            x = rng.standard_normal((6, net.in_dim))
            g = rng.standard_normal((6, net.out_dim))
            y, tape = nn.forward(net, x)
            assert nn.backward(net, tape, g, want_input_grad=True) is not None
            with_grad = [(b.gw.copy(), b.gb.copy()) for b in net.param_blocks()]
            net.zero_grads()
            assert nn.backward(net, tape, g, want_input_grad=False) is None
            for blk, (gw, gb) in zip(net.param_blocks(), with_grad):
                assert _same_bits(blk.gw, gw) and _same_bits(blk.gb, gb)

    @pytest.mark.parametrize("kind, bad", [("relu", np.nan), ("elu", np.nan), ("elu", np.inf)])
    def test_nonfinite_input_to_first_layer_activation_raises(self, kind, bad):
        # np.where used to turn a NaN into 0 at a first-layer relu
        net = nn.Network([nn.LayerSpec(kind, 3, 3), nn.LayerSpec("elu", 3, 3)], [None, None])
        with pytest.raises(NumericFault, match=rf"layer 0 \({kind}\)"):
            nn.forward(net, np.array([[1.0, bad, -1.0]]))

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_overflow_after_an_activation_names_the_later_layer(self):
        specs = [nn.LayerSpec("relu", 2, 2), nn.LayerSpec("residual_begin", 2, 2),
                 nn.LayerSpec("elu", 2, 2), nn.LayerSpec("residual_end", 2, 2)]
        net = nn.Network(specs, [None] * 4)
        with pytest.raises(NumericFault, match=r"layer 3 \(residual_end\)"):
            nn.forward(net, np.array([[1e308, 1.0]]))


class TestGradCheck:
    def test_three_layer_net_matches_central_differences(self):
        rng = np.random.default_rng(6)
        for trial in range(5):
            net = random_net(rng)
            x = rng.standard_normal((3, net.in_dim))
            report = nn.grad_check(net, x, tolerance=1e-6, seed=trial)
            assert report.passed, f"worst rel err {report.worst}"

    def test_every_layer_kind_passes_at_tolerance(self):
        # dedicated stack exercising all six kinds at once
        rng = np.random.default_rng(7)
        specs = [
            nn.LayerSpec("linear", 4, 6),
            nn.LayerSpec("layer_norm", 6, 6),
            nn.LayerSpec("elu", 6, 6),
            nn.LayerSpec("residual_begin", 6, 6),
            nn.LayerSpec("linear", 6, 6),
            nn.LayerSpec("layer_norm", 6, 6),
            nn.LayerSpec("relu", 6, 6),
            nn.LayerSpec("residual_end", 6, 6),
            nn.LayerSpec("linear", 6, 2),
        ]
        net = nn.Network(specs, nn.init_blocks(specs, rng))
        x = rng.standard_normal((4, 4)) + 0.3
        report = nn.grad_check(net, x, tolerance=1e-6)
        assert report.passed, f"worst rel err {report.worst}"

    def test_corrupted_gradient_fails_check(self):
        rng = np.random.default_rng(8)
        net = random_net(rng)
        x = rng.standard_normal((2, net.in_dim))
        report = nn.grad_check(net, x, tolerance=1e-6)
        assert report.passed
        # corrupt: scale one weight gradient by 2 inside a monkeypatched backward
        orig_backward = nn.backward

        def bad_backward(net_, tape, g, accumulate=True, want_input_grad=True):
            out = orig_backward(net_, tape, g, accumulate, want_input_grad)
            if accumulate:
                net_.param_blocks()[0].gw *= 2.0
            return out

        nn.backward = bad_backward
        try:
            report = nn.grad_check(net, x, tolerance=1e-6)
        finally:
            nn.backward = orig_backward
        assert not report.passed

    def test_many_random_pairs(self):
        # broad sweep: 100 random (net, input) pairs across both activations
        rng = np.random.default_rng(9)
        worst = 0.0
        for trial in range(100):
            net = random_net(rng)
            x = rng.standard_normal((2, net.in_dim))
            report = nn.grad_check(net, x, seed=trial)
            worst = max(worst, report.worst)
        assert worst < 1e-6, worst


class TestAdam:
    def test_first_step_moves_by_minus_lr(self):
        blk = nn.ParamBlock(np.zeros((1, 1)), np.zeros(1))
        blk.gw[0, 0] = 2.0
        nn.adam_step(blk, lr=0.001)
        # bias-corrected first step is -lr * g/|g| up to eps
        assert blk.w[0, 0] == pytest.approx(-0.001, rel=1e-6)
        assert blk.step_count == 1
        assert blk.gw[0, 0] == 0.0

    def test_zero_gradient_is_noop_on_params(self):
        rng = np.random.default_rng(10)
        blk = nn.ParamBlock(rng.standard_normal((3, 2)), rng.standard_normal(2))
        w0, b0 = blk.w.copy(), blk.b.copy()
        nn.adam_step(blk, lr=0.1)
        assert np.array_equal(blk.w, w0) and np.array_equal(blk.b, b0)
        assert blk.step_count == 1

    def test_constant_gradient_moves_monotonically(self):
        blk = nn.ParamBlock(np.zeros((1, 1)), np.zeros(1))
        prev = 0.0
        for _ in range(5):
            blk.gw[0, 0] = 3.0
            nn.adam_step(blk, lr=0.01)
            assert blk.w[0, 0] < prev
            prev = blk.w[0, 0]

    def test_nonfinite_gradient_aborts(self):
        blk = nn.ParamBlock(np.zeros((1, 1)), np.zeros(1))
        blk.gw[0, 0] = np.nan
        with pytest.raises(NumericFault):
            nn.adam_step(blk, lr=0.01)
        assert blk.step_count == 0


class TestSoftUpdate:
    def test_tau_extremes_and_halving(self):
        rng = np.random.default_rng(11)
        online = random_net(rng, in_dim=3, hidden=4, out_dim=2)
        target = online.copy()
        for blk in target.param_blocks():
            blk.w[:] = 0.0
            blk.b[:] = 0.0
        nn.soft_update_net(target, online, tau=0.5)
        nn.soft_update_net(target, online, tau=0.5)
        for t, o in zip(target.param_blocks(), online.param_blocks()):
            assert np.allclose(t.w, 0.75 * o.w)
        nn.soft_update_net(target, online, tau=1.0)
        for t, o in zip(target.param_blocks(), online.param_blocks()):
            assert np.array_equal(t.w, o.w)


class TestSerialization:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(12)
        net = random_net(rng)
        # dirty the adam state so with_optimizer has something to carry
        x = rng.standard_normal((4, net.in_dim))
        y, tape = nn.forward(net, x)
        nn.backward(net, tape, rng.standard_normal(y.shape))
        nn.adam_step_net(net, 1e-3)
        prefix = str(tmp_path / "net")
        nn.save_network(net, prefix, with_optimizer=True)
        loaded = nn.load_network(prefix)
        assert [s.kind for s in loaded.specs] == [s.kind for s in net.specs]
        for a, b in zip(net.param_blocks(), loaded.param_blocks()):
            assert a.w.tobytes() == b.w.tobytes()
            assert a.b.tobytes() == b.b.tobytes()
            assert a.mw.tobytes() == b.mw.tobytes()
            assert a.vw.tobytes() == b.vw.tobytes()
            assert a.step_count == b.step_count

    def test_round_trip_without_optimizer(self, tmp_path):
        rng = np.random.default_rng(13)
        net = random_net(rng)
        prefix = str(tmp_path / "net")
        nn.save_network(net, prefix)
        loaded = nn.load_network(prefix)
        y1, _ = nn.forward(net, np.ones((1, net.in_dim)), want_tape=False)
        y2, _ = nn.forward(loaded, np.ones((1, net.in_dim)), want_tape=False)
        assert np.array_equal(y1, y2)

    def test_truncated_blob_rejected(self, tmp_path):
        rng = np.random.default_rng(14)
        net = random_net(rng)
        prefix = str(tmp_path / "net")
        _, bin_path = nn.save_network(net, prefix)
        blob = open(bin_path, "rb").read()
        open(bin_path, "wb").write(blob[:-16])
        with pytest.raises(ConfigError):
            nn.load_network(prefix)
