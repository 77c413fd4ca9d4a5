import numpy as np
import pytest

from fieldsac import distill, nn, sac
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
        y, tape = nn.forward(net, h)
        xhat, inv = tape.records[0]
        old_xhat = h - h.mean(axis=1, keepdims=True)
        old_inv = (1.0 / np.sqrt(np.einsum("ij,ij->i", old_xhat, old_xhat) / 16 + nn.LN_EPS))[:, None]
        old_xhat *= old_inv
        assert _same_bits(xhat, old_xhat) and _same_bits(inv, old_inv)
        assert _same_bits(y, old_xhat * w[0] + b)
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


class TestFiniteScans:
    """``forward`` scans only at the output and before relu/elu; a fault
    anywhere must still be caught and named by its first layer."""

    @pytest.mark.filterwarnings("ignore:overflow")
    @pytest.mark.parametrize("activation", ["relu", "elu"])
    def test_hidden_linear_overflow_into_activation_names_the_linear(self, activation):
        # -inf straight into relu/elu comes out finite (0 or -1), so a scan
        # at the output alone would miss it
        specs = [nn.LayerSpec("linear", 2, 2), nn.LayerSpec("elu", 2, 2), nn.LayerSpec("linear", 2, 2),
                 nn.LayerSpec(activation, 2, 2), nn.LayerSpec("linear", 2, 1)]
        blocks = [nn.ParamBlock(np.eye(2), np.zeros(2)), None,
                  nn.ParamBlock(np.array([[-1e308, 1.0], [-1e308, 1.0]]), np.zeros(2)), None,
                  nn.ParamBlock(np.ones((2, 1)), np.zeros(1))]
        net = nn.Network(specs, blocks)
        assert net.finite_scans == (True, False, True, False, True)
        with pytest.raises(NumericFault, match=r"layer 2 \(linear\)"):
            nn.forward(net, np.array([[2.0, 2.0]]))

    def test_nan_into_first_layer_relu_is_named_after_the_output_scan(self):
        # layer 0 is not scanned itself (a linear follows); the output scan
        # fails and the checking pass names layer 0
        specs = [nn.LayerSpec("relu", 3, 3), nn.LayerSpec("linear", 3, 2)]
        net = nn.Network(specs, [None, nn.ParamBlock(np.ones((3, 2)), np.zeros(2))])
        assert net.finite_scans == (False, True)
        with pytest.raises(NumericFault, match=r"layer 0 \(relu\)"):
            nn.forward(net, np.array([[1.0, np.nan, -1.0]]))

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    @pytest.mark.parametrize("after", ["elu", "linear"])
    def test_layer_norm_overflow_names_the_layer_norm(self, after):
        # a huge gain overflows the layer-norm output to inf
        specs = [nn.LayerSpec("linear", 3, 3), nn.LayerSpec("layer_norm", 3, 3), nn.LayerSpec(after, 3, 3),
                 nn.LayerSpec("linear", 3, 1)]
        blocks = [nn.ParamBlock(np.eye(3), np.zeros(3)), nn.ParamBlock(np.full((1, 3), 1.7e308), np.zeros(3)),
                  nn.ParamBlock(np.eye(3), np.zeros(3)) if after == "linear" else None,
                  nn.ParamBlock(np.ones((3, 1)), np.zeros(1))]
        net = nn.Network(specs, blocks)
        with pytest.raises(NumericFault, match=r"layer 1 \(layer_norm\)"):
            nn.forward(net, np.array([[0.0, 0.0, 1.0]]))

    def test_mlp_scans_four_layers(self):
        net = nn.build_mlp(5, 8, 3, np.random.default_rng(0), activation="relu")
        assert [i for i, scan in enumerate(net.finite_scans) if scan] == [1, 5, 10, 13]


def _assert_blocks_on_arena(net):
    """Every block field is a view into the network's arena, laid out block
    by block with w (row-major) then b."""
    arena = net.arena
    off = 0
    for blk in net.param_blocks():
        assert blk.arena is arena and blk.start == off
        for vec, fields in ((arena.params, ("w", "b")), (arena.grads, ("gw", "gb")), (arena.m, ("mw", "mb")), (arena.v, ("vw", "vb"))):
            wf, bf = (getattr(blk, f) for f in fields)
            assert np.shares_memory(wf, vec) and np.shares_memory(bf, vec)
            assert _same_bits(vec[off : off + wf.size], wf.reshape(-1))
            assert _same_bits(vec[off + wf.size : off + wf.size + bf.size], bf)
        off += blk.n_params()
    assert off == arena.params.size == net.n_params()
    for vec in (arena.params, arena.grads, arena.m, arena.v):
        assert vec.dtype == np.float64 and vec.ndim == 1 and vec.flags.c_contiguous


def _trained_net(seed=30):
    """A small net with non-zero parameters, gradients and Adam state."""
    rng = np.random.default_rng(seed)
    net = random_net(rng, in_dim=4, hidden=6, out_dim=7)
    for _ in range(2):
        x = rng.standard_normal((5, 4))
        y, tape = nn.forward(net, x)
        nn.backward(net, tape, rng.standard_normal(y.shape))
        nn.adam_step_net(net, 1e-2)
    y, tape = nn.forward(net, rng.standard_normal((5, 4)))
    nn.backward(net, tape, rng.standard_normal(y.shape))
    return net


class TestArena:
    def test_build_mlp_and_copy(self):
        net = _trained_net()
        _assert_blocks_on_arena(net)
        dup = net.copy()
        _assert_blocks_on_arena(dup)
        assert not np.shares_memory(dup.arena.params, net.arena.params)
        for name in ("params", "grads", "m", "v"):
            assert _same_bits(getattr(dup.arena, name), getattr(net.arena, name))
        assert dup.arena.step_count == net.arena.step_count == 2

    def test_network_adopts_lone_blocks(self):
        rng = np.random.default_rng(31)
        specs = [nn.LayerSpec("linear", 3, 4), nn.LayerSpec("layer_norm", 4, 4), nn.LayerSpec("relu", 4, 4),
                 nn.LayerSpec("linear", 4, 2)]
        blocks = [nn.ParamBlock(rng.standard_normal((3, 4)), rng.standard_normal(4)),
                  nn.ParamBlock(rng.standard_normal((1, 4)), rng.standard_normal(4)), None,
                  nn.ParamBlock(rng.standard_normal((4, 2)), rng.standard_normal(2))]
        before = [(b.w.copy(), b.b.copy()) for b in blocks if b is not None]
        net = nn.Network(specs, blocks)
        _assert_blocks_on_arena(net)
        assert all(a is b for a, b in zip(net.blocks, blocks))
        for blk, (w, b) in zip(net.param_blocks(), before):
            assert _same_bits(blk.w, w) and _same_bits(blk.b, b)

    def test_blocks_of_another_network_are_copied_not_moved(self):
        donor = _trained_net()
        donor_params = donor.arena.params.copy()
        part = nn.Network(donor.specs[-1:], donor.blocks[-1:])
        _assert_blocks_on_arena(part)
        _assert_blocks_on_arena(donor)
        assert _same_bits(part.arena.params, donor_params[-part.n_params():])
        part.arena.params[:] = 0.0
        assert _same_bits(donor.arena.params, donor_params)

    def test_mixed_step_counts_rejected(self):
        a = nn.ParamBlock(np.zeros((1, 1)), np.zeros(1))
        b = nn.ParamBlock(np.zeros((1, 1)), np.zeros(1))
        a.arena.step_count = 1
        specs = [nn.LayerSpec("linear", 1, 1), nn.LayerSpec("linear", 1, 1)]
        with pytest.raises(ConfigError, match="step count"):
            nn.Network(specs, [a, b])

    def test_load_network(self, tmp_path):
        net = _trained_net()
        prefix = str(tmp_path / "net")
        nn.save_network(net, prefix, with_optimizer=True)
        loaded = nn.load_network(prefix)
        _assert_blocks_on_arena(loaded)
        for name in ("params", "m", "v"):
            assert _same_bits(getattr(loaded.arena, name), getattr(net.arena, name))
        assert loaded.arena.step_count == 2 and not loaded.arena.grads.any()

    def test_load_rejects_blocks_with_different_step_counts(self, tmp_path):
        net = _trained_net()
        prefix = str(tmp_path / "net")
        _, bin_path = nn.save_network(net, prefix, with_optimizer=True)
        blob = np.fromfile(bin_path, dtype="<f8")
        first = net.param_blocks()[0]
        blob[net.n_params() + 2 * first.n_params()] = 5.0  # the first block's stored step count
        blob.tofile(bin_path)
        with pytest.raises(ConfigError, match="step count"):
            nn.load_network(prefix)

    def test_clones_into_students(self):
        net = _trained_net()
        actor = distill.clone_actor_into_student(net, field_dim=3)
        critic = distill.clone_critic_into_student(sac.VectorCritic(net), obs_dim=2, field_dim=3)
        for clone in (actor, critic.net):
            _assert_blocks_on_arena(clone)
            k = clone.param_blocks()[0].n_params() - net.param_blocks()[0].n_params()
            assert _same_bits(clone.arena.params[clone.param_blocks()[0].stop :], net.arena.params[net.param_blocks()[0].stop :])
            assert k == 3 * net.specs[0].out_dim
            # a clone starts with fresh optimizer state
            assert clone.arena.step_count == 0 and not (clone.arena.m.any() or clone.arena.v.any())

    def test_reward_head_surgery(self):
        net = _trained_net()
        critic = sac.VectorCritic(net)
        ext = sac.extend_reward_term(critic, 0.5, np.random.default_rng(32))
        cut = sac.remove_reward_term(critic, 2)
        head = net.param_blocks()[-1]
        for out, cols in ((ext, list(range(7))), (cut, [0, 1, 3, 4, 5, 6])):
            _assert_blocks_on_arena(out.net)
            new_head = out.net.param_blocks()[-1]
            below = head.start
            for name in ("params", "grads", "m", "v"):
                assert _same_bits(getattr(out.net.arena, name)[:below], getattr(net.arena, name)[:below])
            for name in ("w", "gw", "mw", "vw"):
                assert _same_bits(getattr(new_head, name)[:, : len(cols)], getattr(head, name)[:, cols])
            for name in ("b", "gb", "mb", "vb"):
                assert _same_bits(getattr(new_head, name)[: len(cols)], getattr(head, name)[cols])
            assert out.net.arena.step_count == net.arena.step_count
        assert not ext.net.param_blocks()[-1].gw[:, 7].any() and ext.net.param_blocks()[-1].b[7] == 0.0


class TestWholeVectorUpdates:
    """Whole-arena Adam and soft updates against the per-block formulas
    they replaced."""

    def test_adam_step_net_equals_per_block_formula(self):
        rng = np.random.default_rng(33)
        net = _trained_net()
        ref = [dict(w=b.w.copy(), b=b.b.copy(), mw=b.mw.copy(), vw=b.vw.copy(), mb=b.mb.copy(), vb=b.vb.copy()) for b in net.param_blocks()]
        t = net.arena.step_count
        for step in range(3):
            grads = [(rng.standard_normal(b.w.shape), rng.standard_normal(b.b.shape)) for b in net.param_blocks()]
            if step:
                for blk, (gw, gb) in zip(net.param_blocks(), grads):
                    blk.gw[...] = gw
                    blk.gb[...] = gb
            else:
                grads = [(b.gw.copy(), b.gb.copy()) for b in net.param_blocks()]
            lr, b1, b2, eps = 1e-2, nn.ADAM_BETA1, nn.ADAM_BETA2, nn.ADAM_EPS
            t += 1
            c1, c2 = 1.0 - b1**t, 1.0 - b2**t
            for r, (gw, gb) in zip(ref, grads):
                for p, gr, m, v in (("w", gw, "mw", "vw"), ("b", gb, "mb", "vb")):
                    r[m] *= b1
                    r[m] += (1.0 - b1) * gr
                    r[v] *= b2
                    r[v] += (1.0 - b2) * gr * gr
                    r[p] -= lr * (r[m] / c1) / (np.sqrt(r[v] / c2) + eps)
            nn.adam_step_net(net, lr)
            assert net.arena.step_count == t and not net.arena.grads.any()
            for blk, r in zip(net.param_blocks(), ref):
                for name, value in r.items():
                    assert _same_bits(getattr(blk, name), value), name

    def test_adam_step_net_aborts_before_touching_any_block(self):
        net = _trained_net()
        before = net.arena.copy()
        net.param_blocks()[-1].gb[0] = np.inf
        with pytest.raises(NumericFault):
            nn.adam_step_net(net, 1e-2)
        assert net.arena.step_count == before.step_count
        for name in ("params", "m", "v"):
            assert _same_bits(getattr(net.arena, name), getattr(before, name))

    def test_soft_update_net_equals_per_block_formula(self):
        online = _trained_net(34)
        target = _trained_net(35)
        tau = 0.005
        ref = [(t.w.copy(), t.b.copy()) for t in target.param_blocks()]
        for (w, b), o in zip(ref, online.param_blocks()):
            w *= 1.0 - tau
            w += tau * o.w
            b *= 1.0 - tau
            b += tau * o.b
        version = target.version
        nn.soft_update_net(target, online, tau)
        assert target.version == version + 1
        for t, (w, b) in zip(target.param_blocks(), ref):
            assert np.array_equal(t.w, w) and np.array_equal(t.b, b)

    def test_soft_update_rejects_other_shapes(self):
        rng = np.random.default_rng(36)
        a = nn.build_mlp(3, 4, 2, rng)
        b = nn.build_mlp(3, 4, 3, rng)
        with pytest.raises(ConfigError):
            nn.soft_update_net(a, b, 0.5)


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


def _one_block_net(w, b):
    blk = nn.ParamBlock(w, b)
    return nn.Network([nn.LayerSpec("linear", *w.shape)], [blk]), blk


class TestAdam:
    def test_first_step_moves_by_minus_lr(self):
        net, blk = _one_block_net(np.zeros((1, 1)), np.zeros(1))
        blk.gw[0, 0] = 2.0
        nn.adam_step_net(net, lr=0.001)
        # bias-corrected first step is -lr * g/|g| up to eps
        assert blk.w[0, 0] == pytest.approx(-0.001, rel=1e-6)
        assert blk.step_count == 1
        assert blk.gw[0, 0] == 0.0

    def test_zero_gradient_is_noop_on_params(self):
        rng = np.random.default_rng(10)
        net, blk = _one_block_net(rng.standard_normal((3, 2)), rng.standard_normal(2))
        w0, b0 = blk.w.copy(), blk.b.copy()
        nn.adam_step_net(net, lr=0.1)
        assert np.array_equal(blk.w, w0) and np.array_equal(blk.b, b0)
        assert blk.step_count == 1

    def test_constant_gradient_moves_monotonically(self):
        net, blk = _one_block_net(np.zeros((1, 1)), np.zeros(1))
        prev = 0.0
        for _ in range(5):
            blk.gw[0, 0] = 3.0
            nn.adam_step_net(net, lr=0.01)
            assert blk.w[0, 0] < prev
            prev = blk.w[0, 0]

    def test_nonfinite_gradient_aborts(self):
        net, blk = _one_block_net(np.zeros((1, 1)), np.zeros(1))
        blk.gw[0, 0] = np.nan
        with pytest.raises(NumericFault):
            nn.adam_step_net(net, lr=0.01)
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
        with open(bin_path, "rb") as f:
            blob = f.read()
        with open(bin_path, "wb") as f:
            f.write(blob[:-16])
        with pytest.raises(ConfigError):
            nn.load_network(prefix)
