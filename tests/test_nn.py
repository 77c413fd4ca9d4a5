import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

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
        _, tape = nn.forward(net, h)  # a tape serves one backward pass
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
            _, tape = nn.forward(net, x)  # a tape serves one backward pass
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


def _old_pass(net, x, g, accumulate, want_input_grad):
    """The forward and backward from before tapes were single-use, written
    out: every ELU records its input, and backward writes only fresh
    buffers.  Accumulates into ``net`` and returns the input gradient."""
    h, records, skips = x, [], []
    for spec, blk in zip(net.specs, net.blocks):
        if spec.kind == "linear":
            records.append(h)
            h = h @ blk.w
            h += blk.b
        elif spec.kind == "layer_norm":
            xhat = h - h.mean(axis=1, keepdims=True)
            inv = (1.0 / np.sqrt(np.einsum("ij,ij->i", xhat, xhat) / h.shape[1] + nn.LN_EPS))[:, None]
            xhat *= inv
            records.append((xhat, inv))
            h = xhat * blk.w[0]
            h += blk.b
        elif spec.kind == "elu":
            records.append(h)
            h = np.maximum(np.expm1(np.minimum(h, 0.0)), h)
        elif spec.kind == "relu":
            records.append(h > 0.0)
            h = np.maximum(h, 0.0)
        elif spec.kind == "residual_begin":
            records.append(None)
            skips.append(h)
        else:
            records.append(None)
            h = h + skips.pop()
    for i in range(len(net.specs) - 1, -1, -1):
        kind, blk, rec = net.specs[i].kind, net.blocks[i], records[i]
        if kind == "linear":
            if accumulate:
                blk.gw += rec.T @ g
                blk.gb += g.sum(axis=0)
            if i or want_input_grad:
                g = g @ blk.w.T
        elif kind == "layer_norm":
            xhat, inv = rec
            dxhat = g * blk.w[0]
            t = dxhat * xhat
            m2 = t.mean(axis=1, keepdims=True)
            if accumulate:
                blk.gw += np.multiply(g, xhat, out=t).sum(axis=0, keepdims=True)
                blk.gb += g.sum(axis=0)
            m1 = dxhat.mean(axis=1, keepdims=True)
            dxhat -= m1
            dxhat -= np.multiply(xhat, m2, out=t)
            dxhat *= inv
            g = dxhat
        elif kind == "elu":
            g = np.exp(np.minimum(rec, 0.0)) * g
        elif kind == "relu":
            g = g * rec
        elif kind == "residual_begin":
            g = g + skips.pop()
        else:
            skips.append(g)
    return g if want_input_grad else None


def _elu_stack(rng, width=8):
    """ELUs that do not follow a layer norm (at layer 0, whose record is the
    caller's x, after a linear and first in a residual span) beside two
    that do, with nested spans, a relu after an activation and a layer
    norm that meets the caller's output gradient first."""
    kinds = ["elu", "linear", "elu", "residual_begin", "elu", "linear", "layer_norm", "elu", "residual_end",
             "residual_begin", "residual_begin", "relu", "residual_end", "linear", "relu", "residual_end",
             "layer_norm", "elu", "relu"]
    specs = [nn.LayerSpec(k, width, width) for k in kinds] + [nn.LayerSpec("linear", width, 3), nn.LayerSpec("layer_norm", 3, 3)]
    return nn.Network(specs, nn.arena_blocks(specs))


class TestSingleUseTapes:
    """``backward`` consumes its tape, writes into its own buffers and
    rebuilds the input of an ELU after a layer norm; its results must be
    the bits of the old backward on a tape that stored every ELU input."""

    @pytest.mark.parametrize("stack, rebuilt", [("elu_mlp", 3), ("relu_mlp", 0), ("elu_stack", 2)])
    @pytest.mark.parametrize("accumulate", [True, False])
    @pytest.mark.parametrize("want_input_grad", [True, False])
    def test_same_bits_as_the_old_backward(self, stack, rebuilt, accumulate, want_input_grad):
        rng = np.random.default_rng(50)
        if stack == "elu_stack":
            net = _elu_stack(rng)
        else:
            net = random_net(rng, in_dim=8, hidden=8, out_dim=3, activation=stack[:-4])
        x, g = rng.standard_normal((30, 8)) * 3.0, rng.standard_normal((30, 3))
        x_before, g_before = x.copy(), g.copy()
        # layer-norm shifts that are not zero, and non-zero accumulators as after an earlier pass
        net.arena.params[:] = rng.standard_normal(net.n_params()) * 0.5
        net.arena.grads[:] = rng.standard_normal(net.n_params())
        ref = net.copy()
        old_in = _old_pass(ref, x, g, accumulate, want_input_grad)

        _, tape = nn.forward(net, x)
        assert sum(r is None for r, s in zip(tape.records, net.specs) if s.kind == "elu") == rebuilt
        gin = nn.backward(net, tape, g, accumulate, want_input_grad)
        assert _same_bits(gin, old_in) if want_input_grad else gin is None
        assert _same_bits(net.arena.grads, ref.arena.grads)
        # the caller's input and output gradient are never written
        assert _same_bits(x, x_before) and _same_bits(g, g_before)
        assert tape.records is None and tape.batch == 30

    def test_reused_tape_raises_before_any_thread_starts(self, lanes, monkeypatch):
        rng = np.random.default_rng(46)
        net = random_net(rng, in_dim=5, hidden=8, out_dim=3)
        x, g = rng.standard_normal((5, 5)), rng.standard_normal((5, 3))
        _, tape = nn.forward(net, x)
        assert tape.cut == 2 and tape.tail is not None
        nn.backward(net, tape, g)
        grads = net.arena.grads.copy()
        assert tape.records is None and tape.tail is None
        monkeypatch.setattr(nn, "_halves", lambda *args: pytest.fail("a consumed tape started a pass"))
        with pytest.raises(ContractViolation, match="consumed"):
            nn.backward(net, tape, g)
        assert _same_bits(net.arena.grads, grads)


def _assert_blocks_on_arena(net):
    """Every block field is a view into the network's arena, laid out block
    by block with w (row-major) then b; a field of a vector the arena does
    not hold is None."""
    arena = net.arena
    off = 0
    for blk in net.param_blocks():
        assert blk.arena is arena and blk.start == off
        for vec, fields in ((arena.params, ("w", "b")), (arena.grads, ("gw", "gb")), (arena.m, ("mw", "mb")), (arena.v, ("vw", "vb"))):
            wf, bf = (getattr(blk, f) for f in fields)
            if vec is None:
                assert wf is None and bf is None
                continue
            assert np.shares_memory(wf, vec) and np.shares_memory(bf, vec)
            assert _same_bits(vec[off : off + wf.size], wf.reshape(-1))
            assert _same_bits(vec[off + wf.size : off + wf.size + bf.size], bf)
        off += blk.n_params()
    assert off == arena.params.size == net.n_params()
    for vec in (getattr(arena, name) for name in arena.vectors):
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
        nn.save_network(net, prefix)
        loaded = nn.load_network(prefix)
        _assert_blocks_on_arena(loaded)
        for name in ("params", "m", "v"):
            assert _same_bits(getattr(loaded.arena, name), getattr(net.arena, name))
        assert loaded.arena.step_count == 2 and not loaded.arena.grads.any()

    def test_params_copy_holds_parameters_only(self, tmp_path):
        net = _trained_net()
        x = np.random.default_rng(33).standard_normal((5, net.in_dim))
        for frozen in (net.params_copy(), net.params_copy(read_only=True)):
            _assert_blocks_on_arena(frozen)
            assert frozen.arena.params_only and frozen.arena.vectors == ("params",)
            assert frozen.arena.step_count == 0
            assert _same_bits(frozen.arena.params, net.arena.params)
            assert not np.shares_memory(frozen.arena.params, net.arena.params)
            assert _same_bits(nn.forward(frozen, x, want_tape=False)[0], nn.forward(net, x, want_tape=False)[0])
            # a copy, a file round trip and re-adopted blocks stay params-only
            prefix = str(tmp_path / "frozen")
            nn.save_network(frozen, prefix)
            for again in (frozen.copy(), nn.load_network(prefix), nn.Network(frozen.specs[-1:], frozen.blocks[-1:])):
                _assert_blocks_on_arena(again)
                assert again.arena.params_only
            assert _same_bits(nn.load_network(prefix).arena.params, net.arena.params)
        locked = net.params_copy(read_only=True)
        with pytest.raises(ValueError):
            locked.param_blocks()[0].w[0, 0] = 1.0
        with pytest.raises(ValueError):
            locked.arena.params[0] = 1.0

    def test_blocks_of_both_kinds_rejected(self):
        specs = [nn.LayerSpec("linear", 3, 4), nn.LayerSpec("linear", 4, 2)]
        full = nn.ParamBlock(np.zeros((3, 4)), np.zeros(4))
        frozen = nn.Network(specs[1:], [nn.ParamBlock(np.zeros((4, 2)), np.zeros(2))]).params_copy()
        with pytest.raises(ConfigError, match="params-only"):
            nn.Network(specs, [full, frozen.blocks[0]])

    def test_load_rejects_blocks_with_different_step_counts(self, tmp_path):
        net = _trained_net()
        prefix = str(tmp_path / "net")
        _, bin_path = nn.save_network(net, prefix)
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

    def test_adam_step_net_aborts_when_the_second_moment_overflows(self):
        # a finite gradient past about 1e154 overflows (1 - beta2) * g * g;
        # the step used to set v to inf and freeze that parameter silently
        net = _trained_net()
        before = net.arena.copy()
        net.param_blocks()[0].gw[0, 0] = 1e160
        with np.errstate(over="ignore"), pytest.raises(NumericFault, match="overflowing"):
            nn.adam_step_net(net, 1e-2)
        assert net.arena.step_count == before.step_count
        for name in ("params", "m", "v"):
            assert _same_bits(getattr(net.arena, name), getattr(before, name))

    def test_found_overflow_of_the_bias_corrected_second_moment_faults(self):
        # (1 - beta2) * g * g = 1e307 passes, v / c2 = 1e310 does not: the
        # step used to move the weight by 0.0, leave v at 1e307 and succeed
        net = nn.build_mlp(3, 4, 2, np.random.default_rng(0), activation="relu")
        net.param_blocks()[0].gw[0, 0] = 1e155
        before = net.arena.copy()
        with pytest.raises(NumericFault, match="overflowing"):
            nn.adam_step_net(net, 1e-3)
        assert net.arena.step_count == before.step_count and net.version == 0
        for name in ("params", "grads", "m", "v"):
            assert _same_bits(getattr(net.arena, name), getattr(before, name)), name

    def test_step_near_the_float_range_keeps_the_formula(self):
        # a parameter of 1e301 is past the cheap bound, so the step runs on a
        # copy first; its bits are still the per-element formula's
        rng = np.random.default_rng(36)
        arena = nn.Arena(6)
        arena.params[:] = rng.standard_normal(6)
        arena.params[2] = 1e301
        arena.grads[:] = rng.standard_normal(6)
        p, g = arena.params.copy(), arena.grads.copy()
        b1, b2, eps = nn.ADAM_BETA1, nn.ADAM_BETA2, nn.ADAM_EPS
        m, v = (1.0 - b1) * g, (1.0 - b2) * g * g
        nn.adam_step(arena, 1e-2)
        assert arena.step_count == 1 and not arena.grads.any()
        assert _same_bits(arena.m, m) and _same_bits(arena.v, v)
        assert _same_bits(arena.params, p - 1e-2 * (m / (1.0 - b1)) / (np.sqrt(v / (1.0 - b2)) + eps))

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

    def test_split_passes_match_central_differences(self, lanes):
        rng = np.random.default_rng(10)
        for trial in range(5):
            net = random_net(rng)
            x = rng.standard_normal((5, net.in_dim))
            report = nn.grad_check(net, x, tolerance=1e-6, seed=trial)
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
        # dirty the adam state so the optimizer part has something to carry
        x = rng.standard_normal((4, net.in_dim))
        y, tape = nn.forward(net, x)
        nn.backward(net, tape, rng.standard_normal(y.shape))
        nn.adam_step_net(net, 1e-3)
        prefix = str(tmp_path / "net")
        nn.save_network(net, prefix)
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
        net = random_net(rng).params_copy()
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


# ---------------------------------------------------------------------------
# In-place passes against an out-of-place reference


def _ref_run(net, x, want_tape):
    """The forward loop with every layer writing a fresh buffer, recording
    what ``nn.forward`` records."""
    keep_inputs = want_tape != "input_grad"
    h, records, skips = x, [], []
    for i, (spec, blk) in enumerate(zip(net.specs, net.blocks)):
        if spec.kind == "linear":
            if want_tape:
                records.append(h if keep_inputs else None)
            h = h @ blk.w + blk.b
        elif spec.kind == "layer_norm":
            xhat = h - h.mean(axis=1, keepdims=True)
            inv = (1.0 / np.sqrt(np.einsum("ij,ij->i", xhat, xhat) / h.shape[1] + nn.LN_EPS))[:, None]
            xhat = xhat * inv
            if want_tape:
                records.append((xhat, inv))
            h = xhat * blk.w[0] + blk.b
        elif spec.kind == "elu":
            if want_tape:
                records.append(None if i and net.specs[i - 1].kind == "layer_norm" else h)
            h = np.maximum(np.expm1(np.minimum(h, 0.0)), h)
        elif spec.kind == "relu":
            if want_tape:
                records.append(h > 0.0)
            h = np.maximum(h, 0.0)
        elif spec.kind == "residual_begin":
            skips.append(h)
            if want_tape:
                records.append(None)
        else:
            h = h + skips.pop()
            if want_tape:
                records.append(None)
    return h, records


def _ref_backward(net, records, g, accumulate, want_input_grad):
    """The backward loop with every layer writing a fresh buffer; reads the
    records without freeing them."""
    skips = []
    for i in range(len(net.specs) - 1, -1, -1):
        kind, blk, rec = net.specs[i].kind, net.blocks[i], records[i]
        if kind == "linear":
            if accumulate:
                blk.gw += rec.T @ g
                blk.gb += g.sum(axis=0)
            if i or want_input_grad:
                g = g @ blk.w.T
        elif kind == "layer_norm":
            xhat, inv = rec
            if accumulate:
                blk.gw += (g * xhat).sum(axis=0, keepdims=True)
                blk.gb += g.sum(axis=0)
            dxhat = g * blk.w[0]
            m2 = (dxhat * xhat).mean(axis=1, keepdims=True)
            m1 = dxhat.mean(axis=1, keepdims=True)
            g = (dxhat - m1 - xhat * m2) * inv
        elif kind == "elu":
            if rec is None:
                rec = records[i - 1][0] * net.blocks[i - 1].w[0] + net.blocks[i - 1].b
            g = np.exp(np.minimum(rec, 0.0)) * g
        elif kind == "relu":
            g = g * rec
        elif kind == "residual_begin":
            g = g + skips.pop()
        else:
            skips.append(g)
    return g if want_input_grad else None


def _same_records(a, b):
    if len(a) != len(b):
        return False
    for ra, rb in zip(a, b):
        if isinstance(rb, tuple):
            if not (isinstance(ra, tuple) and all(_same_bits(u, v) for u, v in zip(ra, rb))):
                return False
        elif rb is None:
            if ra is not None:
                return False
        elif not (ra is not None and ra.dtype == rb.dtype and _same_bits(ra, rb)):
            return False
    return True


@st.composite
def _layer_kinds(draw, depth=0):
    """A random layer stack at one width: linear, layer norm, both
    activations and residual spans (possibly empty, nested two deep)."""
    kinds: list = []
    for _ in range(draw(st.integers(0 if depth else 1, 4))):
        kind = draw(st.sampled_from(["linear", "layer_norm", "elu", "relu", "span"] if depth < 2 else ["linear", "layer_norm", "elu", "relu"]))
        kinds += ["residual_begin", *draw(_layer_kinds(depth + 1)), "residual_end"] if kind == "span" else [kind]
    return kinds


class TestInPlacePasses:
    """Passes that write into buffers they own must give the bits of
    passes that write fresh buffers: outputs, tape records, input and
    parameter gradients.  The caller's ``x`` and output gradient keep
    their bytes; so does every residual skip, which is ``x`` for a span
    at layer 0 and a tape record (compared after the whole forward) for a
    span that opens with a linear layer or an ELU."""

    @settings(max_examples=120, deadline=None)
    @given(
        kinds=_layer_kinds(),
        seed=st.integers(0, 2**32 - 1),
        want_tape=st.sampled_from([True, "input_grad", False]),
        accumulate=st.booleans(),
        want_input_grad=st.booleans(),
    )
    @example(["layer_norm", "elu", "residual_begin", "elu", "linear", "relu", "residual_end", "linear"], 1, True, True, True)
    @example(["residual_begin", "relu", "residual_end", "layer_norm", "relu"], 2, True, True, True)
    @example(["linear", "residual_begin", "linear", "layer_norm", "elu", "residual_end", "residual_begin", "residual_end"], 3, "input_grad", False, True)
    @example(["relu", "layer_norm", "residual_begin", "residual_begin", "relu", "residual_end", "layer_norm", "residual_end"], 4, False, False, False)
    def test_same_bits_as_out_of_place(self, kinds, seed, want_tape, accumulate, want_input_grad):
        rng = np.random.default_rng(seed)
        width, rows = 5, 7
        specs = [nn.LayerSpec(k, width, width) for k in kinds]
        net = nn.Network(specs, nn.arena_blocks(specs))
        net.arena.params[:] = rng.standard_normal(net.n_params()) * 0.5
        net.arena.grads[:] = rng.standard_normal(net.n_params())
        ref = net.copy()
        x, g = rng.standard_normal((rows, width)) * 3.0, rng.standard_normal((rows, width))
        x_before, g_before = x.copy(), g.copy()

        y, tape = nn.forward(net, x, want_tape)
        ry, records = _ref_run(ref, x, want_tape)
        assert _same_bits(y, ry)
        if not want_tape:
            assert tape is None and _same_bits(x, x_before)
            return
        assert _same_records(tape.records, records)
        norms = [r for r in tape.records if isinstance(r, tuple)]
        accumulate = accumulate and want_tape is True
        gin = nn.backward(net, tape, g, accumulate, want_input_grad)
        ref_gin = _ref_backward(ref, records, g, accumulate, want_input_grad)
        assert _same_bits(gin, ref_gin) if want_input_grad else gin is None
        assert _same_bits(net.arena.grads, ref.arena.grads)
        assert _same_bits(x, x_before) and _same_bits(g, g_before)
        # backward only reads the layer norms' records
        assert _same_records(norms, [r for r in records if isinstance(r, tuple)])


# ---------------------------------------------------------------------------
# The worker lane


@pytest.fixture(params=["threaded", "sequential"])
def lanes(request, monkeypatch):
    """Every pass split (``_BOTH_MIN_WORK`` 0), its second half on the
    worker thread ("threaded") or, with the worker held, after the first
    half on the calling thread ("sequential")."""
    monkeypatch.setattr(nn, "_BOTH_MIN_WORK", 0)
    if request.param == "sequential":
        with nn._LANE_OPEN:
            yield request.param
    else:
        yield request.param


def _ref_split_run(net, x, want_tape):
    """A forward split at ``rows // 2``, written out: each half through the
    out-of-place reference, the outputs stacked; returns the output and
    both halves' records."""
    cut = x.shape[0] // 2
    (ya, ra), (yb, rb) = _ref_run(net, x[:cut], want_tape), _ref_run(net, x[cut:], want_tape)
    return np.concatenate([ya, yb]), (ra, rb)


def _ref_split_backward(net, records, g, accumulate, want_input_grad):
    """The backward of ``_ref_split_run``'s halves: the first half's
    parameter gradients add into ``net``'s, the second's into a zeroed
    spare that is added after both; the input gradients are stacked."""
    cut = g.shape[0] // 2
    spare = net.copy()
    spare.zero_grads()
    gins = [
        _ref_backward(net, records[0], g[:cut], accumulate, want_input_grad),
        _ref_backward(spare, records[1], g[cut:], accumulate, want_input_grad),
    ]
    if accumulate:
        net.arena.grads += spare.arena.grads
    return np.concatenate(gins) if want_input_grad else None


class TestTwinPasses:
    """From ``_BOTH_MIN_WORK`` up a pass runs as two twin passes, one per
    half of its rows.  Its results must be the bits of two single passes
    over the halves, stacked, whether the second half runs on the worker
    thread or after the first on the calling thread."""

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        kinds=_layer_kinds(),
        seed=st.integers(0, 2**32 - 1),
        rows=st.integers(2, 9),
        accumulate=st.booleans(),
        want_input_grad=st.booleans(),
    )
    @example(["linear", "layer_norm", "elu", "residual_begin", "linear", "relu", "residual_end", "linear"], 5, 7, True, True)
    @example(["layer_norm", "relu", "linear"], 6, 2, False, True)
    @pytest.mark.parametrize("want_tape", [True, "input_grad", False])
    def test_same_bits_as_two_single_passes(self, lanes, want_tape, kinds, seed, rows, accumulate, want_input_grad):
        rng = np.random.default_rng(seed)
        width = 5
        specs = [nn.LayerSpec(k, width, width) for k in kinds]
        net = nn.Network(specs, nn.arena_blocks(specs))
        net.arena.params[:] = rng.standard_normal(net.n_params()) * 0.5
        net.arena.grads[:] = rng.standard_normal(net.n_params())
        ref = net.copy()
        x, g = rng.standard_normal((rows, width)) * 3.0, rng.standard_normal((rows, width))
        x_before, g_before = x.copy(), g.copy()
        accumulate = accumulate and want_tape is True

        y, tape = nn.forward(net, x, want_tape)
        ry, records = _ref_split_run(ref, x, want_tape)
        assert _same_bits(y, ry) and _same_bits(x, x_before)
        if not want_tape:
            assert tape is None
            return
        assert tape.cut == rows // 2 and tape.batch == rows
        assert _same_records(tape.records, records[0]) and _same_records(tape.tail, records[1])
        gin = nn.backward(net, tape, g, accumulate, want_input_grad)
        ref_gin = _ref_split_backward(ref, records, g, accumulate, want_input_grad)
        assert _same_bits(gin, ref_gin) if want_input_grad else gin is None
        assert _same_bits(net.arena.grads, ref.arena.grads)
        assert _same_bits(x, x_before) and _same_bits(g, g_before)

    @pytest.mark.parametrize("name", ["forward", "backward"])
    def test_first_pass_public_on_caller_second_private(self, lanes, name, monkeypatch):
        # a profiler wraps the public functions and keeps one span stack,
        # so only the calling thread may enter them
        rng = np.random.default_rng(41)
        net = random_net(rng, in_dim=5, hidden=8, out_dim=3)
        x = rng.standard_normal((5, 5))
        _, tape = nn.forward(net, x)
        private, rows_arg = ("_run", 1) if name == "forward" else ("_backward", 2)
        calls = []
        for fn in (name, private):
            real = getattr(nn, fn)

            def recording(*args, _real=real, _fn=fn, **kw):
                calls.append((_fn, threading.get_ident(), args[rows_arg].shape[0] if _fn == private else None))
                return _real(*args, **kw)

            monkeypatch.setattr(nn, fn, recording)
        if name == "forward":
            nn.forward(net, x)
        else:
            nn.backward(net, tape, np.ones((5, 3)))
        me = threading.get_ident()
        assert calls[0] == (name, me, None) and len(calls) == 3
        (_, t_a, rows_a), (_, t_b, rows_b) = sorted(calls[1:], key=lambda c: c[2])
        assert (rows_a, rows_b) == (2, 3) and t_a == me
        assert (t_b != me) == (lanes == "threaded")

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_fault_in_either_half_raises_the_single_pass_message(self, lanes, monkeypatch):
        # a row [inf, 1] fails at layer 0; a row [1e150, 1] only at layer 2,
        # where the 1e200 weight overflows it
        specs = [nn.LayerSpec("linear", 2, 2), nn.LayerSpec("relu", 2, 2), nn.LayerSpec("linear", 2, 2),
                 nn.LayerSpec("relu", 2, 2), nn.LayerSpec("linear", 2, 1)]
        blocks = [nn.ParamBlock(np.eye(2), np.zeros(2)), None, nn.ParamBlock(np.eye(2) * 1e200, np.zeros(2)), None,
                  nn.ParamBlock(np.ones((2, 1)), np.zeros(1))]
        net = nn.Network(specs, blocks)
        fine, late, early = [0.5, 1.0], [1e150, 1.0], [np.inf, 1.0]
        cases = [([late, fine, fine, fine], 2), ([fine, fine, fine, late], 2), ([early, fine, late, fine], 0), ([late, fine, fine, early], 0)]
        for rows, layer in cases:
            x = np.array(rows)
            monkeypatch.setattr(nn, "_BOTH_MIN_WORK", 1 << 62)
            with pytest.raises(NumericFault, match=f"layer {layer} \\(linear\\)") as whole:
                nn.forward(net, x)
            monkeypatch.setattr(nn, "_BOTH_MIN_WORK", 0)
            before = threading.active_count()
            with pytest.raises(NumericFault) as split:
                nn.forward(net, x)
            assert str(split.value) == str(whole.value)
            assert threading.active_count() == before

    def test_fault_in_second_network_raises_the_single_pass_message(self, lanes, monkeypatch):
        # twin critics run their split passes in turn: after the first
        # network's halves ran clean, a fault in the second reads as the
        # second's unsplit pass, and no worker is left behind
        rng = np.random.default_rng(42)
        a, b = (random_net(rng, in_dim=5, hidden=8, out_dim=3) for _ in range(2))
        x = rng.standard_normal((4, 5))
        b.blocks[-1].b[0] = np.nan
        monkeypatch.setattr(nn, "_BOTH_MIN_WORK", 1 << 62)
        with pytest.raises(NumericFault) as single:
            nn.forward(b, x)
        ya, _ = nn.forward(a, x)
        monkeypatch.setattr(nn, "_BOTH_MIN_WORK", 0)
        before = threading.active_count()
        za, _ = nn.forward(a, x)
        assert _same_bits(za, ya)
        with pytest.raises(NumericFault) as split:
            nn.forward(b, x)
        assert str(split.value) == str(single.value)
        assert threading.active_count() == before
        # the lane is free again for the next pass
        assert _same_bits(nn.forward(a, x)[0], ya)

    def test_first_half_error_wins_when_both_fail(self, lanes, monkeypatch):
        rng = np.random.default_rng(43)
        net = random_net(rng, in_dim=5, hidden=8, out_dim=3)

        def failing(net_, x, *args):
            raise RuntimeError(f"half of {x.shape[0]} rows")

        monkeypatch.setattr(nn, "_run", failing)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="half of 2 rows"):
            nn.forward(net, rng.standard_normal((5, 5)))
        assert threading.active_count() == before

    def test_input_grad_tape_refuses_to_accumulate(self, lanes):
        rng = np.random.default_rng(44)
        net = random_net(rng, in_dim=5, hidden=8, out_dim=3)
        x, g = rng.standard_normal((3, 5)), rng.standard_normal((3, 3))
        _, tape = nn.forward(net, x, want_tape="input_grad")
        assert tape.tail is not None
        with pytest.raises(ContractViolation, match="input_grad"):
            nn.backward(net, tape, g)
        assert not net.arena.grads.any()
        # the refused call consumed nothing: the tape still serves one pass
        assert nn.backward(net, tape, g, accumulate=False).shape == x.shape

    def test_unknown_tape_kind_rejected(self):
        rng = np.random.default_rng(45)
        net = random_net(rng, in_dim=5, hidden=8, out_dim=3)
        with pytest.raises(ConfigError, match="want_tape"):
            nn.forward(net, rng.standard_normal((1, 5)), want_tape="params")


class TestWorkerLane:
    @pytest.mark.parametrize("gate", [0, 1 << 62])
    def test_offloaded_weight_gradients_equal_inline(self, gate, monkeypatch):
        # the worker's half adds its weight gradients into a spare vector;
        # with the worker held that half runs inline, after the first
        monkeypatch.setattr(nn, "_BOTH_MIN_WORK", gate)
        rng = np.random.default_rng(80)
        net = _elu_stack(rng)
        net.arena.params[:] = rng.standard_normal(net.n_params()) * 0.5
        net.arena.grads[:] = rng.standard_normal(net.n_params())
        ref = net.copy()
        x, g = rng.standard_normal((31, 8)), rng.standard_normal((31, 3))
        with nn._LANE_OPEN:
            _, tape = nn.forward(ref, x)
            inline = nn.backward(ref, tape, g)
        seen = []
        real = nn._backward

        def recording(*args):
            seen.append(threading.get_ident())
            return real(*args)

        _, tape = nn.forward(net, x)
        monkeypatch.setattr(nn, "_backward", recording)
        before = threading.active_count()
        assert _same_bits(nn.backward(net, tape, g), inline)
        assert _same_bits(net.arena.grads, ref.arena.grads)
        assert threading.active_count() == before
        me = threading.get_ident()
        assert sorted(t != me for t in seen) == ([False, True] if gate == 0 else [False])

    def test_pair_first_keeps_its_weight_gradients(self, monkeypatch):
        # of the two halves of a split backward, the first (on the calling
        # thread) adds into arena.grads and the worker's into a zeroed spare,
        # added after the join; the pair starts no third thread
        monkeypatch.setattr(nn, "_BOTH_MIN_WORK", 0)
        rng = np.random.default_rng(81)
        net = random_net(rng, in_dim=5, hidden=8, out_dim=3)
        net.arena.grads[:] = rng.standard_normal(net.n_params())
        x, g = rng.standard_normal((5, 5)), rng.standard_normal((5, 3))
        _, tape = nn.forward(net, x)
        me, real, seen = threading.get_ident(), nn._backward, {}
        before = threading.active_count()

        def recording(net_, records, g_, grads, out):
            mine = threading.get_ident() == me
            seen[mine] = (g_.shape[0], grads, grads.any(), threading.active_count())
            real(net_, records, g_, grads, out)
            if mine:
                seen["after_first"] = net.arena.grads.copy()

        monkeypatch.setattr(nn, "_backward", recording)
        nn.backward(net, tape, g)
        (rows_a, grads_a, _, n_a), (rows_b, spare, spare_live, n_b) = seen[True], seen[False]
        assert (rows_a, rows_b) == (2, 3)
        assert grads_a is net.arena.grads
        assert spare is not net.arena.grads and not np.shares_memory(spare, net.arena.grads)
        assert not spare_live and spare.any()
        assert _same_bits(net.arena.grads, seen["after_first"] + spare)
        assert max(n_a, n_b) <= before + 1 and threading.active_count() == before

    @pytest.mark.parametrize("name", ["forward", "backward", "weight_grads"])
    def test_worker_error_reaches_the_caller(self, name, monkeypatch):
        monkeypatch.setattr(nn, "_BOTH_MIN_WORK", 0)
        rng = np.random.default_rng(83)
        net = random_net(rng, in_dim=5, hidden=8, out_dim=3)
        x = rng.standard_normal((4, 5))
        _, tape = nn.forward(net, x)
        # "weight_grads" fails while the worker's half forms its weight gradients
        private = {"forward": "_run", "backward": "_backward", "weight_grads": "_grad_views"}[name]
        real, me = getattr(nn, private), threading.get_ident()

        def failing_on_the_worker(*args):
            if threading.get_ident() != me:
                raise RuntimeError("synthetic worker failure")
            return real(*args)

        monkeypatch.setattr(nn, private, failing_on_the_worker)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="synthetic worker failure"):
            if name == "forward":
                nn.forward(net, x)
            else:
                nn.backward(net, tape, np.ones((4, 3)))
        assert threading.active_count() == before
        assert not nn._LANE_OPEN.locked()
