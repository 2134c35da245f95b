"""Tests for the Module system, layers, attention blocks and optimizers."""

import numpy as np
import pytest

from repro import nn
from repro.tensor import Tensor, no_grad


def _norm_and_input(kind):
    """A norm layer with non-trivial affine parameters, and an input."""
    rng = np.random.default_rng(5)
    if kind == "group":
        norm, shape = nn.GroupNorm(2, 4), (2, 4, 3, 3)
    else:
        norm, shape = nn.LayerNorm(6), (2, 3, 6)
    norm.weight.data[...] = rng.uniform(0.5, 1.5, norm.weight.shape)
    norm.bias.data[...] = rng.uniform(-0.5, 0.5, norm.bias.shape)
    x = Tensor(rng.standard_normal(shape).astype(np.float32) * 2 + 1,
               requires_grad=True)
    return norm, x


class TestModuleSystem:
    def test_parameter_registration_and_traversal(self):
        class Block(nn.Module):
            def __init__(self):
                super().__init__()
                self.fc = nn.Linear(4, 3)
                self.scale = nn.Parameter(np.ones(3, dtype=np.float32))

        block = Block()
        names = dict(block.named_parameters())
        assert "scale" in names
        assert "fc.weight" in names and "fc.bias" in names
        assert len(block.parameters()) == 3

    def test_state_dict_roundtrip(self):
        layer = nn.Linear(4, 3, rng=np.random.default_rng(0))
        other = nn.Linear(4, 3, rng=np.random.default_rng(99))
        assert not np.allclose(layer.weight.data, other.weight.data)
        other.load_state_dict(layer.state_dict())
        np.testing.assert_allclose(layer.weight.data, other.weight.data)

    def test_buffers_in_state_dict(self):
        module = nn.Module()
        module.register_buffer("running", np.arange(3, dtype=np.float32))
        state = module.state_dict()
        assert "running" in state
        module.load_state_dict({"running": np.zeros(3, dtype=np.float32)})
        np.testing.assert_allclose(module.running, np.zeros(3))

    def test_get_and_set_submodule(self):
        seq = nn.Sequential(nn.Linear(4, 4), nn.SiLU(), nn.Linear(4, 2))
        assert isinstance(seq.get_submodule("2"), nn.Linear)
        seq.set_submodule("1", nn.Identity())
        assert isinstance(seq.get_submodule("1"), nn.Identity)

    def test_nested_set_submodule(self):
        class Outer(nn.Module):
            def __init__(self):
                super().__init__()
                self.inner = nn.Sequential(nn.Linear(2, 2))

        outer = Outer()
        outer.set_submodule("inner.0", nn.Identity())
        assert isinstance(outer.get_submodule("inner.0"), nn.Identity)

    def test_train_eval_propagates(self):
        seq = nn.Sequential(nn.Dropout(0.5), nn.Linear(2, 2))
        seq.eval()
        assert not seq.get_submodule("0").training
        seq.train()
        assert seq.get_submodule("0").training

    def test_module_list_iteration(self):
        blocks = nn.ModuleList([nn.Linear(2, 2) for _ in range(3)])
        assert len(blocks) == 3
        assert all(isinstance(b, nn.Linear) for b in blocks)
        assert len(list(blocks.parameters())) == 6

    def test_num_parameters(self):
        layer = nn.Linear(10, 5)
        assert layer.num_parameters() == 10 * 5 + 5

    def test_requires_grad_toggle(self):
        layer = nn.Linear(3, 3)
        layer.requires_grad_(False)
        assert all(not p.requires_grad for p in layer.parameters())


class TestLayers:
    def test_linear_forward_shape(self):
        layer = nn.Linear(6, 4)
        out = layer(Tensor(np.zeros((2, 6), dtype=np.float32)))
        assert out.shape == (2, 4)

    def test_conv2d_forward_shape(self):
        layer = nn.Conv2d(3, 8, kernel_size=3, padding=1)
        out = layer(Tensor(np.zeros((2, 3, 10, 10), dtype=np.float32)))
        assert out.shape == (2, 8, 10, 10)

    def test_conv2d_stride_halves(self):
        layer = nn.Conv2d(3, 8, kernel_size=3, stride=2, padding=1)
        out = layer(Tensor(np.zeros((1, 3, 8, 8), dtype=np.float32)))
        assert out.shape == (1, 8, 4, 4)

    def test_groupnorm_normalizes_groups(self):
        rng = np.random.default_rng(0)
        norm = nn.GroupNorm(2, 8)
        x = Tensor(rng.standard_normal((2, 8, 4, 4)).astype(np.float32) * 5 + 3)
        out = norm(x).data
        grouped = out.reshape(2, 2, -1)
        np.testing.assert_allclose(grouped.mean(axis=2), 0.0, atol=1e-3)
        np.testing.assert_allclose(grouped.std(axis=2), 1.0, atol=1e-2)

    def test_groupnorm_rejects_bad_groups(self):
        with pytest.raises(ValueError):
            nn.GroupNorm(3, 8)

    @pytest.mark.parametrize("kind", ["group", "layer"])
    def test_norm_graph_free_output_equals_graph_building_output(self, kind):
        norm, x = _norm_and_input(kind)
        tracked = norm(x)
        with no_grad():
            free = norm(x)
        assert tracked.requires_grad and not free.requires_grad
        assert np.array_equal(free.data, tracked.data)

    @pytest.mark.parametrize("kind", ["group", "layer"])
    @pytest.mark.parametrize("wrt", ["input", "weight", "bias"])
    def test_norm_gradcheck(self, kind, wrt):
        norm, x = _norm_and_input(kind)
        probe = np.random.default_rng(6).standard_normal(x.shape).astype(np.float32)
        (norm(x) * Tensor(probe)).sum().backward()
        target = {"input": x, "weight": norm.weight, "bias": norm.bias}[wrt]

        eps = 1e-3
        numeric = np.zeros(target.shape)
        for index in np.ndindex(target.shape):
            original = target.data[index]
            losses = []
            for value in (original + eps, original - eps):
                target.data[index] = value
                with no_grad():
                    losses.append(float((norm(x).data * probe).sum()))
            target.data[index] = original
            numeric[index] = (losses[0] - losses[1]) / (2 * eps)
        np.testing.assert_allclose(target.grad, numeric, atol=2e-2, rtol=1e-2)

    def test_layernorm_normalizes_last_dim(self):
        rng = np.random.default_rng(1)
        norm = nn.LayerNorm(16)
        x = Tensor(rng.standard_normal((4, 16)).astype(np.float32) * 3 - 1)
        out = norm(x).data
        np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-3)

    def test_embedding_lookup(self):
        emb = nn.Embedding(10, 4)
        out = emb(np.array([[1, 2], [3, 3]]))
        assert out.shape == (2, 2, 4)
        np.testing.assert_allclose(out.data[1, 0], out.data[1, 1])

    def test_dropout_eval_is_identity(self):
        drop = nn.Dropout(0.9)
        drop.eval()
        x = Tensor(np.ones((4, 4), dtype=np.float32))
        np.testing.assert_allclose(drop(x).data, x.data)

    def test_dropout_train_zeroes_elements(self):
        drop = nn.Dropout(0.5, rng=np.random.default_rng(0))
        x = Tensor(np.ones((100,), dtype=np.float32))
        out = drop(x).data
        assert np.sum(out == 0.0) > 10

    def test_downsample_and_upsample_shapes(self):
        x = Tensor(np.zeros((1, 4, 8, 8), dtype=np.float32))
        down = nn.Downsample(4)(x)
        assert down.shape == (1, 4, 4, 4)
        up = nn.Upsample(4)(down)
        assert up.shape == (1, 4, 8, 8)

    def test_silu_and_gelu_match_tensor_methods(self):
        x = Tensor(np.linspace(-2, 2, 9, dtype=np.float32))
        np.testing.assert_allclose(nn.SiLU()(x).data, x.silu().data)
        np.testing.assert_allclose(nn.GELU()(x).data, x.gelu().data)


class TestAttention:
    def test_self_attention_shape(self):
        attn = nn.MultiHeadAttention(16, num_heads=4)
        x = Tensor(np.random.default_rng(0).standard_normal((2, 9, 16)).astype(np.float32))
        assert attn(x).shape == (2, 9, 16)

    def test_cross_attention_uses_context(self):
        attn = nn.MultiHeadAttention(16, num_heads=2, context_dim=8,
                                     rng=np.random.default_rng(0))
        x = Tensor(np.random.default_rng(1).standard_normal((2, 9, 16)).astype(np.float32))
        ctx_a = Tensor(np.random.default_rng(2).standard_normal((2, 5, 8)).astype(np.float32))
        ctx_b = Tensor(np.random.default_rng(3).standard_normal((2, 5, 8)).astype(np.float32))
        out_a = attn(x, context=ctx_a).data
        out_b = attn(x, context=ctx_b).data
        assert out_a.shape == (2, 9, 16)
        assert not np.allclose(out_a, out_b)

    def test_dim_must_divide_heads(self):
        with pytest.raises(ValueError):
            nn.MultiHeadAttention(10, num_heads=3)

    def test_transformer_block_shape(self):
        block = nn.TransformerBlock(16, num_heads=2, context_dim=8)
        x = Tensor(np.zeros((1, 4, 16), dtype=np.float32))
        ctx = Tensor(np.zeros((1, 3, 8), dtype=np.float32))
        assert block(x, context=ctx).shape == (1, 4, 16)

    def test_spatial_transformer_preserves_shape_and_is_residual(self):
        st = nn.SpatialTransformer(8, num_heads=2, rng=np.random.default_rng(0))
        x = Tensor(np.random.default_rng(1).standard_normal((2, 8, 4, 4)).astype(np.float32))
        out = st(x)
        assert out.shape == (2, 8, 4, 4)
        # Residual connection: output should not be wildly far from input.
        assert np.mean(np.abs(out.data - x.data)) < 10.0


class TestOptimizers:
    @pytest.mark.parametrize("optimizer_cls,kwargs", [
        (nn.SGD, {"lr": 0.1}),
        (nn.SGD, {"lr": 0.05, "momentum": 0.9}),
        (nn.Adam, {"lr": 0.1}),
    ])
    def test_minimizes_quadratic(self, optimizer_cls, kwargs):
        param = nn.Parameter(np.array([5.0, -3.0], dtype=np.float32))
        optimizer = optimizer_cls([param], **kwargs)
        for _ in range(200):
            loss = (param * param).sum()
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
        assert np.all(np.abs(param.data) < 0.1)

    def test_step_skips_params_without_grad(self):
        param = nn.Parameter(np.ones(2, dtype=np.float32))
        before = param.data.copy()
        nn.Adam([param]).step()
        np.testing.assert_allclose(param.data, before)
