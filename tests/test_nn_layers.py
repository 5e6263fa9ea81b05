"""Tests for the NumPy NN substrate: module system and layers."""

import numpy as np
import pytest

from repro.nn import functional as F
from repro.nn.layers import Conv2d, Embedding, LayerNorm, Linear, RMSNorm, im2col
from repro.nn.module import Module


class TestModuleSystem:
    def test_named_modules_traversal(self):
        class Net(Module):
            def __init__(self):
                super().__init__()
                self.a = Linear(4, 4)
                self.b = Linear(4, 2)

            def forward(self, x):
                return self.b(self.a(x))

        net = Net()
        names = [n for n, _ in net.named_modules()]
        assert set(names) == {"", "a", "b"}

    def test_replace_child(self):
        class Net(Module):
            def __init__(self):
                super().__init__()
                self.a = Linear(4, 4)

            def forward(self, x):
                return self.a(x)

        net = Net()
        new = Linear(4, 4)
        net.replace_child("a", new)
        assert net.a is new
        assert dict(net.named_modules())["a"] is new

    def test_replace_missing_raises(self):
        net = Linear(4, 4)
        with pytest.raises(KeyError):
            net.replace_child("nope", Linear(4, 4))

    def test_forward_hook_fires_and_removes(self):
        lin = Linear(4, 4)
        seen = []
        remove = lin.register_forward_hook(
            lambda m, args, out: seen.append(args[0].shape))
        lin(np.zeros((2, 4)))
        remove()
        lin(np.zeros((2, 4)))
        assert seen == [(2, 4)]

    def test_n_parameters(self):
        lin = Linear(4, 3)
        assert lin.n_parameters() == 4 * 3 + 3


class TestLinear:
    def test_shapes(self):
        lin = Linear(8, 3)
        assert lin(np.zeros((5, 8))).shape == (5, 3)
        assert lin(np.zeros((2, 7, 8))).shape == (2, 7, 3)

    def test_matches_manual(self):
        lin = Linear(4, 2)
        x = np.random.default_rng(0).normal(size=(3, 4))
        assert np.allclose(lin(x), x @ lin.weight.T + lin.bias)

    def test_no_bias(self):
        lin = Linear(4, 2, bias=False)
        assert lin.bias is None

    def test_gemm_shape(self):
        assert Linear(768, 3072).gemm_shape(128) == (3072, 768, 128)


class TestConv2d:
    def test_matches_direct_convolution(self):
        rng = np.random.default_rng(1)
        conv = Conv2d(2, 3, 3, stride=1, padding=1, rng=rng)
        x = rng.normal(size=(1, 2, 5, 5))
        out = conv(x)
        assert out.shape == (1, 3, 5, 5)
        # check one output element by direct correlation
        xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
        manual = float(np.sum(xp[0, :, 1:4, 1:4] * conv.weight[0])
                       + conv.bias[0])
        assert out[0, 0, 1, 1] == pytest.approx(manual)

    def test_stride(self):
        conv = Conv2d(1, 1, 3, stride=2, padding=1)
        assert conv(np.zeros((1, 1, 8, 8))).shape == (1, 1, 4, 4)

    def test_gemm_shape_matches_im2col(self):
        conv = Conv2d(16, 32, 3, stride=2, padding=1)
        m, k, n = conv.gemm_shape(16, 16, batch=2)
        x = np.zeros((2, 16, 16, 16))
        cols, oh, ow = im2col(x, 3, 3, 2, 1)
        assert (m, k) == (32, 16 * 9)
        assert cols.shape == (k, n)

    def test_im2col_values(self):
        x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
        cols, oh, ow = im2col(x, 2, 2, 2, 0)
        assert (oh, ow) == (2, 2)
        assert cols.shape == (4, 4)
        # first patch is [[0,1],[4,5]]
        assert list(cols[:, 0]) == [0, 1, 4, 5]


class TestNorms:
    def test_layernorm_normalizes(self):
        ln = LayerNorm(16)
        x = np.random.default_rng(2).normal(3.0, 2.0, (4, 16))
        out = ln(x)
        assert np.allclose(out.mean(axis=-1), 0, atol=1e-6)
        assert np.allclose(out.std(axis=-1), 1, atol=1e-2)

    def test_rmsnorm_scale(self):
        rn = RMSNorm(8)
        x = np.random.default_rng(3).normal(0, 5.0, (4, 8))
        out = rn(x)
        rms = np.sqrt(np.mean(out ** 2, axis=-1))
        assert np.allclose(rms, 1.0, atol=1e-2)


class TestEmbedding:
    def test_lookup(self):
        emb = Embedding(10, 4)
        out = emb(np.array([[1, 2], [3, 4]]))
        assert out.shape == (2, 2, 4)
        assert np.array_equal(out[0, 0], emb.weight[1])


class TestFunctional:
    def test_gelu_asymmetric(self):
        """GELU saturates below ~ -0.17 and passes positives — the source
        of the paper's asymmetric activation distributions."""
        x = np.linspace(-6, 6, 1000)
        y = F.gelu(x)
        assert y.min() > -0.2
        assert y.max() == pytest.approx(6.0, abs=0.01)

    def test_gelu_matches_pow_formula(self):
        """The ``x * x * x`` cube agrees with the ``x ** 3`` formula.

        The tanh argument and every output with ``x >= -1`` agree to
        ``rtol=1e-15``.  In the negative tail ``1 + tanh`` cancels, which
        magnifies any last-ulp change relatively, so there the outputs are
        held to ``1e-15 * |x|`` absolute.
        """
        rng = np.random.default_rng(7)
        x = np.concatenate([np.linspace(-12, 12, 4001),
                            rng.normal(0, 3, 20000)])
        c = np.sqrt(2.0 / np.pi)
        ref_arg = x + 0.044715 * x ** 3
        ref = 0.5 * x * (1.0 + np.tanh(c * ref_arg))
        out = F.gelu(x)
        np.testing.assert_allclose(x + 0.044715 * (x * x * x), ref_arg,
                                   rtol=1e-15, atol=0)
        calm = x >= -1
        np.testing.assert_allclose(out[calm], ref[calm], rtol=1e-15, atol=0)
        assert np.all(np.abs(out - ref) <= 1e-15 * np.maximum(np.abs(x), 1))

    def test_relu(self):
        assert F.relu(np.array([-1.0, 2.0])).tolist() == [0.0, 2.0]

    def test_silu_shape(self):
        x = np.array([-100.0, 0.0, 100.0])
        y = F.silu(x)
        assert y[0] == pytest.approx(0.0, abs=1e-6)
        assert y[2] == pytest.approx(100.0)

    def test_softmax_sums_to_one(self):
        x = np.random.default_rng(4).normal(size=(3, 7))
        assert np.allclose(F.softmax(x).sum(axis=-1), 1.0)

    def test_softmax_stable_for_large_logits(self):
        out = F.softmax(np.array([1000.0, 1000.0]))
        assert np.allclose(out, 0.5)

    def test_cross_entropy_perfect_prediction(self):
        logits = np.array([[[100.0, 0.0], [0.0, 100.0]]])
        targets = np.array([[0, 1]])
        assert F.cross_entropy(logits, targets) == pytest.approx(0.0, abs=1e-6)

    def test_log_softmax_matches_softmax(self):
        x = np.random.default_rng(5).normal(size=(4, 9))
        assert np.allclose(np.exp(F.log_softmax(x)), F.softmax(x))
