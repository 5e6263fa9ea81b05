"""Stateless NN operations (activations, normalization, attention math).

These mirror the operations appearing in the paper's benchmark models:
GELU (BERT/DeiT/GPT-2/OPT MLPs — the source of the "many near-zero values"
in MLP.FC2 inputs, paper Fig. 14a), SiLU (Llama), ReLU (ResNet), softmax,
layer/RMS normalization.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "gelu",
    "relu",
    "silu",
    "softmax",
    "layer_norm",
    "rms_norm",
    "log_softmax",
    "cross_entropy",
]

_SQRT_2_OVER_PI = float(np.sqrt(2.0 / np.pi))


def gelu(x: np.ndarray) -> np.ndarray:
    """Tanh-approximated GELU (the variant used by GPT-2/BERT).

    The cube is two multiplies because ``x ** 3`` goes through ``pow``,
    which is several times slower than the rest of the function.
    """
    return 0.5 * x * (1.0 + np.tanh(_SQRT_2_OVER_PI
                                    * (x + 0.044715 * (x * x * x))))


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def silu(x: np.ndarray) -> np.ndarray:
    """SiLU / swish, used by Llama MLPs."""
    return x / (1.0 + np.exp(-np.clip(x, -60.0, 60.0)))


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    shifted = x - np.max(x, axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=axis, keepdims=True)


def log_softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    shifted = x - np.max(x, axis=axis, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=axis, keepdims=True))


def layer_norm(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray,
               eps: float = 1e-5) -> np.ndarray:
    mean = np.mean(x, axis=-1, keepdims=True)
    var = np.var(x, axis=-1, keepdims=True)
    return (x - mean) / np.sqrt(var + eps) * gamma + beta


def rms_norm(x: np.ndarray, gamma: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """RMSNorm, used by Llama."""
    scale = np.sqrt(np.mean(x ** 2, axis=-1, keepdims=True) + eps)
    return x / scale * gamma


def cross_entropy(logits: np.ndarray, targets: np.ndarray) -> float:
    """Mean negative log-likelihood of integer ``targets`` under ``logits``.

    ``logits`` has shape ``(..., vocab)``; ``targets`` the matching integer
    shape.  Used for the perplexity evaluations (``ppl = exp(loss)``).
    """
    logp = log_softmax(logits, axis=-1)
    flat = logp.reshape(-1, logp.shape[-1])
    idx = targets.reshape(-1).astype(np.int64)
    return float(-np.mean(flat[np.arange(flat.shape[0]), idx]))
