"""Workload definitions shared by the system under test and the verifiers.

Everything a workload feeds the program is derived here from the
benchmark seed, so the node process (which serves), the client (which
sends) and the verification workers (which recompute every answer on
independently built sessions) agree on the inputs without shipping them.

Importing this module pulls in numpy and ``repro``: import it only after
:func:`pin_blas` ran, and, in the node, after the set-up clock started.
"""

from __future__ import annotations

import numpy as np

from repro.core.pipeline import PtqConfig
from repro.engine import PanaceaSession
from repro.models.synthetic import token_batches
from repro.models.zoo import PROXY_SPECS, build_proxy, proxy_batches
from repro.nn.layers import Linear
from repro.nn.module import Module

LM = "gpt2"
SCHEME = "aqs"
OFFLINE_BATCH, OFFLINE_SEQ, OFFLINE_POOL = 4, 64, 16
MLP_IN, MLP_HID, MLP_OUT = 256, 512, 128
INFER_POOL = 256
INFER_MAX_ROWS = 4
SYSTEM_PROMPTS, SYSTEM_LEN = 4, 32
SUFFIX_MIN, SUFFIX_MAX = 4, 12
MAX_NEW_TOKENS = 16
#: Byte budget of the decode deployment's PrefixKVCache; large enough that
#: the four system prompts, refreshed on every hit, are never evicted.
PREFIX_CACHE_BYTES = 32 << 20
#: Decode requests whose op counts are reported: a fixed seeded prefix of
#: the request stream, so the counts repeat exactly for a given seed.
COUNTED_DECODES = 64


class GatewayMlp(Module):
    """256 -> 512 -> 128 ReLU MLP served by the ``gateway-infer`` workload."""

    def __init__(self, seed: int = 0) -> None:
        super().__init__()
        rng = np.random.default_rng(seed)
        self.fc1 = Linear(MLP_IN, MLP_HID, rng=rng)
        self.fc2 = Linear(MLP_HID, MLP_OUT, rng=rng)

    def forward(self, x):
        return self.fc2(np.maximum(self.fc1(x), 0.0))


def lm_session() -> PanaceaSession:
    """The ``gpt2`` proxy exactly as ``ModelServer.deploy_proxy`` builds it."""
    model, _ = build_proxy(LM, seed=0)
    session = PanaceaSession(model, PtqConfig.for_scheme(SCHEME,
                                                         exec_path="fast"))
    return session.calibrate(proxy_batches(LM, 2, 2, seed=1))


def mlp_session() -> PanaceaSession:
    rng = np.random.default_rng(100)
    calib = [rng.normal(0.0, 1.0, (4, MLP_IN)) for _ in range(3)]
    return PanaceaSession(GatewayMlp(0), PtqConfig(scheme=SCHEME),
                          calibration=calib)


def offline_batches(seed: int) -> list[np.ndarray]:
    """The pool of Zipfian ``4x64`` token batches the offline loop cycles."""
    vocab = PROXY_SPECS[LM].vocab
    return token_batches(vocab, OFFLINE_BATCH, OFFLINE_SEQ, OFFLINE_POOL,
                         seed=seed)


def infer_payloads(seed: int) -> list[np.ndarray]:
    """The pool of 1-4 row float64 inputs sent to ``/v1/infer``."""
    rng = np.random.default_rng([seed, 1])
    rows = rng.integers(1, INFER_MAX_ROWS + 1, size=INFER_POOL)
    return [rng.normal(0.0, 1.0, (int(r), MLP_IN)) for r in rows]


def system_prompts(seed: int) -> list[np.ndarray]:
    vocab = PROXY_SPECS[LM].vocab
    rng = np.random.default_rng([seed, 2])
    return [rng.integers(0, vocab, size=SYSTEM_LEN, dtype=np.int64)
            for _ in range(SYSTEM_PROMPTS)]


def decode_prompts(seed: int):
    """Endless seeded stream of ``system prompt + unique suffix`` prompts."""
    vocab = PROXY_SPECS[LM].vocab
    systems = system_prompts(seed)
    rng = np.random.default_rng([seed, 3])
    seen = set()
    while True:
        system = systems[int(rng.integers(len(systems)))]
        suffix = rng.integers(0, vocab, size=int(
            rng.integers(SUFFIX_MIN, SUFFIX_MAX + 1)), dtype=np.int64)
        if tuple(suffix) in seen:
            continue
        seen.add(tuple(suffix))
        yield np.concatenate([system, suffix])


def op_counts(stats: dict) -> dict:
    """The additive part of ``PanaceaSession.stats()``."""
    return {"mul4": stats["mul4"], "ema_nibbles": stats["ema_nibbles"],
            "layer_calls": stats["n_layer_calls"],
            "rho_x_sum": stats["mean_rho_x"] * stats["n_layer_calls"]}


def op_delta(before: dict, after: dict) -> dict:
    return {key: after[key] - before[key] for key in before}
