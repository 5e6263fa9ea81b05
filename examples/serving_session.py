"""Two-phase serving: prepare layer plans once, stream request batches.

Panacea computes every weight-side artifact of the AQS-GEMM offline — SBR
slices, all-zero HO vector masks, RLE indices, the Eq. 6 compensation bias.
:class:`PanaceaSession` mirrors that split for a whole model:

1. **offline** — calibrate on a held-out set; conversion runs each layer's
   engine ``prepare`` exactly once and caches a ``LayerPlan``;
2. **online** — ``session.run(batch)`` executes only the activation path
   and folds each request's per-layer trace (ops, sparsities) into the
   session's lifetime counters for the hardware model.

The demo serves a stream of batches through an AQS-quantized transformer
block stack and shows that repeated requests re-use the cached plans.  The
session uses the default ``exec_path="fast"`` (one exact GEMM per layer;
pass ``PtqConfig(exec_path="sliced")`` for the plane-pair reference).  The
session keeps only lifetime counters, so an unbounded request stream serves
in constant memory; a caller that wants one request's layer records takes
them from ``serve_coalesced``, which returns them.

Run:  PYTHONPATH=src python examples/serving_session.py
"""

import time

import numpy as np

from repro.core import PtqConfig
from repro.engine import PanaceaSession
from repro.nn.transformer import CausalLM

rng = np.random.default_rng(0)

# --- a small causal LM and a calibration set ------------------------------
model = CausalLM(vocab=256, dim=64, n_layers=2, n_heads=4, mlp_hidden=128)
calibration = [rng.integers(0, 256, (2, 32)) for _ in range(4)]

# --- offline phase: calibrate + build every layer plan --------------------
session = PanaceaSession(model, PtqConfig(scheme="aqs"))
t0 = time.perf_counter()
session.calibrate(calibration)
prepare_s = time.perf_counter() - t0
print(f"offline: calibrated and prepared {len(session.plans)} layer plans "
      f"in {prepare_s * 1e3:.0f} ms")
for name, plan in list(session.plans.items())[:3]:
    print(f"  {name}: engine={plan.engine}, W {plan.m}x{plan.k}")

# --- online phase: stream request batches ---------------------------------
requests = (rng.integers(0, 256, (2, 32)) for _ in range(8))
t0 = time.perf_counter()
outputs = list(session.run_many(requests))
serve_s = time.perf_counter() - t0
print(f"\nonline: served {len(outputs)} requests in {serve_s * 1e3:.0f} ms "
      f"({serve_s / len(outputs) * 1e3:.1f} ms/request, weight path cached)")

# --- observability: one request's trace and the lifetime stats -------------
_, (newest,) = session.serve_coalesced([rng.integers(0, 256, (2, 32))])
print(f"\nrequest {newest.request_id}: batch {newest.batch_shape}, "
      f"{len(newest.layers)} layer executions, "
      f"{newest.total_ops().mul4 / 1e6:.1f}M 4-bit multiplies")
stats = session.stats()
print(f"session: {stats['n_requests']} requests served, "
      f"{stats['n_layer_calls']} layer calls, "
      f"mean rho_x {stats['mean_rho_x']:.1%}, "
      f"mean rho_w {stats['mean_rho_w']:.1%}")
