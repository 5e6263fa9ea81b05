"""End-to-end benchmark of the Panacea reproduction.

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (why each exists is recorded in ``BENCHMARK.json``):

* ``offline-prefill`` — ``PanaceaSession.run`` of the ``gpt2`` proxy on
  seeded 4x64 token batches, back to back on one thread; no serving layers.
* ``gateway-infer`` — two keep-alive connections in a closed loop posting
  1-4 row base64 payloads to a 256-512-128 AQS MLP behind ``Gateway`` and
  ``ModelServer`` with the default ``BatchPolicy``.
* ``gateway-decode`` — two closed-loop streaming ``/v1/decode`` clients on
  the ``gpt2`` proxy; every prompt is one of four seeded system prompts plus
  a unique suffix, with the ``PrefixKVCache`` warmed on the bare system
  prompts before timing.

The program runs in a node process of its own (``node.py``), so the
client's work never shares the server's interpreter lock.  ``--trace 0``
measures the end-to-end metrics with no instrumentation.  ``--trace 1``
alternates untraced and traced phases, times each layer's public calls
from outside during the traced ones (``layers.py``), and reports the
per-layer metrics together with the tracing overhead.

Every run checks every output bit for bit against sessions built
independently in worker processes (``verify.py``), counts refusals,
errors and mismatches as failed operations, and ends its standard output
with one JSON line: ``{"correct", "attempted", "failed", "metrics"}``.
"""

import argparse
import asyncio
import gc
import json
import math
import os
import queue
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import env  # noqa: E402

#: Cold starts sampled before and after the measured window; with the
#: node's own start that is seven, spread over the run so that one slow
#: stretch of a shared host cannot set the median alone.
PROBES_BEFORE, PROBES_AFTER = 3, 3
#: Untraced/traced alternation of a ``--trace 1`` run.
TRACE_PHASES = 6
WARMUP_S = 1.5
REPLY_TIMEOUT_S = 150
VERIFY_WORKERS = 2
TAIL_FLOOR = 10
#: The tail percentile every workload reports.  A p99 would need 1000
#: samples, more than the offline and decode workloads complete in a run.
TAIL_P = 90
#: gateway-infer's time per row is taken over this many consecutive
#: requests: one request's rows (1-4) would split it into four clusters.
ROW_GROUP = 64
#: How far past ``--seconds`` a phase may run to reach its sample floor.
OVERRUN = 3


class BenchError(RuntimeError):
    """The run cannot produce a trustworthy result."""


class NodeProcess:
    """``node.py`` in a subprocess, spoken to in JSON lines."""

    def __init__(self, workload: str, seed: int, *, probe: bool = False):
        cmd = [sys.executable, os.path.join(HERE, "node.py"), workload,
               "--seed", str(seed)] + (["--probe"] if probe else [])
        self.proc = subprocess.Popen(cmd, cwd=env.ROOT, env=env.child_env(),
                                     text=True, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE)
        self._lines: queue.Queue = queue.Queue()
        self._reader = threading.Thread(target=self._pump, daemon=True)
        self._reader.start()
        try:
            self.ready = self.read()
        except BaseException:
            self.close()
            raise

    def _pump(self) -> None:
        for line in self.proc.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def read(self) -> dict:
        try:
            line = self._lines.get(timeout=REPLY_TIMEOUT_S)
        except queue.Empty:
            raise BenchError("node did not answer in time") from None
        if line is None:
            raise BenchError(f"node exited with {self.proc.wait()}")
        return json.loads(line)

    def call(self, **command) -> dict:
        self.proc.stdin.write(json.dumps(command) + "\n")
        self.proc.stdin.flush()
        return self.read()

    def close(self) -> None:
        try:
            self.proc.stdin.close()
        except OSError:
            pass
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self._reader.join(timeout=10)


def cold_start(workload: str, seed: int) -> float:
    node = NodeProcess(workload, seed, probe=True)
    node.close()
    return node.ready["setup_s"]


def phases_for(seconds: float, trace: bool, min_samples: int) -> list:
    """``(seconds, traced, min_samples, limit_s)`` per measured phase.

    A phase lasts ``seconds``.  An untraced run is one phase that, if the
    host is slow, runs on until its highest tail percentile has
    ``TAIL_FLOOR`` samples beyond it, but never past ``limit_s``.
    """
    if not trace:
        return [(seconds, False, min_samples, OVERRUN * seconds)]
    return [(seconds / TRACE_PHASES, i % 2 == 1, 0, seconds / TRACE_PHASES)
            for i in range(TRACE_PHASES)]


#: Fewest samples that leave ``TAIL_FLOOR`` beyond the ``TAIL_P``-th
#: percentile.
MIN_SAMPLES = math.ceil(TAIL_FLOOR * 100 / (100 - TAIL_P))


def tail(values, name: str, samples: dict) -> float:
    """The ``TAIL_P``-th percentile, refusing one with < 10 samples beyond
    it."""
    import numpy as np

    if len(values) < MIN_SAMPLES:
        raise BenchError(f"{name}: {len(values)} samples leave fewer than "
                         f"{TAIL_FLOOR} beyond p{TAIL_P}")
    samples[name] = len(values)
    return float(np.percentile(values, TAIL_P))


def user_metrics(out: dict, tok_s: float, req_s: float, latency_ms: list,
                 ttft_ms: list, tpot_ms: list) -> None:
    """The end-to-end metrics every workload reports, in its own terms
    (``README.md`` says what each means on each workload)."""
    m = {"throughput_tok_s": (tok_s, "tok/s"),
         "throughput_rps": (req_s, "1/s")}
    for name, values in (("latency", latency_ms), ("ttft", ttft_ms),
                         ("tpot", tpot_ms)):
        m[f"{name}_p50_ms"] = (statistics.median(values), "ms")
        m[f"{name}_p{TAIL_P}_ms"] = (tail(values, f"{name}_p{TAIL_P}_ms",
                                          out["samples"]), "ms")
    out["metrics"] = m


def chunks(items: list, n: int) -> list:
    return [items[i::n] for i in range(n) if items[i::n]]


def reference(workload: str, fn: str, tasks: list) -> list:
    """Run ``verify.fn(*task)`` for every task, spread over fresh verifier
    processes; returns the concatenated results."""
    procs = [subprocess.Popen(
        [sys.executable, os.path.join(HERE, "verify.py"), workload],
        cwd=env.ROOT, env=env.child_env(), text=True, stdin=subprocess.PIPE,
        stdout=subprocess.PIPE) for _ in range(VERIFY_WORKERS)]
    shares = chunks(tasks, VERIFY_WORKERS)
    try:
        for proc, share in zip(procs, shares):
            proc.stdin.write("".join(json.dumps({"fn": fn, "args": task})
                                     + "\n" for task in share))
            proc.stdin.close()
        results = []
        for proc, share in zip(procs, shares):
            lines = proc.stdout.read().splitlines()
            if proc.wait() != 0 or len(lines) != len(share):
                raise BenchError(f"verifier exited with {proc.returncode}")
            results += [item for line in lines for item in json.loads(line)]
        return results
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()


def sum_counts(deltas) -> dict:
    total: dict = {}
    for delta in deltas:
        if delta is None:
            continue
        for key, value in delta.items():
            total[key] = total.get(key, 0) + value
    return total


async def drive(load, phases, node, before=None):
    """Warm up, then run each phase, toggling the node's layer clock.

    The client's garbage collector is off meanwhile: the records it keeps
    would otherwise make its collections slower as the run goes on, and
    their pauses would land in the latencies it measures.
    """
    await load.open()
    gc.disable()
    try:
        warm = list(await before()) if before is not None else []
        warm += await load.phase(WARMUP_S, 0, WARMUP_S)
        measured = []
        for seconds, traced, min_samples, limit_s in phases:
            if traced:
                node.call(cmd="trace", on=True)
            t0 = time.perf_counter()
            records = await load.phase(seconds, min_samples, limit_s)
            wall = time.perf_counter() - t0
            if traced:
                node.call(cmd="trace", on=False)
            measured.append((traced, wall, records))
    finally:
        gc.enable()
        await load.close()
    return warm, measured


# -- workloads -----------------------------------------------------------------
# Each workload is a ``load`` that drives the node and returns what it saw,
# and a ``score`` that runs after the node has gone: it verifies every
# output against the reference workers and computes the metrics.
def offline_load(node, seed, phases):
    return node.call(cmd="offline", phases=phases)


def offline_score(seed, result, out) -> None:
    import common

    per_batch = result["tokens_per_batch"]
    runs = [0] * common.OFFLINE_POOL
    for i in range(sum(len(p["latencies_s"]) for p in result["phases"])):
        runs[i % common.OFFLINE_POOL] += 1
    refs = reference("offline-prefill", "offline",
                     [(seed, c) for c in chunks(
                         list(range(common.OFFLINE_POOL)), VERIFY_WORKERS)])
    wrong = sum(runs[k] for k, digest, _ in refs
                if result["digests"][k] not in (None, digest))
    out["attempted"] = sum(runs)
    out["failed"] = min(out["attempted"], wrong + result["mismatches"])
    out["counts"] = sum_counts(delta for _, _, delta in refs)
    out["count_tokens"] = per_batch * common.OFFLINE_POOL

    def latencies(traced):
        return [s for p in result["phases"] if p["traced"] == traced
                for s in p["latencies_s"]]

    for key, traced in (("untraced", False), ("traced", True)):
        lat = latencies(traced)
        if lat:
            out["rates"][key] = per_batch * len(lat) / sum(lat)
    if "traced" in out["rates"]:
        return
    lat_ms = [s * 1e3 for s in latencies(False)]
    # A prefill hands back every position's logits at once, so its first
    # token takes the whole batch; per token it takes batch / tokens.
    user_metrics(out, out["rates"]["untraced"],
                 len(lat_ms) / sum(lat_ms) * 1e3,
                 lat_ms, lat_ms, [t / per_batch for t in lat_ms])


def infer_load(node, seed, phases):
    import base64

    import numpy as np

    import common
    from client import InferLoad, http_post

    payloads = common.infer_payloads(seed)
    requests = [http_post("/v1/infer/mlp", {
        "input_b64": base64.b64encode(x.tobytes()).decode("ascii"),
        "dtype": str(x.dtype), "shape": list(x.shape)}) for x in payloads]
    rng = np.random.default_rng([seed, 4])
    order = iter(lambda: int(rng.integers(len(payloads))), None)
    load = InferLoad(node.ready["port"], requests, order)
    return asyncio.run(drive(load, phases, node))


def infer_score(seed, raw, out) -> None:
    import common

    warm, measured = raw
    payloads = common.infer_payloads(seed)
    refs = reference("gateway-infer", "infer",
                     [(seed, c) for c in chunks(list(range(len(payloads))),
                                                VERIFY_WORKERS)])
    expect = {k: ref for k, ref, _ in refs}
    records = warm + [r for _, _, recs in measured for r in recs]
    failed = 0
    for rec in records:
        if rec.status != 200:
            failed += 1
            continue
        body = json.loads(rec.body)
        if {key: body.get(key) for key in expect[rec.index]} \
                != expect[rec.index]:
            failed += 1
    out["attempted"] = len(records)
    out["failed"] = failed
    out["counts"] = sum_counts(delta for _, _, delta in refs)
    out["count_tokens"] = sum(x.shape[0] for x in payloads)

    def ok(traced):
        return [r for t, _, recs in measured if t == traced
                for r in recs if r.status == 200]

    for key, traced in (("untraced", False), ("traced", True)):
        wall = sum(w for t, w, _ in measured if t == traced)
        if wall:
            out["rates"][key] = len(ok(traced)) / wall
    if "traced" in out["rates"]:
        out["traced_p50_ms"] = statistics.median(
            r.latency_s * 1e3 for r in ok(True))
        return
    done = ok(False)
    wall = sum(w for t, w, _ in measured if not t)
    rows = [payloads[r.index].shape[0] for r in done]
    # One row is one activation column through the GEMMs, as one token is
    # on the language model; the head of a response is its first output.
    per_row = [sum(r.latency_s for r in done[i:i + ROW_GROUP]) * 1e3
               / sum(rows[i:i + ROW_GROUP])
               for i in range(0, len(done) - ROW_GROUP + 1, ROW_GROUP)]
    user_metrics(out, sum(rows) / wall, out["rates"]["untraced"],
                 [r.latency_s * 1e3 for r in done],
                 [r.head_s * 1e3 for r in done], per_row)


def decode_load(node, seed, phases):
    import common
    from client import DecodeLoad

    sent: dict = {}

    def stream():
        for i, prompt in enumerate(common.decode_prompts(seed)):
            sent[i] = prompt.tolist()
            yield i, sent[i]

    systems = [p.tolist() for p in common.system_prompts(seed)]
    load = DecodeLoad(node.ready["port"], f"/v1/decode/{common.LM}",
                      stream(), common.MAX_NEW_TOKENS)

    async def warm_prefix_cache():
        # The bare system prompts go first, so every timed prompt finds its
        # system prefix already in the PrefixKVCache.
        for j, prompt in enumerate(systems):
            sent[-1 - j] = prompt
        return [await load.one(-1 - j, prompt)
                for j, prompt in enumerate(systems)]

    warm, measured = asyncio.run(drive(load, phases, node,
                                       before=warm_prefix_cache))
    return sent, warm, measured


def decode_score(seed, raw, out) -> None:
    import common

    sent, warm, measured = raw
    if sum(1 for i in sent if i >= 0) < common.COUNTED_DECODES:
        raise BenchError(f"only {max(sent) + 1} decode requests were sent; "
                         f"the op counts need {common.COUNTED_DECODES}")
    tasks = [(index, sent[index], 0 <= index < common.COUNTED_DECODES)
             for index in sorted(sent)]
    refs = reference("gateway-decode", "decode",
                     [(c, common.MAX_NEW_TOKENS)
                      for c in chunks(tasks, 4 * VERIFY_WORKERS)])
    expect = {index: tokens for index, tokens, _ in refs}
    records = warm + [r for _, _, recs in measured for r in recs]
    out["attempted"] = len(records)
    out["failed"] = sum(1 for r in records
                        if r.status != 200 or r.error is not None
                        or r.tokens != expect[r.index])
    out["counts"] = sum_counts(delta for _, _, delta in refs)
    out["count_tokens"] = sum(len(sent[i]) + common.MAX_NEW_TOKENS - 1
                              for i in range(common.COUNTED_DECODES))
    out["prompt_tokens"] = sum(r.prompt_len for r in records)

    for key, traced in (("untraced", False), ("traced", True)):
        wall = sum(w for t, w, _ in measured if t == traced)
        if wall:
            out["rates"][key] = sum(
                len(r.tokens) for t, _, recs in measured if t == traced
                for r in recs if r.error is None) / wall
    if "traced" in out["rates"]:
        return
    done = [r for _, _, recs in measured for r in recs
            if r.error is None and len(r.tokens) == common.MAX_NEW_TOKENS]
    wall = sum(w for t, w, _ in measured if not t)
    user_metrics(out, out["rates"]["untraced"], len(done) / wall,
                 [(r.done_t - r.sent_t) * 1e3 for r in done],
                 [(r.token_t[0] - r.sent_t) * 1e3 for r in done],
                 [(r.token_t[-1] - r.token_t[0]) / (len(r.token_t) - 1) * 1e3
                  for r in done])


#: name -> (load, score, fewest records its tail percentiles need)
WORKLOADS = {"offline-prefill": (offline_load, offline_score, MIN_SAMPLES),
             "gateway-infer": (infer_load, infer_score,
                               MIN_SAMPLES * ROW_GROUP),
             "gateway-decode": (decode_load, decode_score, MIN_SAMPLES)}


# -- per-layer metrics ---------------------------------------------------------
def layer_metrics(workload: str, out: dict, report: dict) -> tuple:
    """Per-layer metrics of a traced run, plus the consistency checks.

    Returns ``(metrics, extras, checks)``.  ``metrics`` are the layers
    every workload runs (the manifest's ``per_layer``); ``extras`` are
    those of the serving layers only some workloads reach, printed with
    the run's detail but not in its result.
    """
    layers = report["layers"]
    wall = layers["wall_s"]
    busy = {name: layers["busy_s"].get(name, 0.0)
            for name in ("quant", "engine", "core", "nn", "batching")}
    calls = layers["calls"]
    counts = out["counts"]
    dequant = busy["core"] - busy["quant"] - busy["engine"]
    m = {
        "quant.quantize_us": (busy["quant"] / calls["quant"] * 1e6, "us"),
        "quant.quantize_share": (busy["quant"] / wall, "share"),
        "engine.execute_us": (busy["engine"] / calls["engine"] * 1e6, "us"),
        "engine.execute_share": (busy["engine"] / wall, "share"),
        "engine.execute_calls": (calls["engine"], "count"),
        "engine.mul4": (counts["mul4"] / out["count_tokens"], "count/tok"),
        "engine.ema_nibbles": (counts["ema_nibbles"] / out["count_tokens"],
                               "count/tok"),
        "engine.mean_rho_x": (counts["rho_x_sum"] / counts["layer_calls"],
                              "share"),
        "core.dequant_us": (dequant / calls["core"] * 1e6, "us"),
        "core.dequant_share": (dequant / wall, "share"),
        "nn.forward_ms": (busy["nn"] / calls["nn"] * 1e3, "ms"),
        "nn.non_gemm_share": ((busy["nn"] - busy["core"]) / wall, "share"),
    }
    extras = {}
    if workload != "offline-prefill":
        statuses = report["gateway"]["responses_by_status"]
        extras["gateway.non_200"] = (sum(n for status, n in statuses.items()
                                         if status != "200"), "count")
    if workload == "gateway-infer":
        batching = report["batching"]
        serve_p50 = layers["p50_ms"]["batching"]
        extras["batching.serve_ms_p50"] = (serve_p50, "ms")
        extras["batching.mean_batch_size"] = (batching["mean_batch_size"],
                                              "count")
        extras["batching.n_batches"] = (batching["n_batches"], "count")
        extras["gateway.residual_ms_p50"] = (
            out["traced_p50_ms"] - serve_p50, "ms")
    if workload == "gateway-decode":
        decode = report["decode"]
        cache = decode["prefix_cache"]
        extras["decode.step_ms_p50"] = (layers["p50_ms"]["decode_step"],
                                        "ms")
        extras["decode.mean_step_width"] = (decode["mean_step_width"],
                                            "count")
        extras["decode.n_steps"] = (decode["n_steps"], "count")
        extras["decode.n_prefills"] = (decode["n_prefills"], "count")
        extras["cache.prefix_hit_rate"] = (cache["hit_rate"], "share")
        extras["cache.seeded_token_share"] = (
            cache["seeded_tokens"] / out["prompt_tokens"], "share")
    rates = out["rates"]
    m["bench.trace_overhead"] = (rates["untraced"] / rates["traced"] - 1,
                                 "share")

    slack = 1 + 1e-9
    checks = {
        f"{name} busy <= traced wall on every thread":
            busy_s <= wall * slack
        for name, busy_s in layers["max_thread_busy_s"].items()}
    checks["quantize + execute <= QuantizedLinear.forward"] = \
        busy["quant"] + busy["engine"] <= busy["core"] * slack
    checks["QuantizedLinear.forward <= model forward"] = \
        busy["core"] <= busy["nn"] * slack
    return m, extras, checks


# -- main ----------------------------------------------------------------------
def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple:
    load, score, min_samples = WORKLOADS[workload]
    setup = [cold_start(workload, seed) for _ in range(PROBES_BEFORE)]
    node = NodeProcess(workload, seed)
    try:
        setup.append(node.ready["setup_s"])
        raw = load(node, seed, phases_for(seconds, trace, min_samples))
        report = node.call(cmd="report")
    finally:
        node.close()
    setup += [cold_start(workload, seed) for _ in range(PROBES_AFTER)]

    out = {"samples": {}, "rates": {}}
    score(seed, raw, out)
    checks, extras = {}, {}
    if trace:
        metrics, extras, checks = layer_metrics(workload, out, report)
    else:
        metrics = {"setup_s": (statistics.median(setup), "s"),
                   "peak_rss_mib": (report["peak_rss_mib"], "MiB"),
                   **out["metrics"]}
    correct = out["failed"] == 0 and all(checks.values())
    detail = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": int(trace), "host": env.fingerprint(),
              "setup_samples_s": setup, "tail_samples": out["samples"],
              "checks": checks,
              "layer_extras": {name: {"value": value, "unit": unit}
                               for name, (value, unit) in extras.items()},
              "layer_stats": {key: value for key, value in report.items()
                              if key != "layers"}}
    result = {"correct": correct, "attempted": out["attempted"],
              "failed": out["failed"],
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    return detail, result


def main() -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark of the Panacea reproduction.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not env.source_tree_present():
        print(f"error: no repro package under {env.SOURCE}; run the "
              "benchmark from the root of a full checkout", file=sys.stderr)
        return 2
    env.pin_blas()
    env.use_source_tree()
    try:
        detail, result = run(args.workload, args.seed, args.seconds,
                             bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(detail))
    for name, metric in {**result["metrics"],
                         **detail["layer_extras"]}.items():
        n = detail["tail_samples"].get(name)
        print(f"{name:28s} {metric['value']:14.6g} {metric['unit']}"
              + ("" if n is None else f"  ({n} samples)"))
    for check, passed in detail["checks"].items():
        print(f"check {'ok  ' if passed else 'FAIL'} {check}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
