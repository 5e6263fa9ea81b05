"""Command-line interface: ``python -m repro <command>``.

Eleven commands cover the everyday workflows:

* ``list-models`` — the benchmark zoo with shapes and MAC counts;
* ``engines`` — the registered GEMM engines and their config constraints;
* ``profile <model>`` — per-layer bit-slice sparsity under a policy;
  ``--measure`` adds the proxy session's measured per-layer latency and
  the hw bound classification;
* ``simulate <model>`` — run the accelerator models and print the
  comparison table;
* ``serve <model>`` — host the model on a :class:`ModelServer` and push
  single requests through the dynamic micro-batching scheduler
  (``--max-batch``/``--max-delay-ms`` are the coalescing knobs,
  ``--exec-path`` picks the fast or sliced BLAS path, ``--workers``
  attaches the concurrent worker pool with async submission,
  ``--backend process`` executes the deployment in spawned BLAS-pinned
  worker processes (``--blas-threads`` caps each worker's BLAS pool),
  ``--cache-kib`` enables the per-deployment result cache and
  ``--repeats`` resubmits the stream to exercise it);
* ``decode <model>`` — autoregressively decode a ragged prompt mix
  through the continuous-batching scheduler over KV-cached incremental
  forwards (``--max-batch`` caps concurrent sequences, ``--refill``
  picks continuous vs drain admission, ``--prefix-cache-kib`` seeds new
  prompts from the longest cached prefix, ``--heavy-tail`` skews the
  prompt-length mix);
* ``gateway <model>`` — host a deployment behind the asyncio HTTP front
  end (admission control, per-tenant quotas, deadline-driven micro-batch
  release) and drive a seeded open-loop mix through it, printing goodput
  / SLO-attainment / shed-rate; ``--hold`` keeps it serving for an
  external driver;
* ``loadgen <model>`` — replay a deterministic open-loop schedule
  (Poisson or bursty MMPP arrivals) against a running gateway and print
  the same latency/goodput dashboard;
* ``trace <id>`` — fetch one request's span tree from a running gateway;
* ``plan export <model>`` / ``plan load <path>`` — persist a converted
  model's layer plans to a :class:`PlanStore` file and rehydrate a serving
  session from one with zero re-prepare work;
* ``experiment <id>`` — regenerate one paper figure/table (e.g. ``fig13``,
  ``table1``).
"""

from __future__ import annotations

import argparse
import sys

__all__ = ["main", "build_parser"]

EXPERIMENTS = {
    "table1": "table1",
    "fig01": "fig01_accuracy",
    "fig05": "fig05_motivation",
    "fig08": "fig08_zpm",
    "fig09": "fig09_dbs",
    "fig13": "fig13_design_space",
    "fig14": "fig14_sparsity",
    "fig15": "fig15_breakdown",
    "fig16": "fig16_models",
    "fig17": "fig17_llms",
    "fig18": "fig18_decoupling",
    "fig19": "fig19_lowbit",
    "fig20": "fig20_asic",
}


def _profile_schemes() -> list[str]:
    """Profiling scheme choices: registered engines the profiler models.

    ``profile_model`` only models slice sparsity for the bit-slice engines,
    so the choices are the intersection of the registry with its supported
    set — the float reference is excluded and the dense integer baseline
    keeps its historical ``dense`` spelling (the workload-model name used
    throughout ``repro.models``).  Custom registered engines are *not*
    offered here: the profiler would silently fall through to the dense
    branch for them.
    """
    from .engine import engine_names

    return [n for n in engine_names() if n in ("sibia", "aqs")] + ["dense"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Panacea (HPCA 2025) reproduction toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list-models", help="list the benchmark model zoo")

    sub.add_parser("engines",
                   help="list registered GEMM engines and their constraints")

    p_prof = sub.add_parser("profile",
                            help="per-layer sparsity profile of one model")
    p_prof.add_argument("model")
    p_prof.add_argument("--scheme", default="aqs",
                        choices=_profile_schemes())
    p_prof.add_argument("--no-zpm", action="store_true")
    p_prof.add_argument("--no-dbs", action="store_true")
    p_prof.add_argument("--stride", type=int, default=4,
                        help="simulate every Nth transformer block")
    p_prof.add_argument("--measure", action="store_true",
                        help="additionally run the proxy session and print "
                             "measured per-layer latency plus the hw bound "
                             "classification")
    p_prof.add_argument("--repeats", type=int, default=3,
                        help="forwards averaged by --measure")
    p_prof.add_argument("--seed", type=int, default=0)

    p_sim = sub.add_parser("simulate",
                           help="run the accelerator models on one model")
    p_sim.add_argument("model")
    p_sim.add_argument("--stride", type=int, default=4)
    p_sim.add_argument("--seed", type=int, default=0)

    p_serve = sub.add_parser(
        "serve",
        help="serve single requests through the micro-batching ModelServer")
    p_serve.add_argument("model")
    p_serve.add_argument("--scheme", default="aqs",
                         choices=["aqs", "sibia", "int8_dense"])
    p_serve.add_argument("--exec-path", default="fast",
                         choices=["fast", "sliced"],
                         help="online BLAS strategy of the bit-slice kernels")
    p_serve.add_argument("--requests", type=int, default=8,
                         help="number of single requests to submit")
    p_serve.add_argument("--batch", type=int, default=2,
                         help="rows per request")
    p_serve.add_argument("--max-batch", type=int, default=4,
                         help="requests coalesced into one engine batch")
    p_serve.add_argument("--max-delay-ms", type=float, default=2.0,
                         help="max time a queued request waits for riders")
    p_serve.add_argument("--workers", type=int, default=0,
                         help="worker-pool threads (0 = inline serving); "
                              "requests go through submit_async")
    p_serve.add_argument("--backend", default="thread",
                         choices=["thread", "process"],
                         help="where deployment execution runs: 'thread' "
                              "serves in-process, 'process' spawns "
                              "--workers BLAS-pinned worker processes "
                              "(real cores, bit-exact outputs)")
    p_serve.add_argument("--blas-threads", type=int, default=None,
                         help="BLAS threads per worker process (default: "
                              "cores // workers, the no-oversubscription "
                              "split); process backend only")
    p_serve.add_argument("--cache-kib", type=int, default=0,
                         help="per-deployment result-cache budget in KiB "
                              "(0 = caching off)")
    p_serve.add_argument("--repeats", type=int, default=1,
                         help="times the request stream is submitted "
                              "(duplicates exercise the result cache)")
    p_serve.add_argument("--trace-sample", type=float, default=1.0,
                         help="fraction of requests to trace "
                              "(0 disables tracing, 1 traces everything)")
    p_serve.add_argument("--seed", type=int, default=0)

    p_dec = sub.add_parser(
        "decode",
        help="autoregressive decode through the continuous-batching server")
    p_dec.add_argument("model")
    p_dec.add_argument("--scheme", default="aqs",
                       choices=["aqs", "sibia", "int8_dense", "fp32"])
    p_dec.add_argument("--exec-path", default="fast",
                       choices=["fast", "sliced"],
                       help="online BLAS strategy of the bit-slice kernels")
    p_dec.add_argument("--requests", type=int, default=8,
                       help="prompts submitted to the decoder")
    p_dec.add_argument("--max-new-tokens", type=int, default=16,
                       help="tokens generated per prompt (eos may stop "
                            "earlier)")
    p_dec.add_argument("--max-batch", type=int, default=4,
                       help="sequences decoded concurrently per step")
    p_dec.add_argument("--refill", default="continuous",
                       choices=["continuous", "drain"],
                       help="'continuous' admits queued prompts the step a "
                            "slot frees; 'drain' (static batching) admits "
                            "only when the whole batch finished")
    p_dec.add_argument("--prefix-cache-kib", type=int, default=0,
                       help="longest-prefix KV cache budget in KiB "
                            "(0 = off); repeated prompt prefixes skip "
                            "their prefill")
    p_dec.add_argument("--min-prompt", type=int, default=4,
                       help="shortest prompt length in the synthetic mix")
    p_dec.add_argument("--max-prompt", type=int, default=24,
                       help="longest prompt length in the synthetic mix")
    p_dec.add_argument("--heavy-tail", action="store_true",
                       help="draw prompt lengths log-uniform (most short, "
                            "a few long) instead of uniform")
    p_dec.add_argument("--temperature", type=float, default=0.0,
                       help="sampling temperature (0 = greedy argmax)")
    p_dec.add_argument("--seed", type=int, default=0)

    p_gw = sub.add_parser(
        "gateway",
        help="host a model behind the asyncio HTTP gateway and drive a "
             "seeded open-loop load through it")
    p_gw.add_argument("model")
    p_gw.add_argument("--scheme", default="aqs",
                      choices=["aqs", "sibia", "int8_dense", "fp32"])
    p_gw.add_argument("--exec-path", default="fast",
                      choices=["fast", "sliced"])
    p_gw.add_argument("--policy", default="deadline",
                      choices=["deadline", "fixed"],
                      help="'deadline' releases micro-batches when the "
                           "oldest request's SLO slack hits the measured "
                           "expected service time; 'fixed' waits a constant "
                           "--max-delay-ms for riders")
    p_gw.add_argument("--slo-ms", type=float, default=50.0,
                      help="per-request latency objective: the deadline "
                           "policy's release driver and the goodput "
                           "criterion of the printed summary")
    p_gw.add_argument("--max-delay-ms", type=float, default=2.0,
                      help="fixed policy's rider wait")
    p_gw.add_argument("--max-batch", type=int, default=8,
                      help="requests coalesced into one engine batch")
    p_gw.add_argument("--max-pending", type=int, default=64,
                      help="admission queue bound per deployment; beyond "
                           "it requests shed with 503")
    p_gw.add_argument("--rate-rps", type=float, default=None,
                      help="per-tenant token-bucket refill rate (default: "
                           "unlimited); beyond it requests reject with 429")
    p_gw.add_argument("--rps", type=float, default=60.0,
                      help="offered load of the built-in open-loop mix")
    p_gw.add_argument("--duration", type=float, default=2.0,
                      help="seconds of open-loop traffic")
    p_gw.add_argument("--host", default="127.0.0.1")
    p_gw.add_argument("--port", type=int, default=0,
                      help="listen port (0 = ephemeral)")
    p_gw.add_argument("--trace-sample", type=float, default=1.0,
                      help="fraction of requests to trace "
                           "(0 disables tracing, 1 traces everything)")
    p_gw.add_argument("--hold", action="store_true",
                      help="skip the built-in load and serve until "
                           "interrupted (pair with `repro loadgen`)")
    p_gw.add_argument("--seed", type=int, default=0)

    p_lg = sub.add_parser(
        "loadgen",
        help="replay a seeded open-loop schedule against a running gateway")
    p_lg.add_argument("model",
                      help="proxy whose input modality shapes the payloads")
    p_lg.add_argument("--host", default="127.0.0.1")
    p_lg.add_argument("--port", type=int, required=True,
                      help="the gateway's listen port")
    p_lg.add_argument("--deployment", default=None,
                      help="target deployment name (default "
                           "<model>/<scheme> with --scheme aqs)")
    p_lg.add_argument("--scheme", default="aqs",
                      help="only names the default deployment")
    p_lg.add_argument("--rps", type=float, default=60.0,
                      help="offered request rate")
    p_lg.add_argument("--duration", type=float, default=2.0)
    p_lg.add_argument("--arrivals", default="poisson",
                      choices=["poisson", "mmpp"],
                      help="'poisson' is memoryless; 'mmpp' alternates "
                           "calm and bursty phases at the same mean rate")
    p_lg.add_argument("--slo-ms", type=float, default=50.0,
                      help="latency objective goodput is scored against")
    p_lg.add_argument("--heavy-tail", action="store_true",
                      help="log-uniform row/prompt-length mix")
    p_lg.add_argument("--max-new-tokens", type=int, default=8,
                      help="decode generation budget (LM proxies)")
    p_lg.add_argument("--seed", type=int, default=0)

    p_plan = sub.add_parser(
        "plan", help="persist/load converted models as plan stores")
    plan_sub = p_plan.add_subparsers(dest="plan_command", required=True)
    p_export = plan_sub.add_parser(
        "export",
        help="calibrate a proxy model and persist its layer plans")
    p_export.add_argument("model")
    p_export.add_argument("--out", default=None,
                          help="store path (default "
                               "<model>.<scheme>.plans.npz)")
    p_export.add_argument("--scheme", default="aqs",
                          choices=["aqs", "sibia", "int8_dense", "fp32"])
    p_export.add_argument("--exec-path", default="fast",
                          choices=["fast", "sliced"])
    p_export.add_argument("--seed", type=int, default=0)
    p_load = plan_sub.add_parser(
        "load",
        help="rehydrate a serving session from a plan store (no re-prepare)")
    p_load.add_argument("path")
    p_load.add_argument("--requests", type=int, default=4,
                        help="request batches to serve after loading")
    p_load.add_argument("--batch", type=int, default=2)
    p_load.add_argument("--mmap", action="store_true",
                        help="rehydrate plan arrays as read-only views "
                             "over the store's mmap blob sidecar (shared "
                             "pages across processes)")
    p_load.add_argument("--seed", type=int, default=0)

    p_trace = sub.add_parser(
        "trace",
        help="fetch one request's span tree from a running gateway")
    p_trace.add_argument("id", help="trace id (16-digit hex, echoed as "
                                    "trace_id in infer responses)")
    p_trace.add_argument("--host", default="127.0.0.1")
    p_trace.add_argument("--port", type=int, required=True,
                         help="the gateway's TCP port")
    p_trace.add_argument("--jsonl", action="store_true",
                         help="print the raw JSON-lines export instead of "
                              "the rendered span tree")

    p_exp = sub.add_parser("experiment",
                           help="regenerate one paper figure/table")
    p_exp.add_argument("id", choices=sorted(EXPERIMENTS))
    return parser


def _cmd_list_models(out) -> int:
    from .eval.tables import format_table
    from .models.configs import MODEL_CONFIGS

    rows = [[c.name, c.family, len(c.layers), c.seq_len,
             c.params_millions, c.total_macs / 1e9]
            for c in MODEL_CONFIGS.values()]
    print(format_table(
        ["model", "family", "gemm layers", "seq", "params (M)", "GMACs"],
        rows, title="benchmark model zoo"), file=out)
    return 0


def _cmd_engines(out) -> int:
    from .engine import available_engines
    from .eval.tables import format_table

    rows = [[name, cls.summary, cls.constraints]
            for name, cls in available_engines().items()]
    print(format_table(["engine", "summary", "config constraints"], rows,
                       title="registered GEMM engines (prepare/execute)"),
          file=out)
    return 0


def _cmd_profile(args, out) -> int:
    import numpy as np

    from .eval.experiments.common import subsample_blocks
    from .eval.tables import format_table
    from .models.configs import get_config
    from .models.workloads import policy_for_model, profile_model

    config = subsample_blocks(get_config(args.model), args.stride)
    policy = policy_for_model(config, args.scheme,
                              enable_zpm=not args.no_zpm,
                              enable_dbs=not args.no_dbs)
    profiles = profile_model(config, policy, n_sample=96, m_cap=384,
                             seed=args.seed, keep_masks=False)
    rows = [[p.name, p.layer.m, p.layer.k, p.layer.n, p.rho_w, p.rho_x,
             p.dbs_type] for p in profiles]
    print(format_table(["layer", "M", "K", "N", "rho_w", "rho_x", "type"],
                       rows, title=f"{args.model} / {args.scheme}"),
          file=out)
    print(f"mean rho_x {np.mean([p.rho_x for p in profiles]):.3f}  "
          f"mean rho_w {np.mean([p.rho_w for p in profiles]):.3f}",
          file=out)
    if args.measure:
        return _profile_measured(args, config, out)
    return 0


def _profile_measured(args, config, out) -> int:
    """Measured per-layer latency + hw bound classification (--measure).

    The latency table comes from :meth:`PanaceaSession.profile` on the
    runnable proxy.  The bound table classifies the full-shape
    config's layers on the Panacea hardware model
    (:func:`repro.hw.analysis.analyze`).
    """
    from .core.pipeline import PtqConfig
    from .engine import PanaceaSession
    from .eval.experiments.common import panacea_perf
    from .eval.tables import format_table
    from .hw.analysis import analyze
    from .models.zoo import PROXY_SPECS, build_proxy, proxy_batches

    if args.scheme == "dense":
        print("--measure uses the session engines; pick --scheme aqs or "
              "sibia", file=out)
        return 2
    if args.model not in PROXY_SPECS:
        print(f"--measure needs a runnable proxy; none for {args.model!r} "
              f"(available: {sorted(PROXY_SPECS)})", file=out)
        return 2
    model, _ = build_proxy(args.model, seed=args.seed)
    session = PanaceaSession(model, PtqConfig.for_scheme(args.scheme))
    session.calibrate(proxy_batches(args.model, 2, 2, seed=args.seed + 1))
    sample = proxy_batches(args.model, 2, 1, seed=args.seed + 2)[0]
    report = session.profile(sample, repeats=args.repeats)
    layer_total = max(report.layer_s, 1e-12)
    rows = [[layer.name, layer.n_calls, layer.mean_s * 1e3,
             layer.total_s / layer_total, layer.ops.mul4,
             layer.ops.ema_nibbles] for layer in report.layers]
    print(file=out)
    print(format_table(
        ["layer", "calls", "mean ms", "share", "mul4", "ema_nibbles"], rows,
        title=f"{args.model} proxy: measured per-layer latency "
              f"({args.repeats} forwards, batch {sample.shape})"), file=out)
    print(f"forward {report.total_s / args.repeats * 1e3:.1f} ms "
          f"(GEMM layers {report.layer_s / args.repeats * 1e3:.1f} ms, "
          f"glue {report.other_s / args.repeats * 1e3:.1f} ms)", file=out)

    bound = analyze(panacea_perf(config, stride=1, seed=args.seed))
    brows = [[l.name, l.bound, l.compute_cycles, l.dram_cycles,
              l.utilization, l.arithmetic_intensity] for l in bound.layers]
    print(file=out)
    print(format_table(
        ["layer", "bound", "compute cyc", "dram cyc", "util", "MACs/byte"],
        brows,
        title=f"{args.model} full-shape bound classification "
              f"(machine balance {bound.machine_balance:.1f} MACs/byte)"),
        file=out)
    print(f"dram-bound fraction {bound.dram_bound_fraction:.2f}, "
          f"mean utilization {bound.mean_utilization:.2f}", file=out)
    return 0


def _cmd_simulate(args, out) -> int:
    from .eval.experiments.common import DESIGN_NAMES, run_all_designs
    from .eval.tables import format_table
    from .models.configs import get_config

    res = run_all_designs(get_config(args.model), stride=args.stride,
                          seed=args.seed)
    rows = [[d, res[d].latency_s * 1e3, res[d].tops, res[d].tops_per_watt,
             res[d].ema_bytes / 2 ** 20] for d in DESIGN_NAMES]
    print(format_table(
        ["design", "latency (ms)", "TOPS", "TOPS/W", "EMA (MB)"], rows,
        title=f"{args.model} on the shared 3072-multiplier budget"),
        file=out)
    return 0


def _print_metrics_table(registries, out) -> None:
    """Render every registry instrument as one table (shutdown summary)."""
    from .eval.tables import format_table

    rows = []
    for registry in registries:
        for family in registry.collect():
            for labels, value in family["samples"]:
                if family["kind"] == "histogram":
                    rendered = (f"n={value.count} "
                                f"mean={value.mean_s * 1e3:.2f}ms "
                                f"max={value.max_s * 1e3:.2f}ms"
                                if value.count else "n=0")
                elif isinstance(value, float):
                    rendered = f"{value:.4g}"
                else:
                    rendered = str(value)
                label_s = ",".join(f"{k}={v}"
                                   for k, v in sorted(labels.items()))
                rows.append([family["name"], label_s, rendered])
    if rows:
        print(format_table(["metric", "labels", "value"], rows,
                           title="metrics summary"), file=out)


def _cmd_serve(args, out) -> int:
    import time

    from .models.zoo import PROXY_SPECS, proxy_batches
    from .serve import BatchPolicy, ModelServer

    if args.model not in PROXY_SPECS:
        print(f"no runnable proxy for {args.model!r}; "
              f"available: {sorted(PROXY_SPECS)}", file=out)
        return 2
    if args.workers < 0:
        print(f"--workers must be >= 0, got {args.workers}", file=out)
        return 2
    if args.cache_kib < 0:
        print(f"--cache-kib must be >= 0, got {args.cache_kib}", file=out)
        return 2
    if args.backend == "process" and args.workers < 1:
        print("--backend process needs --workers >= 1 "
              "(the worker-process count)", file=out)
        return 2
    if not 0.0 <= args.trace_sample <= 1.0:
        print(f"--trace-sample must be in [0, 1], got {args.trace_sample}",
              file=out)
        return 2
    server = ModelServer(workers=args.workers,
                         cache_bytes=args.cache_kib * 1024,
                         backend=args.backend,
                         blas_threads=args.blas_threads,
                         trace_sample=args.trace_sample)
    deployment = f"{args.model}/{args.scheme}"
    policy = BatchPolicy(max_batch=args.max_batch,
                         max_delay_s=args.max_delay_ms / 1e3)
    t0 = time.perf_counter()
    server.deploy_proxy(deployment, args.model, scheme=args.scheme,
                        exec_path=args.exec_path, seed=args.seed,
                        policy=policy)
    prepare_s = time.perf_counter() - t0

    requests = proxy_batches(args.model, args.batch, args.requests,
                             seed=args.seed + 2)
    t0 = time.perf_counter()
    with server:
        tickets = []
        # Each repeat drains before the next: the cache only answers
        # *served* requests, so back-to-back duplicates demo the hit path.
        for _ in range(max(args.repeats, 1)):
            if args.workers:
                futures = [server.submit_async(deployment, x)
                           for x in requests]
                server.flush(deployment)
                for future in futures:
                    future.result()
                tickets.extend(future.ticket for future in futures)
            else:
                tickets.extend(server.submit_many(deployment, requests))
                server.flush(deployment)
        serve_s = time.perf_counter() - t0
        assert all(t.done for t in tickets)
        stats = server.stats(deployment)
        metrics = server.metrics()

    sess, sched = stats["session"], stats["scheduler"]
    n_submitted = len(tickets)
    print(f"{deployment} (exec_path={args.exec_path}): prepared "
          f"{sess['n_plans']} layer plans in {prepare_s * 1e3:.0f} ms",
          file=out)
    print(f"served {n_submitted} requests in {serve_s * 1e3:.0f} ms "
          f"({serve_s / max(n_submitted, 1) * 1e3:.1f} ms/request) "
          f"across {sched['n_batches']} engine batches "
          f"(mean coalesce {sched['mean_batch_size']:.1f}, "
          f"policy max_batch={policy.max_batch} "
          f"max_delay={policy.max_delay_s * 1e3:.0f} ms)", file=out)
    qw = sched["queue_wait"]
    print(f"queue wait p50 {qw['p50_ms']:.2f} ms, p95 {qw['p95_ms']:.2f} ms; "
          f"{sess['n_layer_calls']} layer calls", file=out)
    if args.workers:
        workers = metrics.workers
        print(f"worker pool: {workers['workers']} workers, "
              f"{workers['n_tasks']} tasks, mean utilization "
              f"{workers['mean_utilization']:.0%}", file=out)
    if metrics.process_workers is not None:
        pw = metrics.process_workers
        print(f"process pool: {pw['workers']} workers x "
              f"{pw['blas_threads']} BLAS threads, {pw['n_tasks']} tasks, "
              f"{pw['n_crashes']} crashes, "
              f"{pw['n_pipe_fallback']} ring fallbacks", file=out)
    if args.cache_kib:
        print(f"result cache: {sched['n_cache_hits']} hits / "
              f"{n_submitted} submissions "
              f"(hit rate {metrics.cache_hit_rate:.0%}, "
              f"{metrics.cache['bytes'] / 1024:.1f} KiB held)", file=out)
    print(f"lifetime ops: mul4={sess['mul4']:.3g} add={sess['add']:.3g} "
          f"ema_nibbles={sess['ema_nibbles']:.3g}  "
          f"mean rho_w {sess['mean_rho_w']:.3f}  "
          f"mean rho_x {sess['mean_rho_x']:.3f}", file=out)
    _print_metrics_table([server.metrics_registry()], out)
    return 0


def _cmd_decode(args, out) -> int:
    import time

    from .models.zoo import PROXY_SPECS, proxy_prompts
    from .serve import DecodePolicy, ModelServer

    spec = PROXY_SPECS.get(args.model)
    if spec is None:
        print(f"no runnable proxy for {args.model!r}; "
              f"available: {sorted(PROXY_SPECS)}", file=out)
        return 2
    if spec.kind != "lm":
        print(f"{args.model!r} is a {spec.kind} proxy; decode needs a "
              "causal LM (see `repro list-models`)", file=out)
        return 2
    if args.requests < 1:
        print(f"--requests must be >= 1, got {args.requests}", file=out)
        return 2
    if args.prefix_cache_kib < 0:
        print(f"--prefix-cache-kib must be >= 0, got "
              f"{args.prefix_cache_kib}", file=out)
        return 2
    policy = DecodePolicy(max_batch=args.max_batch,
                          max_new_tokens=args.max_new_tokens,
                          refill=args.refill,
                          temperature=args.temperature, seed=args.seed,
                          prefix_cache_bytes=args.prefix_cache_kib * 1024)
    server = ModelServer()
    deployment = f"{args.model}/{args.scheme}"
    t0 = time.perf_counter()
    server.deploy_proxy(deployment, args.model, scheme=args.scheme,
                        exec_path=args.exec_path, seed=args.seed,
                        decode_policy=policy)
    prepare_s = time.perf_counter() - t0

    prompts = proxy_prompts(args.model, args.requests,
                            min_len=args.min_prompt,
                            max_len=args.max_prompt,
                            heavy_tail=args.heavy_tail, seed=args.seed + 2)
    with server:
        t0 = time.perf_counter()
        tickets = [server.submit_decode(deployment, p) for p in prompts]
        outputs = [t.result() for t in tickets]
        decode_s = time.perf_counter() - t0
        stats = server.stats(deployment)["decode"]
        metrics = server.metrics()

    n_tokens = sum(len(o) for o in outputs)
    lengths = sorted(len(p) for p in prompts)
    print(f"{deployment} (exec_path={args.exec_path}): prepared in "
          f"{prepare_s * 1e3:.0f} ms", file=out)
    print(f"decoded {len(prompts)} prompts (lengths {lengths[0]}.."
          f"{lengths[-1]}) -> {n_tokens} tokens in {decode_s * 1e3:.0f} ms "
          f"({n_tokens / max(decode_s, 1e-12):.0f} tok/s) over "
          f"{stats['n_steps']} engine steps "
          f"(mean step width {stats['mean_step_width']:.2f}, "
          f"peak {stats['peak_active']}, refill={policy.refill})", file=out)
    qw = stats["queue_wait"]
    print(f"queue wait p50 {qw['p50_ms']:.2f} ms, "
          f"p95 {qw['p95_ms']:.2f} ms; step exec "
          f"p50 {stats['step_exec']['p50_ms']:.2f} ms", file=out)
    if args.prefix_cache_kib and metrics.prefix_cache is not None:
        pc = metrics.prefix_cache
        print(f"prefix cache: {pc['hits']} hits / "
              f"{pc['hits'] + pc['misses']} lookups "
              f"(hit rate {pc['hit_rate']:.0%}), "
              f"{pc['seeded_tokens']} prompt tokens seeded without "
              f"prefill, {pc['bytes'] / 1024:.1f} KiB held", file=out)
    preview = " ".join(str(t) for t in outputs[0][:8])
    print(f"first generation ({len(outputs[0])} tokens): {preview}"
          f"{' ...' if len(outputs[0]) > 8 else ''}", file=out)
    return 0


def _loadgen_tenants(spec, deployment, rps, arrivals, slo_s, *,
                     heavy_tail=False, max_new_tokens=8):
    """Map one proxy's input modality onto open-loop tenant specs.

    LM proxies decode (token prompts through the continuous batcher);
    classifier/ResNet proxies send one-shot infer batches shaped like
    :func:`repro.models.zoo.proxy_batches` emits.  A single 'mmpp' tenant
    carries the whole rate; 'poisson' splits it into a steady majority
    plus a bursty minority so the mix exercises both arrival styles.
    """
    from .serve import MMPPArrivals, PoissonArrivals, TenantSpec

    if spec.kind == "classifier":
        kind, shape = "infer", (24, spec.dim)
    elif spec.kind == "resnet":
        kind, shape = "infer", (3, 32, 32)
    else:
        kind, shape = "decode", ()
    common = dict(deployment=deployment, kind=kind, feature_shape=shape,
                  heavy_tail=heavy_tail, proxy=spec.config_name,
                  max_new_tokens=max_new_tokens, slo_s=slo_s)
    if arrivals == "mmpp":
        return [TenantSpec("bursty", arrivals=MMPPArrivals(
            base_rps=rps * 0.5, burst_rps=rps * 2.0), **common)]
    return [TenantSpec("steady", arrivals=PoissonArrivals(rps * 0.8),
                       **common),
            TenantSpec("bursty", arrivals=MMPPArrivals(
                base_rps=rps * 0.1, burst_rps=rps * 0.6), **common)]


def _print_loadgen_summary(summary, stats, out) -> None:
    from .eval.tables import format_table

    rows = [[f"{summary['offered_rps']:.1f}",
             f"{summary['goodput_rps']:.1f}",
             f"{summary['slo_attainment']:.0%}",
             f"{summary['shed_rate']:.0%}",
             f"{summary['p50_ms']:.1f}", f"{summary['p95_ms']:.1f}",
             f"{summary['p99_ms']:.1f}"]]
    print(format_table(
        ["offered rps", "goodput rps", "slo", "shed", "p50 ms",
         "p95 ms", "p99 ms"], rows, title="open-loop load summary"),
        file=out)
    if stats is not None:
        adm = stats["admission"]
        print(f"admission: offered={adm['offered']} "
              f"accepted={adm['accepted']} shed={adm['shed']} "
              f"rejected={adm['rejected']} "
              f"conserved={adm['conserved']}", file=out)


def _cmd_gateway(args, out) -> int:
    from .models.zoo import PROXY_SPECS, proxy_batches
    from .serve import (
        BatchPolicy,
        DeadlinePolicy,
        Gateway,
        ModelServer,
        TenantQuota,
        build_schedule,
        run_schedule,
        summarize,
    )

    spec = PROXY_SPECS.get(args.model)
    if spec is None:
        print(f"no runnable proxy for {args.model!r}; "
              f"available: {sorted(PROXY_SPECS)}", file=out)
        return 2
    if not 0.0 <= args.trace_sample <= 1.0:
        print(f"--trace-sample must be in [0, 1], got {args.trace_sample}",
              file=out)
        return 2
    server = ModelServer(trace_sample=args.trace_sample)
    deployment = f"{args.model}/{args.scheme}"
    entry = server.deploy_proxy(deployment, args.model, scheme=args.scheme,
                                exec_path=args.exec_path, seed=args.seed)
    slo_s = args.slo_ms / 1e3
    if args.policy == "deadline":
        report = entry.session.profile(
            proxy_batches(args.model, 2, 1, seed=args.seed + 1)[0])
        policy = DeadlinePolicy.from_profile(report, slo_s=slo_s,
                                             max_batch=args.max_batch)
        service = policy.service
        print(f"{deployment}: deadline policy (slo {args.slo_ms:.0f} ms, "
              f"measured service {service.base_s * 1e3:.2f} ms + "
              f"{service.per_item_s * 1e3:.2f} ms/req)", file=out)
    else:
        policy = BatchPolicy(max_batch=args.max_batch,
                             max_delay_s=args.max_delay_ms / 1e3)
        print(f"{deployment}: fixed policy (max_delay "
              f"{args.max_delay_ms:.1f} ms)", file=out)
    entry.batcher.policy = policy
    quotas = None
    if args.rate_rps is not None:
        quotas = {"steady": TenantQuota(rate_rps=args.rate_rps),
                  "bursty": TenantQuota(rate_rps=args.rate_rps)}
    with Gateway.launch(server, host=args.host, port=args.port,
                        quotas=quotas,
                        max_pending=args.max_pending) as handle:
        print(f"gateway listening on http://{handle.host}:{handle.port} "
              f"(POST /v1/infer/{deployment}, /v1/decode/{deployment}, "
              f"GET /metrics)", file=out)
        if args.hold:
            import time

            print("serving until interrupted "
                  "(drive it with `repro loadgen`)", file=out)
            try:
                while True:
                    time.sleep(1.0)
            except KeyboardInterrupt:
                pass
        else:
            tenants = _loadgen_tenants(
                spec, deployment, args.rps, "poisson", slo_s)
            schedule = build_schedule(tenants, args.duration,
                                      seed=args.seed)
            outcomes = run_schedule(handle.host, handle.port, schedule,
                                    keep_outputs=False)
            _print_loadgen_summary(summarize(outcomes, args.duration),
                                   handle.stats(), out)
        registries = [handle.gateway.metrics_registry(),
                      server.metrics_registry()]
    _print_metrics_table(registries, out)
    server.close()
    return 0


def _cmd_trace(args, out) -> int:
    """Fetch and render one span tree from a running gateway."""
    import json as _json
    from http.client import HTTPConnection

    path = f"/v1/trace/{args.id}"
    if args.jsonl:
        path += "?format=jsonl"
    conn = HTTPConnection(args.host, args.port, timeout=10.0)
    try:
        conn.request("GET", path)
        resp = conn.getresponse()
        body = resp.read().decode()
    except OSError as exc:
        print(f"cannot reach the gateway at {args.host}:{args.port}: "
              f"{exc}", file=out)
        return 2
    finally:
        conn.close()
    if resp.status != 200:
        print(f"HTTP {resp.status}: {body.strip()}", file=out)
        return 1
    if args.jsonl:
        print(body.rstrip("\n"), file=out)
        return 0
    trace = _json.loads(body)
    print(f"trace {trace['trace_id']} ({trace['name']}): "
          f"{trace['n_spans']} spans, status {trace['status']}", file=out)
    by_parent: dict[str, list] = {}
    roots = []
    for span in trace["spans"]:
        if span["parent_id"]:
            by_parent.setdefault(span["parent_id"], []).append(span)
        else:
            roots.append(span)

    def emit(span, depth):
        dur = span["duration_s"]
        timing = f"{dur * 1e3:.3f} ms" if dur is not None else "open"
        print(f"{'  ' * depth}{span['name']}  [{timing}, {span['status']}]",
              file=out)
        for child in sorted(by_parent.get(span["span_id"], []),
                            key=lambda s: s["start_s"]):
            emit(child, depth + 1)

    for root in sorted(roots, key=lambda s: s["start_s"]):
        emit(root, 0)
    return 0


def _cmd_loadgen(args, out) -> int:
    from .models.zoo import PROXY_SPECS
    from .serve import build_schedule, run_schedule, summarize

    spec = PROXY_SPECS.get(args.model)
    if spec is None:
        print(f"no runnable proxy for {args.model!r}; "
              f"available: {sorted(PROXY_SPECS)}", file=out)
        return 2
    deployment = args.deployment or f"{args.model}/{args.scheme}"
    tenants = _loadgen_tenants(
        spec, deployment, args.rps, args.arrivals, args.slo_ms / 1e3,
        heavy_tail=args.heavy_tail, max_new_tokens=args.max_new_tokens)
    schedule = build_schedule(tenants, args.duration, seed=args.seed)
    print(f"replaying {len(schedule)} requests over {args.duration:.1f} s "
          f"against http://{args.host}:{args.port}/.../{deployment}",
          file=out)
    try:
        outcomes = run_schedule(args.host, args.port, schedule,
                                keep_outputs=False)
    except OSError as exc:
        print(f"cannot reach the gateway at {args.host}:{args.port}: "
              f"{exc}", file=out)
        return 2
    _print_loadgen_summary(summarize(outcomes, args.duration), None, out)
    return 0


def _cmd_plan_export(args, out) -> int:
    import time

    from .core.pipeline import PtqConfig
    from .engine import PanaceaSession
    from .models.zoo import PROXY_SPECS, build_proxy, proxy_batches
    from .serve import PlanStore

    if args.model not in PROXY_SPECS:
        print(f"no runnable proxy for {args.model!r}; "
              f"available: {sorted(PROXY_SPECS)}", file=out)
        return 2
    path = args.out or f"{args.model}.{args.scheme}.plans.npz"
    model, _ = build_proxy(args.model, seed=args.seed)
    config = PtqConfig.for_scheme(args.scheme, exec_path=args.exec_path)
    session = PanaceaSession(model, config)
    t0 = time.perf_counter()
    session.calibrate(proxy_batches(args.model, 2, 2, seed=args.seed + 1))
    prepare_s = time.perf_counter() - t0
    store = PlanStore(path)
    t0 = time.perf_counter()
    store.save(session, model_name=args.model, seed=args.seed)
    save_s = time.perf_counter() - t0
    info = store.describe()
    size_kib = store.path.stat().st_size / 1024
    print(f"exported {args.model}/{args.scheme}: {info['n_layers']} layer "
          f"records, {info['n_plans']} plans -> {store.path} "
          f"({size_kib:.0f} KiB)", file=out)
    print(f"calibrate+prepare {prepare_s * 1e3:.0f} ms, "
          f"serialize {save_s * 1e3:.0f} ms", file=out)
    return 0


def _cmd_plan_load(args, out) -> int:
    import time

    from .models.zoo import proxy_batches
    from .serve import PlanStore

    store = PlanStore(args.path)
    info = store.describe()
    t0 = time.perf_counter()
    session = store.load(mmap=args.mmap)
    load_s = time.perf_counter() - t0
    how = "mmap'd from the blob sidecar" if args.mmap else "rehydrated"
    print(f"loaded {info['model_name']}/{info['scheme']} from {args.path}: "
          f"{info['n_plans']} plans {how} in {load_s * 1e3:.0f} ms "
          f"(no calibration, no engine prepare)", file=out)
    if args.requests:
        requests = proxy_batches(info["model_name"], args.batch,
                                 args.requests, seed=args.seed + 2)
        t0 = time.perf_counter()
        for _ in session.run_many(requests):
            pass
        serve_s = time.perf_counter() - t0
        stats = session.stats()
        print(f"served {stats['n_requests']} requests in "
              f"{serve_s * 1e3:.0f} ms "
              f"({serve_s / max(stats['n_requests'], 1) * 1e3:.1f} "
              f"ms/request) straight from the restored plans", file=out)
    return 0


def _cmd_experiment(args, out) -> int:
    import importlib

    module = importlib.import_module(
        f".eval.experiments.{EXPERIMENTS[args.id]}", package=__package__)
    result = module.run()
    print(result.format(), file=out)
    return 0


def main(argv: list[str] | None = None, out=None) -> int:
    out = out or sys.stdout
    args = build_parser().parse_args(argv)
    if args.command == "list-models":
        return _cmd_list_models(out)
    if args.command == "engines":
        return _cmd_engines(out)
    if args.command == "profile":
        return _cmd_profile(args, out)
    if args.command == "simulate":
        return _cmd_simulate(args, out)
    if args.command == "serve":
        return _cmd_serve(args, out)
    if args.command == "decode":
        return _cmd_decode(args, out)
    if args.command == "gateway":
        return _cmd_gateway(args, out)
    if args.command == "loadgen":
        return _cmd_loadgen(args, out)
    if args.command == "trace":
        return _cmd_trace(args, out)
    if args.command == "plan":
        if args.plan_command == "export":
            return _cmd_plan_export(args, out)
        if args.plan_command == "load":
            return _cmd_plan_load(args, out)
        raise AssertionError(f"unhandled plan command {args.plan_command!r}")
    if args.command == "experiment":
        return _cmd_experiment(args, out)
    raise AssertionError(f"unhandled command {args.command!r}")
