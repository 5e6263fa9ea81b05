"""Observability end to end: traces over HTTP, Prometheus, JSONL export.

One request through the gateway becomes one span tree on the driver's
monotonic clock::

    request                      <- root, closed after the response
    |-- queue_wait               <- submit .. batch fire
    |-- batch_release            <- fire .. engine dispatch
    |-- engine_execute           <- the fused forward
    `-- respond                  <- serialization / socket write

The demo deploys a model behind the gateway, serves a few requests, then
walks the whole surface a real operator would: fetch one request's span
tree from ``GET /v1/trace/<id>``, scrape ``GET /metrics?format=prometheus``
(validating it with the same line-format checker CI uses), and export the
trace as JSONL.  ``--out-dir`` writes the scrape and the export to files —
the CI smoke step archives them as artifacts.

Run:  PYTHONPATH=src python examples/tracing.py [--out-dir DIR]
"""

import argparse
import http.client
import json
import pathlib


def _get(host, port, path):
    conn = http.client.HTTPConnection(host, port, timeout=30)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, response.read().decode("utf-8")
    finally:
        conn.close()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out-dir", default=None,
                        help="also write metrics.prom / trace.jsonl here")
    args = parser.parse_args(argv)

    import numpy as np

    from repro.core.pipeline import PtqConfig
    from repro.engine import PanaceaSession
    from repro.nn.layers import Linear
    from repro.nn.module import Module
    from repro.serve import Gateway, ModelServer

    class TraceNet(Module):
        def __init__(self, seed=0):
            super().__init__()
            rng = np.random.default_rng(seed)
            self.fc1 = Linear(16, 32, rng=rng)
            self.fc2 = Linear(32, 8, rng=rng)

        def forward(self, x):
            return self.fc2(np.maximum(self.fc1(x), 0.0))

    rng = np.random.default_rng(3)
    session = PanaceaSession(
        TraceNet(), PtqConfig.for_scheme("aqs"),
        calibration=[rng.normal(0, 1, (4, 16)) for _ in range(3)])

    # trace_sample=1.0 is the default: every request is traced.
    server = ModelServer(trace_sample=1.0)
    server.register("tiny", session)

    with Gateway.launch(server) as handle:
        host, port = handle.host, handle.port
        print(f"gateway on {host}:{port}, tracing every request")

        # --- serve a few requests; each response carries its trace id ----
        trace_id = None
        for i in range(3):
            x = rng.normal(0, 1, (2, 16))
            conn = http.client.HTTPConnection(host, port, timeout=30)
            conn.request("POST", "/v1/infer/tiny",
                         body=json.dumps({"input": x.tolist()}),
                         headers={"Content-Type": "application/json"})
            body = json.loads(conn.getresponse().read())
            conn.close()
            trace_id = body["trace_id"]
            print(f"request {i}: trace_id={trace_id}")

        # --- fetch the last request's span tree ---------------------------
        status, raw = _get(host, port, f"/v1/trace/{trace_id}")
        tree = json.loads(raw)
        assert status == 200 and tree["status"] == "ok", tree
        print(f"\nspan tree for {trace_id} ({tree['n_spans']} spans):")
        by_parent = {}
        spans = {s["span_id"]: s for s in tree["spans"]}
        for s in tree["spans"]:
            by_parent.setdefault(s["parent_id"], []).append(s)

        def render(span, depth=0):
            print(f"  {'  ' * depth}{span['name']:<16} "
                  f"{span['duration_s'] * 1e3:8.3f} ms  {span['status']}")
            for child in sorted(by_parent.get(span["span_id"], []),
                                key=lambda s: s["start_s"]):
                render(child, depth + 1)

        root, = by_parent[None]
        render(root)

        # --- scrape Prometheus and validate it like CI does ---------------
        status, prom_text = _get(host, port, "/metrics?format=prometheus")
        assert status == 200
        import sys
        sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1]
                               / "tests"))
        from prom_lint import lint
        problems = lint(prom_text)
        assert problems == [], problems
        n_samples = sum(1 for line in prom_text.splitlines()
                        if line and not line.startswith("#"))
        invariants = [line for line in prom_text.splitlines()
                      if "_invariant{" in line]
        print(f"\nprometheus scrape: {n_samples} samples, lint clean")
        for line in invariants:
            print(f"  {line}")
        assert all(line.endswith(" 1") for line in invariants), invariants

        # --- JSONL export --------------------------------------------------
        status, jsonl = _get(host, port,
                             f"/v1/trace/{trace_id}?format=jsonl")
        assert status == 200
        print(f"\njsonl export: {len(jsonl.splitlines())} span records")

        if args.out_dir:
            out = pathlib.Path(args.out_dir)
            out.mkdir(parents=True, exist_ok=True)
            (out / "metrics.prom").write_text(prom_text)
            (out / "trace.jsonl").write_text(jsonl)
            (out / "trace.json").write_text(raw)
            print(f"wrote {out}/metrics.prom, trace.jsonl, trace.json")

    server.close()
    print("\ndone: every invariant held and every span closed")


if __name__ == "__main__":
    main()
