"""The system under test, in a process of its own.

``python3 e2ebench/node.py <workload> --seed N [--probe]`` starts the set-up
clock before anything imports numpy or ``repro``, builds what the workload
serves (an in-process session for ``offline-prefill``; a ``ModelServer``
behind a ``Gateway`` for the two gateway workloads), and prints one JSON
line: ``{"ready": true, "setup_s": ..., "port": ...}``.  With ``--probe`` it
then shuts down, which is how the orchestrator samples cold starts.

Otherwise it reads JSON commands from stdin, one per line, and answers each
with one JSON line on stdout:

* ``{"cmd": "trace", "on": bool}`` starts or stops a traced phase;
* ``{"cmd": "offline", "phases": [[seconds, traced, min_batches,
  limit_s], ...]}`` runs the offline-prefill loop and returns its timings;
* ``{"cmd": "report"}`` returns layer timings, the layers' own ``stats()``
  and the process's peak RSS.

End of input shuts the node down.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
from env import pin_blas, use_source_tree  # noqa: E402

pin_blas()
use_source_tree()

import numpy as np  # noqa: E402

import common  # noqa: E402
from layers import LayerClock  # noqa: E402
from repro.serve import DecodePolicy, Gateway, ModelServer  # noqa: E402

DEPLOYMENT = {"gateway-infer": "mlp", "gateway-decode": common.LM}


class Node:
    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.clock = LayerClock()
        self.session = None
        self.server = None
        self.handle = None
        if workload == "offline-prefill":
            self.session = common.lm_session()
            return
        self.server = ModelServer()
        if workload == "gateway-infer":
            self.server.register("mlp", common.mlp_session())
        else:
            self.server.deploy_proxy(
                common.LM, common.LM, scheme=common.SCHEME,
                decode_policy=DecodePolicy(
                    prefix_cache_bytes=common.PREFIX_CACHE_BYTES))
        self.handle = Gateway.launch(self.server)

    @property
    def port(self):
        return None if self.handle is None else self.handle.port

    def close(self) -> None:
        if self.handle is not None:
            self.handle.close()
            self.server.close()

    def trace(self, on: bool) -> dict:
        if on:
            self.clock.start()
        else:
            self.clock.stop()
        return {"ok": True}

    def offline(self, phases) -> dict:
        """Run the seeded batches back to back on this thread.

        Only ``session.run`` is inside the clock.  Every output is compared
        with the first output of the same input (outside the clock); the
        first outputs' digests go back to the orchestrator, which checks
        them against an independently built session.
        """
        pool = common.offline_batches(self.seed)
        for batch in pool[:2]:                      # warm-up, not measured
            self.session.run(batch)
        first = [None] * len(pool)
        mismatches = 0
        out_phases = []
        i = 0
        for seconds, traced, min_batches, limit_s in phases:
            latencies = []
            if traced:
                self.clock.start()
            start = time.perf_counter()
            # The phase runs for ``seconds`` and on, up to ``limit_s``,
            # until its tail percentile has its sample floor.
            while (time.perf_counter() - start < seconds
                   or (len(latencies) < min_batches
                       and time.perf_counter() - start < limit_s)):
                k = i % len(pool)
                t0 = time.perf_counter()
                out = self.session.run(pool[k])
                latencies.append(time.perf_counter() - t0)
                if first[k] is None:
                    first[k] = out
                elif not np.array_equal(out, first[k]):
                    mismatches += 1
                i += 1
            if traced:
                self.clock.stop()
            out_phases.append({"traced": traced, "latencies_s": latencies})
        return {"phases": out_phases, "mismatches": mismatches,
                "digests": [None if out is None else
                            hashlib.sha256(out.tobytes()).hexdigest()
                            for out in first],
                "tokens_per_batch": int(pool[0].size)}

    def report(self) -> dict:
        report = {"layers": self.clock.report(),
                  "peak_rss_mib":
                  resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        if self.session is not None:
            report["session"] = self.session.stats()
            return report
        entry = self.server.entry(DEPLOYMENT[self.workload])
        report["session"] = entry.session.stats()
        report["gateway"] = self.handle.stats()["http"]
        report["batching"] = entry.batcher.stats()
        if entry.decoder is not None:
            report["decode"] = entry.decoder.stats()
        return report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=("offline-prefill",
                                             "gateway-infer",
                                             "gateway-decode"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args()
    # Replies travel on the original stdout; anything the program prints
    # goes to stderr so it can never corrupt the protocol.
    proto = os.fdopen(os.dup(1), "w")
    sys.stdout = sys.stderr

    def reply(payload: dict) -> None:
        proto.write(json.dumps(payload) + "\n")
        proto.flush()

    node = Node(args.workload, args.seed)
    try:
        reply({"ready": True, "setup_s": time.perf_counter() - T0,
               "port": node.port})
        if args.probe:
            return 0
        for line in sys.stdin:
            command = json.loads(line)
            if command["cmd"] == "trace":
                reply(node.trace(command["on"]))
            elif command["cmd"] == "offline":
                reply(node.offline(command["phases"]))
            elif command["cmd"] == "report":
                reply(node.report())
            else:
                raise ValueError(f"unknown command {command!r}")
    finally:
        node.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
