"""Reference answers, computed in a worker process of its own.

``python3 e2ebench/verify.py <workload>`` builds the workload's session from
scratch, the way a user would, sharing nothing with the node that served
the traffic.  It then reads tasks from stdin, one JSON line each
(``{"fn": "offline" | "infer" | "decode", "args": [...]}``), and answers
each with one JSON line: the reference outputs plus the exact op-count
delta ``PanaceaSession.stats()`` recorded for the inputs that are counted.
"""

import base64
import hashlib
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from env import pin_blas, use_source_tree  # noqa: E402

_session = None


def _counted(run, counted: bool):
    import common

    before = common.op_counts(_session.stats())
    out = run()
    delta = common.op_delta(before, common.op_counts(_session.stats()))
    return out, (delta if counted else None)


def offline(seed: int, indices: list[int]) -> list:
    """``(index, sha256 of session.run output, op delta)`` per pool batch."""
    import common

    pool = common.offline_batches(seed)
    results = []
    for k in indices:
        out, delta = _counted(lambda: _session.run(pool[k]), True)
        results.append((k, hashlib.sha256(out.tobytes()).hexdigest(), delta))
    return results


def infer(seed: int, indices: list[int]) -> list:
    """``(index, {output_b64, dtype, shape}, op delta)`` per payload."""
    import common

    payloads = common.infer_payloads(seed)
    results = []
    for k in indices:
        out, delta = _counted(lambda: _session.run(payloads[k]), True)
        results.append((k, {"output_b64": base64.b64encode(
                                out.tobytes()).decode("ascii"),
                            "dtype": str(out.dtype),
                            "shape": list(out.shape)}, delta))
    return results


def decode(prompts: list[tuple[int, list[int], bool]],
           max_new_tokens: int) -> list:
    """``(index, tokens, op delta or None)`` per prompt, each generated by
    ``DecodeSession.generate`` on a fresh decode session."""
    from repro.engine import DecodeSession

    results = []
    for index, prompt, counted in prompts:
        tokens, delta = _counted(
            lambda: DecodeSession(_session).generate(prompt, max_new_tokens),
            counted)
        results.append((index, [int(t) for t in tokens], delta))
    return results


def main() -> int:
    global _session
    pin_blas()
    use_source_tree()
    import common

    _session = (common.mlp_session() if sys.argv[1] == "gateway-infer"
                else common.lm_session())
    tasks = {"offline": offline, "infer": infer, "decode": decode}
    for line in sys.stdin:
        task = json.loads(line)
        print(json.dumps(tasks[task["fn"]](*task["args"])), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
