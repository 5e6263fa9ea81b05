"""Closed-loop HTTP load for the gateway workloads.

One asyncio thread drives ``CONNECTIONS`` clients; each sends its next
request only after the previous one completed.  Timing covers the
request from the first byte written (or, for streams, from before the
connection opens) to the last byte read.  Responses are kept raw and
checked after the measured phase, so the checks never share the clock.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass, field

#: Closed-loop clients: one per core of a two-core host, never more than
#: ``nproc``, so the load generator cannot oversubscribe what it measures.
CONNECTIONS = 2
HOST = "127.0.0.1"


def http_post(path: str, body: dict) -> bytes:
    data = json.dumps(body).encode()
    head = (f"POST {path} HTTP/1.1\r\nHost: {HOST}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(data)}\r\n\r\n")
    return head.encode() + data


async def _read_head(reader) -> tuple[int, dict]:
    head = await reader.readuntil(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split(" ", 2)[1])
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        if name:
            headers[name.strip().lower()] = value.strip()
    return status, headers


def _until(seconds: float, min_records: int, limit_s: float):
    """Whether a phase goes on: for ``seconds``, and past them, up to
    ``limit_s``, until ``min_records`` requests completed."""
    start = time.perf_counter()

    def going(out) -> bool:
        elapsed = time.perf_counter() - start
        return elapsed < seconds or (len(out) < min_records
                                     and elapsed < limit_s)
    return going


@dataclass
class InferRecord:
    index: int
    status: int
    head_s: float       # until the response's head had arrived
    latency_s: float
    body: bytes


@dataclass
class DecodeRecord:
    index: int
    prompt_len: int
    status: int = 0
    error: str | None = None
    sent_t: float = 0.0
    done_t: float = 0.0
    token_t: list[float] = field(default_factory=list)
    tokens: list[int] = field(default_factory=list)


class InferLoad:
    """Keep-alive connections posting pre-encoded ``/v1/infer`` requests."""

    def __init__(self, port: int, requests: list[bytes], order) -> None:
        self.port = port
        self.requests = requests
        self.order = order
        self.conns = []

    async def open(self) -> None:
        self.conns = [await asyncio.open_connection(HOST, self.port)
                      for _ in range(CONNECTIONS)]

    async def close(self) -> None:
        for _, writer in self.conns:
            writer.close()
            await writer.wait_closed()

    async def _loop(self, reader, writer, until, out) -> None:
        while until(out):
            index = next(self.order)
            t0 = time.perf_counter()
            writer.write(self.requests[index])
            await writer.drain()
            status, headers = await _read_head(reader)
            head_s = time.perf_counter() - t0
            body = await reader.readexactly(int(headers["content-length"]))
            out.append(InferRecord(index, status, head_s,
                                   time.perf_counter() - t0, body))

    async def phase(self, seconds: float, min_records: int,
                    limit_s: float) -> list[InferRecord]:
        out: list[InferRecord] = []
        until = _until(seconds, min_records, limit_s)
        await asyncio.gather(*(self._loop(r, w, until, out)
                               for r, w in self.conns))
        return out


class DecodeLoad:
    """Streaming ``/v1/decode`` requests, one connection per request (the
    gateway closes a stream's connection when it ends)."""

    def __init__(self, port: int, path: str, prompts, max_new_tokens: int,
                 ) -> None:
        self.port = port
        self.path = path
        self.prompts = prompts          # iterator of (index, prompt list)
        self.max_new_tokens = max_new_tokens

    async def open(self) -> None:
        pass

    async def close(self) -> None:
        pass

    async def one(self, index: int, prompt: list[int]) -> DecodeRecord:
        rec = DecodeRecord(index, len(prompt))
        request = http_post(self.path, {
            "prompt": prompt, "max_new_tokens": self.max_new_tokens,
            "stream": True})
        rec.sent_t = time.perf_counter()
        reader, writer = await asyncio.open_connection(HOST, self.port)
        try:
            writer.write(request)
            await writer.drain()
            rec.status, headers = await _read_head(reader)
            if rec.status != 200:
                await reader.readexactly(int(headers["content-length"]))
                rec.error = f"http {rec.status}"
                return rec
            while True:
                size = int((await reader.readline()).strip(), 16)
                if size == 0:
                    break
                chunk = json.loads((await reader.readexactly(size + 2))[:-2])
                if "token" in chunk:
                    rec.token_t.append(time.perf_counter())
                    rec.tokens.append(chunk["token"])
                elif "error" in chunk:
                    rec.error = chunk["error"]
            rec.done_t = time.perf_counter()
        finally:
            writer.close()
            await writer.wait_closed()
        return rec

    async def _loop(self, until, out) -> None:
        while until(out):
            index, prompt = next(self.prompts)
            out.append(await self.one(index, prompt))

    async def phase(self, seconds: float, min_records: int,
                    limit_s: float) -> list[DecodeRecord]:
        out: list[DecodeRecord] = []
        until = _until(seconds, min_records, limit_s)
        await asyncio.gather(*(self._loop(until, out)
                               for _ in range(CONNECTIONS)))
        return out
