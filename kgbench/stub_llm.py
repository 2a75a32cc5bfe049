"""Loopback stand-in for an OpenAI-style chat completion endpoint.

It answers ``POST <base>/chat/completions`` from a generator reply table,
sleeps a fixed latency chosen by the request's model name, reports token
usage as whitespace token counts, and counts the requests it served.
``GET /stats`` returns that count without adding to it. A prompt the table
cannot answer gets HTTP 400, so the client fails at once instead of
retrying.

Run ``python3 kgbench/stub_llm.py --replies replies.json --latency
spec-model=0.02 --latency general-model=0.04``; it prints ``port <n>`` on
its first line once it listens on 127.0.0.1, then serves until terminated.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from replies import ReplyBook, UnknownPrompt, usage_for  # noqa: E402


class StubServer(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, address, book: ReplyBook, latency: dict[str, float]):
        super().__init__(address, _Handler)
        self.book = book
        self.latency = latency
        self.requests = 0
        self._lock = threading.Lock()

    def count(self) -> None:
        with self._lock:
            self.requests += 1


class _Handler(BaseHTTPRequestHandler):
    server: StubServer

    def _send(self, status: int, body: dict) -> None:
        data = json.dumps(body).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def do_POST(self):  # noqa: N802 (http.server naming)
        self.server.count()
        length = int(self.headers.get("Content-Length", 0))
        try:
            body = json.loads(self.rfile.read(length))
            model = body["model"]
            prompt = body["messages"][0]["content"]
            delay = self.server.latency[model]
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            self._send(400, {"error": f"bad request: {exc}"})
            return
        time.sleep(delay)
        try:
            text = self.server.book.reply(prompt)
        except UnknownPrompt as exc:
            self._send(400, {"error": str(exc)})
            return
        usage = usage_for(prompt, text)
        self._send(200, {
            "choices": [{"message": {"role": "assistant", "content": text}}],
            "usage": {"prompt_tokens": usage.prompt_tokens,
                      "completion_tokens": usage.completion_tokens},
        })

    def do_GET(self):  # noqa: N802
        if self.path.rstrip("/").endswith("/stats"):
            self._send(200, {"requests": self.server.requests})
        else:
            self._send(404, {"error": "not found"})

    def log_message(self, format, *args):  # one line per request would swamp stderr
        pass


def parse_latency(items: list[str]) -> dict[str, float]:
    latency = {}
    for item in items:
        model, sep, seconds = item.partition("=")
        if not sep or not model:
            raise ValueError(f"expected MODEL=SECONDS, got {item!r}")
        latency[model] = float(seconds)
    return latency


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--replies", required=True)
    parser.add_argument("--latency", action="append", default=[], metavar="MODEL=SECONDS")
    parser.add_argument("--port", type=int, default=0)
    args = parser.parse_args(argv)
    server = StubServer(("127.0.0.1", args.port), ReplyBook.load(args.replies),
                        parse_latency(args.latency))
    print(f"port {server.server_address[1]}", flush=True)
    try:
        server.serve_forever()
    finally:
        server.server_close()


if __name__ == "__main__":
    main()
