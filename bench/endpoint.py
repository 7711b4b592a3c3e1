"""Loopback OpenAI-shaped endpoint for the ``remote`` workload.

Run as its own process::

    python3 bench/endpoint.py --port-file port.txt

It serves ``POST /v1/chat/completions`` and ``POST /v1/embeddings`` on
127.0.0.1 and answers from the request content alone:

* a scene-graph prompt gets ``corpus.endpoint_graph`` of its image;
* a reasoning prompt gets numbered steps.  A positive prompt's rationale
  mentions a content-hashed two thirds of the graph's relations and
  attributes, so grounding leaves a residual pool; a negative prompt's
  rationale mentions every relation and attribute;
* an embedding request gets signed word-hash vectors of ``DIM`` entries.

Every request waits ``DELAY_S`` before its reply.  A negative-rationale
request that carries an image part or its instance's gold answer is a
violation of the method ("no answer-conditioned negatives") and is recorded.

``POST /pass`` with ``{"corpus": path}`` starts a pass: it resets the
counters and reads the questions and gold answers of the pass's corpus.
``GET /stats`` returns the counters since then: requests, TCP connections
that carried a request, handling seconds, violations and the sha256 of every
chat reply sent.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import signal
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

from corpus import endpoint_graph, read_jsonl

SCENE_GRAPH_FIRST_LINE = "You are given an image and its associated question."
POSITIVE_FIRST_LINE = "You are given a scene graph and its associated question and image."
NEGATIVE_FIRST_LINE = "You are given a scene graph and its associated question."

NEGATIVE_CONCLUSION = "The scene is as described."

# The program's default embedding dimension; the client rejects any other.
DIM = 256
# Fixed service delay per request.  A chosen figure, not a measured one: a
# real chat endpoint takes far longer, so this delay weighs client CPU and
# per-request transport more, and request concurrency less (see README.md).
DELAY_S = 0.005


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _content_hash(*parts: str) -> int:
    return int.from_bytes(hashlib.sha256("\x1f".join(parts).encode("utf-8")).digest()[:8], "big")


def _prompt_fields(prompt: str) -> tuple[dict, str]:
    graph_json = question_line = None
    for line in prompt.splitlines():
        if line.startswith("Scene Graph: "):
            graph_json = line[len("Scene Graph: "):]
        elif line.startswith("Question: "):
            question_line = line[len("Question: "):]
    if graph_json is None or question_line is None:
        raise ValueError("reasoning prompt without a scene graph or a question")
    return json.loads(graph_json), question_line


def _steps(relations, attributes) -> list[str]:
    return [f"The {s} {p} the {o}." for s, p, o in relations] + [
        f"The {e} is {v}." for e, v in attributes
    ]


def _render(steps: list[str], conclusion: str) -> str:
    return "\n".join([f"{i}. {s}" for i, s in enumerate(steps, start=1)] + [f"Conclusion: {conclusion}"])


def positive_rationale(prompt: str) -> str:
    graph, question_line = _prompt_fields(prompt)
    question, _, answer = question_line.rpartition("?, ")
    relations = [r for r in graph["relationships"] if _content_hash(question, *r) % 3]
    attributes = [a for a in graph["attribute pairs"] if _content_hash(question, *a) % 3]
    if not relations and not attributes:
        relations = graph["relationships"][:1]
    steps = _steps(relations, attributes) or ["The scene is empty."]
    return _render(steps, f"The answer is {answer}.")


def negative_rationale(prompt: str) -> str:
    graph, _ = _prompt_fields(prompt)
    steps = _steps(graph["relationships"], graph["attribute pairs"])
    if not steps:
        steps = ["The scene shows " + ", ".join(f"the {e}" for e in graph["entity"]) + "."]
    return _render(steps, NEGATIVE_CONCLUSION)


def embedding(text: str) -> list[float]:
    vec = [0.0] * DIM
    for word in text.casefold().split():
        h = _content_hash(word)
        vec[(h >> 1) % DIM] += 1.0 if h & 1 else -1.0
    norm = math.sqrt(sum(x * x for x in vec))
    if norm == 0.0:
        vec[_content_hash(text) % DIM] = norm = 1.0
    return [round(x / norm, 6) for x in vec]


class Endpoint:
    """Reply logic and counters; the HTTP handler only moves bytes."""

    def __init__(self):
        self.lock = threading.Lock()
        self.new_pass({})

    def new_pass(self, answers: dict[str, str]) -> None:
        """Reset the counters; ``answers`` maps the pass's questions to gold answers."""
        self.answers = answers
        self.chat_requests = 0
        self.embed_requests = 0
        self.connections = 0
        self.handle_s = 0.0
        self.violations: list[str] = []
        self.reply_hashes: set[str] = set()

    def stats(self) -> dict:
        with self.lock:
            out = {
                "chat_requests": self.chat_requests,
                "embed_requests": self.embed_requests,
                "connections": self.connections,
                "handle_s": self.handle_s,
                "violations": self.violations,
                "reply_hashes": sorted(self.reply_hashes),
            }
        return out

    def chat(self, payload: dict) -> dict:
        content = payload["messages"][0]["content"]
        image = None
        if isinstance(content, list):
            text = next(part["text"] for part in content if part.get("type") == "text")
            image = next(
                (part["image_url"]["url"] for part in content if part.get("type") == "image_url"), None
            )
        else:
            text = content
        if text.startswith(SCENE_GRAPH_FIRST_LINE):
            reply = json.dumps(endpoint_graph(image or ""), ensure_ascii=False)
        elif text.startswith(POSITIVE_FIRST_LINE):
            reply = positive_rationale(text)
        elif text.startswith(NEGATIVE_FIRST_LINE):
            self._check_negative(text, image)
            reply = negative_rationale(text)
        else:
            raise ValueError("unrecognised prompt")
        with self.lock:
            self.chat_requests += 1
            self.reply_hashes.add(sha256_text(reply))
        return {"choices": [{"message": {"role": "assistant", "content": reply}}]}

    def _check_negative(self, prompt: str, image: str | None) -> None:
        _, question = _prompt_fields(prompt)
        problems = []
        if image is not None:
            problems.append("image part")
        answer = self.answers.get(question)
        if answer is None:
            problems.append(f"question line {question[:80]!r} is not a corpus question")
        elif f"Question: {question}, {answer}" in prompt:
            problems.append("gold answer")
        if problems:
            with self.lock:
                self.violations.append(f"negative prompt carries {', '.join(problems)}")

    def embed(self, payload: dict) -> dict:
        data = [{"index": i, "embedding": embedding(t)} for i, t in enumerate(payload["input"])]
        with self.lock:
            self.embed_requests += 1
        return {"data": data}


def make_server(endpoint: Endpoint) -> ThreadingHTTPServer:
    class Handler(BaseHTTPRequestHandler):
        # keep-alive: a client that reuses connections shows fewer connections than requests
        protocol_version = "HTTP/1.1"
        counted = False

        def _send(self, status: int, body: object) -> None:
            data = json.dumps(body).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            try:
                self.end_headers()
                self.wfile.write(data)
            except (BrokenPipeError, ConnectionResetError):
                self.close_connection = True

        def do_POST(self):
            started = time.perf_counter()
            if self.path == "/pass":
                body = json.loads(self.rfile.read(int(self.headers.get("Content-Length", "0"))))
                lines = read_jsonl(Path(body["corpus"]))
                with endpoint.lock:
                    endpoint.new_pass({line["question"]: line["answer"] for line in lines})
                self._send(200, {})
                return
            if not self.counted:
                self.counted = True
                with endpoint.lock:
                    endpoint.connections += 1
            payload = json.loads(self.rfile.read(int(self.headers.get("Content-Length", "0"))))
            time.sleep(DELAY_S)
            try:
                if self.path.endswith("/chat/completions"):
                    status, body = 200, endpoint.chat(payload)
                elif self.path.endswith("/embeddings"):
                    status, body = 200, endpoint.embed(payload)
                else:
                    status, body = 404, {"error": f"no route {self.path}"}
            except (KeyError, IndexError, TypeError, ValueError, StopIteration) as exc:
                status, body = 400, {"error": f"{type(exc).__name__}: {exc}"}
                with endpoint.lock:
                    endpoint.violations.append(f"bad request to {self.path}: {exc}")
            self._send(status, body)
            with endpoint.lock:
                endpoint.handle_s += time.perf_counter() - started

        def do_GET(self):
            if self.path == "/stats":
                self._send(200, endpoint.stats())
            else:
                self._send(404, {"error": f"no route {self.path}"})

        def log_message(self, *args):
            pass

    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    server.daemon_threads = True
    return server


def _exit_with_parent(parent: int) -> None:
    # the benchmark stops this process; if the benchmark itself is killed, go too
    while os.getppid() == parent:
        time.sleep(0.5)
    os.kill(os.getpid(), signal.SIGTERM)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--port-file", required=True, help="where to write the listening port")
    args = parser.parse_args()

    server = make_server(Endpoint())
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(0))
    threading.Thread(target=_exit_with_parent, args=(os.getppid(),), daemon=True).start()
    port_file = Path(args.port_file)
    tmp = port_file.with_suffix(".tmp")
    tmp.write_text(str(server.server_port), encoding="utf-8")
    os.replace(tmp, port_file)
    try:
        server.serve_forever(poll_interval=0.2)
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
