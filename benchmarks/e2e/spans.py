"""Spans around the calls the benchmark's processes make into each layer.

Only traced runs install these wrappers.  Each one replaces a function at the
name its caller looks up (``repro.serve.server.decode_message``, not only
``repro.serve.wire.decode_message``) and records one span per call: name,
start, end, parent span and request tag.  The tag is the public ``tag``
field the client puts in every request; the server-side wrappers read it
where the wrapped call sees the request, so server spans join client spans.
Spans stay in memory and are written as JSONL when the process ends.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import importlib
import itertools
import json
import statistics
import time
from pathlib import Path

#: The request tag and the open span of the current thread or asyncio task.
_TAG = contextvars.ContextVar("e2e_tag", default="")
_PARENT = contextvars.ContextVar("e2e_parent", default=0)

#: Spans the benchmark opens itself, one per timed operation or setup step;
#: they are roots, not layers.
ROOTS = ("bench.call", "bench.request", "bench.setup")


class Recorder:
    """Keeps the spans of one process in memory."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._ids = itertools.count(1)

    @contextlib.contextmanager
    def span(self, name: str, tag: str | None = None):
        record = {
            "id": next(self._ids),
            "name": name,
            "parent": _PARENT.get(),
            "tag": _TAG.get() if tag is None else tag,
        }
        parent_token = _PARENT.set(record["id"])
        tag_token = _TAG.set(record["tag"])
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            _TAG.reset(tag_token)
            _PARENT.reset(parent_token)
            self.spans.append(record)

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            for record in self.spans:
                fh.write(json.dumps(record) + "\n")


class NullRecorder:
    """The untraced stand-in: opens no spans."""

    def span(self, name: str, tag: str | None = None):
        return contextlib.nullcontext({})


def _traced(recorder: Recorder, fn, name: str, tag_of=None, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tag = tag_of(*args) if tag_of is not None else None
        with recorder.span(name, tag) as record:
            result = fn(*args, **kwargs)
        if after is not None:
            after(record, args, result)
        return result

    return wrapper


def _patch(recorder: Recorder, module: str, attr: str, name: str, **hooks) -> None:
    owner = importlib.import_module(module)
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    setattr(owner, leaf, _traced(recorder, getattr(owner, leaf), name, **hooks))


def _request_tag(record: dict, args: tuple, message) -> None:
    """Server-side decode: the tag is inside the decoded message.

    Later decode calls of the same connection task inherit it.
    """
    req = message.get("req") if isinstance(message, dict) else None
    if isinstance(req, dict) and req.get("tag"):
        record["tag"] = req["tag"]
        _TAG.set(req["tag"])


def _out_bytes(record: dict, args: tuple, result) -> None:
    record["bytes"] = len(result)


def _in_bytes(record: dict, args: tuple, result) -> None:
    record["bytes"] = len(args[0])


def install(recorder: Recorder) -> None:
    """Wrap every traced entry point, client and server side alike."""
    from repro.formats.registry import iter_formats
    from repro.serve.server import Server

    for module in ("repro.matrices.suite", "repro.engine.core"):
        _patch(recorder, module, "load_matrix", "matrices.load")
    for _name, cls in iter_formats():
        if "from_triplets" in vars(cls):
            func = vars(cls)["from_triplets"].__func__
            cls.from_triplets = classmethod(_traced(recorder, func, "formats.convert"))
    _patch(recorder, "repro.kernels.plan", "PlanCache.get_or_build_plan", "plan.acquire")
    _patch(recorder, "repro.kernels.plan", "ExecutionPlan.__call__", "kernels.spmm")
    _patch(recorder, "repro.kernels.backward", "backward_spmm", "backward.spmm")
    _patch(recorder, "repro.kernels.backward", "transpose_format", "backward.transpose")
    _patch(recorder, "repro.kernels.backward", "transpose_spmm", "backward.kernel")
    _patch(recorder, "repro.kernels.spgemm", "spgemm", "spgemm.multiply")
    _patch(recorder, "repro.engine.core", "Engine._execute", "engine.execute",
           tag_of=lambda engine, request, *rest: request.tag)
    _patch(recorder, "repro.engine.core", "fingerprint_triplets", "engine.fingerprint")

    server = "repro.serve.server"
    _patch(recorder, server, "decode_message", "wire.server_decode", after=_request_tag)
    for attr in ("decode_matrix", "decode_array"):
        _patch(recorder, server, attr, "wire.server_decode")
    for attr in ("encode_array", "encode_message"):
        _patch(recorder, server, attr, "wire.server_encode")
    respond = Server._respond

    async def _respond(self, pending, *args, **kwargs):
        # Each response runs in its own task, so the tag set here reaches
        # exactly that response's encode calls.
        token = _TAG.set(pending.request.tag)
        try:
            return await respond(self, pending, *args, **kwargs)
        finally:
            _TAG.reset(token)

    Server._respond = _respond

    client = "repro.serve.client"
    for attr in ("encode_matrix", "encode_array"):
        _patch(recorder, client, attr, "wire.client_encode")
    _patch(recorder, client, "encode_message", "wire.client_encode", after=_out_bytes)
    _patch(recorder, client, "decode_message", "wire.client_decode", after=_in_bytes)
    _patch(recorder, client, "decode_array", "wire.client_decode")


# -- analysis -----------------------------------------------------------------


def load(path: Path) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def per_request(span_files: list[list[dict]]) -> dict[str, dict[str, list[float]]]:
    """``{tag: {span name: [self seconds, outermost seconds]}}``.

    Self time is a span's duration minus its children's.  Outermost time
    counts a span only when its parent has another name, so a conversion
    that calls another conversion is not counted twice.  Span ids are per
    process, so each file is resolved on its own before the tags merge.
    """
    out: dict[str, dict[str, list[float]]] = {}
    for records in span_files:
        by_id = {r["id"]: r for r in records}
        child_time: dict[int, float] = {}
        for r in records:
            if r["parent"] in by_id:
                child_time[r["parent"]] = child_time.get(r["parent"], 0.0) + r["end"] - r["start"]
        for r in records:
            duration = r["end"] - r["start"]
            cell = out.setdefault(r["tag"], {}).setdefault(r["name"], [0.0, 0.0])
            cell[0] += duration - child_time.get(r["id"], 0.0)
            parent = by_id.get(r["parent"])
            if parent is None or parent["name"] != r["name"]:
                cell[1] += duration
    return out


def layer_ms_p50(requests: dict, name: str) -> float:
    """Median, over the requests that called the layer, of its time in each."""
    values = [spans[name][1] for spans in requests.values() if name in spans]
    return statistics.median(values) * 1e3 if values else 0.0


def coverage(requests: dict, timed_tags: list[str]) -> float:
    """Median, over the timed requests, of the share of each request's
    end-to-end time that the layers' self times account for."""
    shares = []
    for tag in timed_tags:
        spans = requests.get(tag, {})
        total = sum(times[1] for name, times in spans.items() if name in ROOTS)
        if total:
            layers = sum(times[0] for name, times in spans.items() if name not in ROOTS)
            shares.append(layers / total)
    return statistics.median(shares) if shares else 0.0
