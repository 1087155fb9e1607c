"""In-memory span tracer that wraps balancepack's public functions from outside.

The program has no instrumentation of its own, so the traced run replaces
module attributes with timing wrappers while a ``Tracer`` is installed and
restores the originals on exit. ``cli`` reaches every stage through module
attribute lookups (``manifest.synth_corpus(...)``), and names imported with
``from .x import f`` are patched wherever they are bound, so calls between
modules are seen too.

Functions called once per item (``rng.shard_of``, ``manifest.estimate_tokens``)
are aggregated into one counter each instead of one span per call, which
would cost more than the work it measures.
"""

from __future__ import annotations

import functools
import os
import threading
import time
from dataclasses import dataclass

# Public functions recorded as one span per call, by module. They all run on
# the calling thread: the functions the CLI runs on worker threads
# (concepts.cosine_similarities inside topk_concepts) are left unwrapped and
# land in their caller's self time.
SPAN_FUNCTIONS = {
    "cli": ["main"],
    "manifest": [
        "synth_corpus",
        "emit_manifest",
        "ingest_manifest",
        "load_pack_items",
        "records_to_pack_items",
    ],
    "concepts": [
        "load_embeddings",
        "save_embeddings",
        "load_vocabulary",
        "save_vocabulary",
        "l2_normalize",
        "topk_concepts",
        "save_assignments",
        "load_assignments",
    ],
    "balance": [
        "concept_frequencies",
        "image_weights",
        "sample_balanced",
        "balance_report",
        "save_weights",
        "load_weights",
        "save_sampled_indices",
        "load_sampled_indices",
        "save_sorted_counts_csv",
    ],
    "packing": ["pack", "pack_ffd", "pack_bucketed", "packing_stats", "emit_plan", "load_plan"],
}

# Per-item functions: total time and call count only.
COUNTER_FUNCTIONS = {"rng": ["shard_of"], "manifest": ["estimate_tokens"]}

# JSON Lines writers and the index of their output-path argument.
JSONL_WRITERS = {
    "manifest.emit_manifest": 0,
    "concepts.save_assignments": 0,
    "balance.save_weights": 0,
    "packing.emit_plan": 1,
}


@dataclass
class Span:
    name: str
    run: int
    span_id: int
    parent: int | None
    start: float
    end: float = 0.0
    cpu: float = 0.0
    info: dict | None = None


def _span_info(name: str, args: tuple, result) -> dict | None:
    """Work counts taken from a call's arguments or result."""
    if name in JSONL_WRITERS:
        return {"bytes": os.path.getsize(args[JSONL_WRITERS[name]])}
    if name == "packing.pack":
        return {
            "items": result.num_items(),
            "packs": len(result.packs),
            "overflow": len(result.overflow),
        }
    if name == "manifest.load_pack_items":
        return {"records": len(result)}
    if name == "concepts.topk_concepts":
        images, vocab = args[0], args[1]
        n, d = images.shape
        # Computed, not counted: one multiply-add per (image, concept, dim).
        return {"flop": 2 * n * vocab.size * d}
    return None


class Tracer:
    """Context manager that installs the wrappers and collects spans.

    Spans stay in memory; ``spans`` and ``counters`` are read after the
    traced run and written out by the caller.
    """

    def __init__(self, package) -> None:
        names = ("cli", "manifest", "concepts", "balance", "packing", "rng")
        self._modules = {name: getattr(package, name) for name in names}
        self.spans: list[Span] = []
        self.counters: dict[str, list[float]] = {}
        self.run = 0
        self._stack: list[int] = []
        self._main = threading.get_ident()
        self._saved: list[tuple[object, str, object]] = []

    def _span_wrapper(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if threading.get_ident() != self._main:
                return fn(*args, **kwargs)
            span = Span(
                name=name,
                run=self.run,
                span_id=len(self.spans),
                parent=self._stack[-1] if self._stack else None,
                start=0.0,
            )
            self.spans.append(span)
            self._stack.append(span.span_id)
            cpu0 = time.process_time()
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                span.cpu = time.process_time() - cpu0
                self._stack.pop()
            span.info = _span_info(name, args, result)
            return result

        return wrapper

    def _counter_wrapper(self, name: str, fn):
        totals = self.counters.setdefault(name, [0.0, 0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                totals[0] += time.perf_counter() - t0
                totals[1] += 1

        return wrapper

    def __enter__(self) -> "Tracer":
        replacements = {}
        tables = ((SPAN_FUNCTIONS, self._span_wrapper), (COUNTER_FUNCTIONS, self._counter_wrapper))
        for table, make in tables:
            for mod_name, fn_names in table.items():
                mod = self._modules[mod_name]
                for fn_name in fn_names:
                    fn = getattr(mod, fn_name)
                    replacements[id(fn)] = make(f"{mod_name}.{fn_name}", fn)
        # Patch every binding of each function, including `from .x import f`
        # copies in the other modules.
        for mod in self._modules.values():
            for attr, value in list(vars(mod).items()):
                wrapper = replacements.get(id(value))
                if wrapper is not None:
                    self._saved.append((mod, attr, value))
                    setattr(mod, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for mod, attr, value in reversed(self._saved):
            setattr(mod, attr, value)
        self._saved.clear()

    def reset_counters(self) -> None:
        for totals in self.counters.values():
            totals[0], totals[1] = 0.0, 0


def layer_metrics(spans: list[Span], counters: dict[str, list[float]], traced_wall: float) -> dict[str, float]:
    """Per-layer figures of one traced run of a workload.

    Every span gives ``<module>.<function>_s`` (total) and ``_self_s``;
    ``cli.main``'s self time is ``cli.self_s``. Functions a workload does not
    reach read 0.
    """
    own = self_times(spans)
    total: dict[str, float] = {}
    self_s: dict[str, float] = {}
    cpu: dict[str, float] = {}
    calls: dict[str, int] = {}
    info: dict[str, float] = {}
    for s in spans:
        total[s.name] = total.get(s.name, 0.0) + (s.end - s.start)
        self_s[s.name] = self_s.get(s.name, 0.0) + own[s.span_id]
        cpu[s.name] = cpu.get(s.name, 0.0) + s.cpu
        calls[s.name] = calls.get(s.name, 0) + 1
        for key, value in (s.info or {}).items():
            info[f"{s.name}.{key}"] = info.get(f"{s.name}.{key}", 0) + value

    def per_s(work: float, seconds: float) -> float:
        return work / seconds if seconds > 0 else 0.0

    out: dict[str, float] = {}
    for mod_name, fn_names in SPAN_FUNCTIONS.items():
        for fn_name in fn_names:
            name = f"{mod_name}.{fn_name}"
            out[f"{name}_s"] = total.get(name, 0.0)
            out[f"{name}_self_s"] = self_s.get(name, 0.0)
    out["cli.self_s"] = out.pop("cli.main_self_s")
    for name in ("manifest.synth_corpus", "concepts.topk_concepts", "packing.pack"):
        out[f"{name}_cpu_s"] = cpu.get(name, 0.0)
    out["packing.pack_parallelism"] = per_s(cpu.get("packing.pack", 0.0), total.get("packing.pack", 0.0))
    out["packing.pack_items_per_s"] = per_s(info.get("packing.pack.items", 0), total.get("packing.pack", 0.0))
    for key in ("items", "packs", "overflow"):
        out[f"packing.{key}"] = info.get(f"packing.pack.{key}", 0)
    out["manifest.load_pack_items_records_per_s"] = per_s(
        info.get("manifest.load_pack_items.records", 0), total.get("manifest.load_pack_items", 0.0)
    )
    gflop = info.get("concepts.topk_concepts.flop", 0) / 1e9
    out["concepts.topk_gflop"] = gflop
    out["concepts.topk_gflop_per_s"] = per_s(gflop, total.get("concepts.topk_concepts", 0.0))
    out["concepts.load_assignments_calls"] = calls.get("concepts.load_assignments", 0)
    for name in JSONL_WRITERS:
        size = info.get(f"{name}.bytes", 0)
        out[f"{name}_bytes"] = size
        out[f"{name}_mb_per_s"] = per_s(size / 1e6, total.get(name, 0.0))
    for mod_name, fn_names in COUNTER_FUNCTIONS.items():
        for fn_name in fn_names:
            seconds, count = counters.get(f"{mod_name}.{fn_name}", (0.0, 0))
            out[f"{mod_name}.{fn_name}_s"] = seconds
            out[f"{mod_name}.{fn_name}_calls"] = count
    # Self times of all spans partition the traced wall time when every
    # call the harness makes is inside a span; the share shows any gap.
    out["trace.accounted_share"] = per_s(sum(own.values()), traced_wall)
    return out


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of its interval its children cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for c in sorted(children.get(s.span_id, []), key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.span_id] = (s.end - s.start) - covered
    return out
