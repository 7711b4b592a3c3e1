"""Spans around calls into the program's layers, recorded from outside it.

A traced pass wraps the public functions of each module under
``src/scenealign/`` (plus ``requests.Session.send``, the HTTP transport) and
keeps one span per call in memory: name, instance id, duration and self time
(duration minus the spans it directly caused).  ``stage_*`` calls set the
instance id their nested spans carry.

Wrappers go on every name the program looks up: ``pipeline`` imports
``embed_texts``, ``generate_rationale`` and others by name, so the wrapper
replaces each module global bound to the original function, not only the one
in its home module.  A wrapped name that no longer exists, or that a workload
must reach and never did, is an error, never a zero.
"""

from __future__ import annotations

import importlib
import pkgutil
import threading
import time
from dataclasses import dataclass
from typing import Callable


class TraceError(RuntimeError):
    pass


def _item_id(args, kwargs) -> str:
    item = args[0] if args else kwargs["item"]
    return item["id"]


def _len_result(args, kwargs, result) -> int:
    return len(result)


@dataclass(frozen=True)
class Target:
    module: str
    name: str  # "func" or "Class.method"
    instance_id: Callable | None = None  # (args, kwargs) -> id, for stage spans
    count: Callable | None = None  # (args, kwargs, result) -> work done by the call


STAGES = ("stage_parse", "stage_ground", "stage_perturb", "stage_select", "stage_build")

TARGETS = (
    Target("scenealign.pipeline", "stage_parse", count=lambda a, k, r: len(r[0])),
    *(Target("scenealign.pipeline", name, instance_id=_item_id) for name in STAGES[1:]),
    Target("scenealign.scene_graph", "SceneGraph.from_parts"),
    Target("scenealign.scene_graph", "element_universe"),
    Target("scenealign.scene_graph", "parse_scene_graph"),
    Target("scenealign.rationale", "Rationale.parse"),
    Target("scenealign.generate", "generate_rationale"),
    Target("scenealign.generate", "generate_scene_graph_json"),
    Target("scenealign.generate", "render_scene_graph_prompt"),
    Target("scenealign.generate", "render_positive_cot_prompt"),
    Target("scenealign.generate", "render_negative_cot_prompt"),
    Target("scenealign.embed", "embed_texts", count=lambda a, k, r: len(r)),
    Target("scenealign.grounding", "extract_grounded_subgraph"),
    Target("scenealign.grounding", "residual_pool", count=lambda a, k, r: r.element_count),
    Target("scenealign.perturb", "generate_negatives", count=_len_result),
    Target("scenealign.selection", "filter_with_shortfall", count=lambda a, k, r: len(r[0])),
    Target("scenealign.selection", "select_diverse"),
    Target("scenealign.dpo", "build_preference_records", count=_len_result),
    Target("scenealign.dpo", "export_jsonl", count=lambda a, k, r: r),
    Target("scenealign.cli", "main"),
    Target("requests", "Session.send"),
)


class Tracer:
    """Thread-aware span recorder; spans stay in memory until the pass ends."""

    def __init__(self):
        self._local = threading.local()
        # (name, instance id, duration, self time, count); list.append is atomic
        self.spans: list[tuple[str, str | None, float, float, int]] = []

    def _frames(self) -> list[list[float]]:
        frames = getattr(self._local, "frames", None)
        if frames is None:
            frames = self._local.frames = []
        return frames

    def wrap(self, target: Target, fn: Callable) -> Callable:
        local = self._local
        spans = self.spans
        label = f"{target.module.rsplit('.', 1)[-1]}.{target.name.rsplit('.', 1)[-1]}"

        def traced(*args, **kwargs):
            frames = self._frames()
            if target.instance_id is not None:
                outer_id = getattr(local, "instance", None)
                local.instance = target.instance_id(args, kwargs)
            child = [0.0]
            frames.append(child)
            started = time.perf_counter()
            count = 0
            try:
                result = fn(*args, **kwargs)
                count = target.count(args, kwargs, result) if target.count else 1
                return result
            finally:
                duration = time.perf_counter() - started
                frames.pop()
                if frames:
                    frames[-1][0] += duration
                spans.append((label, getattr(local, "instance", None), duration, duration - child[0], count))
                if target.instance_id is not None:
                    local.instance = outer_id

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every target; raises :class:`TraceError` for a missing name."""
        import scenealign

        program = [scenealign] + [
            importlib.import_module(f"scenealign.{info.name}")
            for info in pkgutil.iter_modules(scenealign.__path__)
        ]
        for target in TARGETS:
            try:
                home = importlib.import_module(target.module)
            except ImportError as exc:
                raise TraceError(f"cannot import {target.module}: {exc}") from exc
            owner_name, _, attr = target.name.rpartition(".")
            if owner_name:
                owner = getattr(home, owner_name, None)
                if owner is None or attr not in vars(owner):
                    raise TraceError(f"{target.module}.{target.name} no longer exists")
                raw = vars(owner)[attr]
                if isinstance(raw, classmethod):
                    setattr(owner, attr, classmethod(self.wrap(target, raw.__func__)))
                else:
                    setattr(owner, attr, self.wrap(target, raw))
                continue
            original = getattr(home, attr, None)
            if original is None:
                raise TraceError(f"{target.module}.{attr} no longer exists")
            wrapped = self.wrap(target, original)
            for module in {home, *program}:
                if vars(module).get(attr) is original:
                    setattr(module, attr, wrapped)

    # -- aggregation ----------------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        out: dict[str, dict[str, float]] = {}
        for label, _, duration, self_time, count in self.spans:
            entry = out.setdefault(label, {"calls": 0, "s": 0.0, "self_s": 0.0, "count": 0})
            entry["calls"] += 1
            entry["s"] += duration
            entry["self_s"] += self_time
            entry["count"] += count
        return out

    def per_instance(self, labels: tuple[str, ...]) -> dict[str, float]:
        """Seconds per instance id spent in spans with the given labels."""
        out: dict[str, float] = {}
        for label, instance, duration, _, _ in self.spans:
            if label in labels and instance is not None:
                out[instance] = out.get(instance, 0.0) + duration
        return out


def require_calls(totals: dict, labels: tuple[str, ...]) -> None:
    missing = [label for label in labels if not totals.get(label, {}).get("calls")]
    if missing:
        raise TraceError(f"wrapped name(s) never called: {', '.join(missing)}")

