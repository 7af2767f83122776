"""Spans around the calls into each layer, recorded from outside the package.

The tracer replaces module attributes that the pipeline calls through (for
example ``proclearn.embed.tcc_loss``) with wrappers that record a span per
call: its name, start, end, parent span and the round it belongs to, plus
counts taken at the same boundary. A name imported into another module
(``cli`` imports ``localize`` from ``procut``) is replaced there as well, so
every path to the function is seen. Spans stay in memory until ``dump``.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path

LAYERS = ("embed", "procut", "order", "metrics", "core", "cli", "synthbench")

TARGETS = {
    "embed": ("train_embedder", "tc3i_loss", "tcc_loss", "cidm_loss", "embed_sequence"),
    "procut": ("localize", "correspondence_scores", "build_energy_graph", "min_cut",
               "cluster_foreground", "baseline_cluster_all", "baseline_random"),
    "order": ("keystep_order",),
    "metrics": ("full_report", "dataset_stats"),
    "core": ("load_features", "load_manifest"),
    "cli": ("cmd_synth", "cmd_train", "cmd_localize", "cmd_order", "cmd_evaluate",
            "cmd_stats"),
    "synthbench": ("generate", "compare_methods"),
}

# Counts recorded when a call returns: (args, kwargs, result) -> counts.
COUNTERS = {
    "embed.tc3i_loss": lambda a, k, r: {"train_steps": 1},
    "procut.correspondence_scores": lambda a, k, r: {"frames_scored": sum(len(m) for m in a[0])},
    "procut.build_energy_graph": lambda a, k, r: {"graph_nodes": r.node_count},
    "core.load_features": lambda a, k, r: {"feature_reads": 1},
}


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.round = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> dict:
        span = {
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "round": self.round,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "counts": {},
        }
        self.spans.append(span)
        self._stack.append(span["id"])
        return span

    def _close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def _wrap(self, name: str, fn):
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if count is not None:
                span["counts"] = count(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        for layer in LAYERS:
            importlib.import_module(f"proclearn.{layer}")
        modules = [m for n, m in list(sys.modules.items())
                   if n == "proclearn" or n.startswith("proclearn.")]
        for layer, names in TARGETS.items():
            owner = sys.modules[f"proclearn.{layer}"]
            for attr in names:
                original = getattr(owner, attr)
                wrapper = self._wrap(f"{layer}.{attr}", original)
                for module in modules:
                    if getattr(module, attr, None) is original:
                        self._patches.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def self_times(spans: list[dict]) -> dict[int, float]:
    """A span's duration minus the part of it its child spans cover."""
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own
