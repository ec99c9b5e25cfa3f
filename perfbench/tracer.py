"""Per-layer tracing from outside the program.

The tracer replaces each layer's entry functions with timing wrappers in
every ``beslab`` module namespace that binds them (``turan`` and
``constructions`` import ``_config_search`` by name, ``cli`` and ``turan``
import ``from_text``).  Only top-level entry points are wrapped; the
self-recursive helpers inside them are not, so one call is one span.

Spans stay in memory as parallel arrays (layer entry, op id, parent span,
start and end in ns) and are written out once, at the end.  A span's self
time is its duration minus the durations of its direct children; spans nest
strictly because the benchmark is one thread.
"""

from __future__ import annotations

import array
import json
import sys
import time
from pathlib import Path

import beslab
from beslab import cli, constructions, hypergraphs, merging, turan, weights

MODULES = (beslab, hypergraphs, merging, weights, turan, constructions, cli)

# layer -> (defining module, entry function) pairs
LAYERS: dict[str, tuple[tuple[object, str], ...]] = {
    "hypergraphs.config_search": ((hypergraphs, "_config_search"),),
    "hypergraphs.claims": (
        (hypergraphs, "claim_profile"),
        (hypergraphs, "claim_set"),
        (merging, "tp_pair_set"),
    ),
    "merging": ((merging, "merge"), (merging, "_mergeable")),
    "weights": ((weights, "_pair_weight_map"), (weights, "_deficit_pair")),
    "turan.bnb": ((turan, "_branch_and_bound"),),
    "turan.cache": ((turan, "_cache_load"), (turan, "_cache_append")),
    "constructions.conflicts": (
        (constructions, "enumerate_S"),
        (constructions, "enumerate_conflicts"),
    ),
    "cli": ((cli, "run"), (hypergraphs, "from_text"), (cli, "_build_parser")),
}
LAYER_NAMES = tuple(LAYERS)

# Per-layer metrics beyond <layer>.calls and <layer>.self_s, with units.
EXTRA_METRICS: dict[str, str] = {
    "hypergraphs.config_search.found_ratio": "ratio",
    "hypergraphs.claims.profile_calls": "count",
    "hypergraphs.claims.claim_set_calls": "count",
    "hypergraphs.claims.tp_pair_set_calls": "count",
    "merging.mergeable_calls": "count",
    "merging.merge_ratio": "ratio",
    "weights.pair_weight_map_calls": "count",
    "weights.deficit_pair_calls": "count",
    "turan.bnb.nodes": "count",
    "turan.bnb.nodes_per_s": "1/s",
    "turan.cache.loads": "count",
    "turan.cache.load_s": "s",
    "turan.cache.hit_ratio": "ratio",
    "turan.cache.append_s": "s",
    "constructions.conflicts.enumerate_S_calls": "count",
    "constructions.conflicts.found": "count",
    "cli.parse_s": "s",
    "trace.overhead_frac": "ratio",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units: dict[str, str] = {}
    for layer in LAYER_NAMES:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
    units.update(EXTRA_METRICS)
    return units


class Tracer:
    """Installs span-recording wrappers and turns spans into layer metrics."""

    def __init__(self) -> None:
        self.entries = [
            (layer, fname, mod) for layer, fns in LAYERS.items() for mod, fname in fns
        ]
        self.entry_layer = [layer for layer, _, _ in self.entries]
        self.entry_name = [fname for _, fname, _ in self.entries]
        self.op_id = -1
        self.kind = array.array("B")
        self.op = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("q")
        self.end = array.array("q")
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []
        self._observers = {
            "_config_search": self._on_config_search,
            "merge": self._on_merge,
            "_branch_and_bound": self._on_branch_and_bound,
            "_cache_load": self._on_cache_load,
            "enumerate_conflicts": self._on_enumerate_conflicts,
        }
        self.reset()

    def reset(self) -> None:
        """Drop recorded spans and counts (the wrappers keep their columns)."""
        for col in (self.kind, self.op, self.parent, self.start, self.end):
            del col[:]
        # Outcome counts, read from return values where the work happens.
        self.config_found = 0
        self.merges_done = 0
        self.bnb_nodes = 0
        self.cache_misses = 0
        self.conflicts_found = 0
        self._load_pending = False

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for kind, (_, fname, mod) in enumerate(self.entries):
            original = getattr(mod, fname)
            observe = self._observers.get(fname)
            wrapper = self._wrap(kind, original, observe)
            for m in MODULES:
                if getattr(m, fname, None) is original:
                    self._saved.append((m, fname, original))
                    setattr(m, fname, wrapper)

    def uninstall(self) -> None:
        for m, fname, original in reversed(self._saved):
            setattr(m, fname, original)
        self._saved.clear()

    def _wrap(self, kind: int, fn, observe):
        kinds, ops, parents = self.kind, self.op, self.parent
        starts, ends, stack = self.start, self.end, self._stack
        now = time.perf_counter_ns
        tracer = self

        def wrapper(*args, **kwargs):
            idx = len(starts)
            kinds.append(kind)
            ops.append(tracer.op_id)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(idx)
            starts.append(now())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = now()
                stack.pop()
            if observe is not None:
                observe(args, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _on_config_search(self, args: tuple, out) -> None:
        self.config_found += out is not None

    def _on_merge(self, args: tuple, out) -> None:
        self.merges_done += len(args[1].clusters) - len(out.clusters)

    def _on_branch_and_bound(self, args: tuple, out) -> None:
        self.bnb_nodes += out[2]
        # A search right after a cache load means the load missed.
        if self._load_pending:
            self.cache_misses += 1
            self._load_pending = False

    def _on_cache_load(self, args: tuple, out) -> None:
        self._load_pending = True

    def _on_enumerate_conflicts(self, args: tuple, out) -> None:
        self.conflicts_found += len(out)

    # -- results ----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Layer metrics of the spans recorded since the last reset
        (all but ``trace.overhead_frac``, which needs an untraced run)."""
        n_kinds = len(self.entries)
        calls = [0] * n_kinds
        incl = [0] * n_kinds
        self_ns = [0] * n_kinds
        kind, parent, start, end = self.kind, self.parent, self.start, self.end
        for i in range(len(start)):
            d = end[i] - start[i]
            k = kind[i]
            calls[k] += 1
            incl[k] += d
            self_ns[k] += d
            if parent[i] >= 0:
                self_ns[kind[parent[i]]] -= d

        def by_name(fname: str, table: list[int]) -> int:
            return sum(v for v, n in zip(table, self.entry_name) if n == fname)

        out: dict[str, float] = {}
        for layer in LAYER_NAMES:
            ks = [k for k in range(n_kinds) if self.entry_layer[k] == layer]
            out[f"{layer}.calls"] = sum(calls[k] for k in ks)
            out[f"{layer}.self_s"] = sum(self_ns[k] for k in ks) / 1e9
        cs_calls = by_name("_config_search", calls)
        mergeable = by_name("_mergeable", calls)
        bnb_s = by_name("_branch_and_bound", incl) / 1e9
        loads = by_name("_cache_load", calls)
        out.update(
            {
                "hypergraphs.config_search.found_ratio": _ratio(self.config_found, cs_calls),
                "hypergraphs.claims.profile_calls": by_name("claim_profile", calls),
                "hypergraphs.claims.claim_set_calls": by_name("claim_set", calls),
                "hypergraphs.claims.tp_pair_set_calls": by_name("tp_pair_set", calls),
                "merging.mergeable_calls": mergeable,
                "merging.merge_ratio": _ratio(self.merges_done, mergeable),
                "weights.pair_weight_map_calls": by_name("_pair_weight_map", calls),
                "weights.deficit_pair_calls": by_name("_deficit_pair", calls),
                "turan.bnb.nodes": self.bnb_nodes,
                "turan.bnb.nodes_per_s": _ratio(self.bnb_nodes, bnb_s),
                "turan.cache.loads": loads,
                "turan.cache.load_s": by_name("_cache_load", incl) / 1e9,
                "turan.cache.hit_ratio": _ratio(loads - self.cache_misses, loads),
                "turan.cache.append_s": by_name("_cache_append", incl) / 1e9,
                "constructions.conflicts.enumerate_S_calls": by_name("enumerate_S", calls),
                "constructions.conflicts.found": self.conflicts_found,
                "cli.parse_s": by_name("_build_parser", incl) / 1e9,
            }
        )
        return out

    def write(self, path: Path) -> None:
        """Spans as raw columns in native byte order, with a JSON index beside them."""
        path.parent.mkdir(parents=True, exist_ok=True)
        columns = [("kind", self.kind), ("op", self.op), ("parent", self.parent),
                   ("start_ns", self.start), ("end_ns", self.end)]
        with open(path, "wb") as fh:
            for _, col in columns:
                col.tofile(fh)
        index = {
            "spans": len(self.start),
            "byteorder": sys.byteorder,
            "columns": [[name, col.typecode, col.itemsize] for name, col in columns],
            "kinds": [
                {"layer": layer, "function": fname}
                for layer, fname in zip(self.entry_layer, self.entry_name)
            ],
        }
        path.with_suffix(".json").write_text(json.dumps(index, indent=1) + "\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
