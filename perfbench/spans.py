"""Spans around the public stage functions of rookpaths, from outside the package.

``Tracer.install`` rebinds each traced function, in every loaded
``rookpaths`` module that holds it, to a wrapper that records a span
(name, start, end, parent span, op id).  Spans stay in memory until the
run ends; ``layer_metrics`` then derives self times per layer and the
work counts.  Counts are computed from each call's arguments and result
(for example a ``fixed_edge_witness`` that returns None imaged
(|G|-1)*|E| edges), not counted inside the program.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from collections import defaultdict
from time import perf_counter

# (module, function) pairs; the span name is "module.function"
TRACED = (
    ("cli", "main"),
    ("staircase", "build_staircase_path"),
    ("staircase", "first_orbit_conflict"),
    ("groups", "generate_group"),
    ("groups", "fixed_edge_witness"),
    ("groups", "edge_orbits"),
    ("groups", "automorphism_violation"),
    ("decompose", "build_orbit_decomposition"),
    ("decompose", "orbit_transversal_check"),
    ("decompose", "verify_decomposition"),
    ("decompose", "partition_witnesses"),
    ("decompose", "subgraphs_isomorphic"),
    ("decompose", "haggkvist_split"),
    ("decompose", "is_path_subgraph"),
    ("serialize", "parse_decomposition"),
    ("serialize", "decomposition_to_json"),
    ("serialize", "blocks_to_text"),
    ("serialize", "export_dot"),
    ("serialize", "dot_for_blocks"),
)

# per-layer metric name -> unit, in the order BENCHMARK.json lists them
LAYER_UNITS = {
    "cli.self_s": "s",
    "staircase.build_s": "s",
    "staircase.orbit_conflict_s": "s",
    "groups.closure_s": "s",
    "groups.closure_elements": "count",
    "groups.fixed_edge_s": "s",
    "groups.fixed_edge_calls": "count",
    "groups.fixed_edge_images": "count",
    "groups.orbits_s": "s",
    "groups.orbit_images": "count",
    "groups.automorphism_check_s": "s",
    "decompose.transport_s": "s",
    "decompose.transversal_s": "s",
    "decompose.verify_s": "s",
    "decompose.verify.partition_s": "s",
    "decompose.verify.iso_s": "s",
    "decompose.iso_calls": "count",
    "decompose.iso_raised": "count",
    "decompose.verify.semiregular_s": "s",
    "decompose.verify.self_s": "s",
    "decompose.split_s": "s",
    "decompose.blocks": "count",
    "serialize.parse_s": "s",
    "serialize.bytes_in": "bytes",
    "serialize.to_json_s": "s",
    "serialize.bytes_out": "bytes",
    "serialize.text_s": "s",
    "grid.edges": "count",
    "trace.edges_per_s": "edges/s",
    "trace.ops": "count",
}


def _edge_index(graph, edge) -> int:
    for i, e in enumerate(graph.edges()):
        if e == edge:
            return i
    return graph.edge_count


def _count(name, arg, result, counts) -> None:
    """Work counts for one finished call, from its arguments (by name) and result."""
    if name == "groups.generate_group":
        counts["groups.closure_elements"] += result.order
    elif name == "groups.fixed_edge_witness":
        graph, group = arg["graph"], arg["group"]
        counts["groups.fixed_edge_calls"] += 1
        if result is None:
            counts["groups.fixed_edge_images"] += (group.order - 1) * graph.edge_count
        else:
            g, e = result
            skipped = list(group.non_identity()).index(g)
            counts["groups.fixed_edge_images"] += skipped * graph.edge_count + _edge_index(graph, e) + 1
    elif name == "groups.edge_orbits":
        counts["groups.orbit_images"] += len(result) * arg["group"].order
    elif name == "decompose.subgraphs_isomorphic":
        counts["decompose.iso_calls"] += 1
    elif name == "decompose.verify_decomposition":
        counts["decompose.blocks"] += len(arg["dec"].blocks)
    elif name == "serialize.parse_decomposition":
        if isinstance(arg["data"], str):
            counts["serialize.bytes_in"] += len(arg["data"].encode("utf-8"))
    elif name == "serialize.decomposition_to_json":
        counts["serialize.bytes_out"] += len(result.encode("utf-8"))


COUNTED = {
    "groups.generate_group",
    "groups.fixed_edge_witness",
    "groups.edge_orbits",
    "decompose.subgraphs_isomorphic",
    "decompose.verify_decomposition",
    "serialize.parse_decomposition",
    "serialize.decomposition_to_json",
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1, op id]
        self.stack: list[int] = []
        self.counts: dict = defaultdict(int)
        self.op = 0
        self._restore: list = []

    def _wrap(self, name: str, fn):
        spans, stack, counts = self.spans, self.stack, self.counts
        signature = inspect.signature(fn) if name in COUNTED else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                span[2] = perf_counter()
                counts[name + ".raised"] += 1
                raise
            finally:
                stack.pop()
            span[2] = perf_counter()
            if signature is not None:
                _count(name, signature.bind(*args, **kwargs).arguments, result, counts)
            return result

        return traced

    def install(self) -> None:
        """Rebind every traced function in each rookpaths module that imported it."""
        loaded = [m for k, m in list(sys.modules.items()) if k == "rookpaths" or k.startswith("rookpaths.")]
        for module, func in TRACED:
            orig = getattr(sys.modules[f"rookpaths.{module}"], func)
            wrapper = self._wrap(f"{module}.{func}", orig)
            for mod in loaded:
                if mod.__dict__.get(func) is orig:
                    setattr(mod, func, wrapper)
                    self._restore.append((mod, func, orig))

    def uninstall(self) -> None:
        for mod, func, orig in reversed(self._restore):
            setattr(mod, func, orig)
        self._restore.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "op": op}) + "\n")

    def layer_metrics(self, busy, factor: float) -> dict:
        """Per-layer totals for the run: self times by layer plus the work counts.

        ``busy(start, end)`` is the time the host-speed sampler took inside
        a span, which is left out; times are then divided by the run's
        host speed ``factor`` (speed.py), like the end-to-end timings.
        """
        spans = self.spans
        length = [end - start - busy(start, end) for _, start, end, _, _ in spans]
        child = [0.0] * len(spans)
        for i, (_, _, _, parent, _) in enumerate(spans):
            if parent >= 0:
                child[parent] += length[i]
        out = {key: 0 for key in LAYER_UNITS}
        out.update((k, v) for k, v in self.counts.items() if k in out)
        out["decompose.iso_raised"] = self.counts.get("decompose.subgraphs_isomorphic.raised", 0)
        for i, (name, _, _, parent, _) in enumerate(spans):
            total = length[i]
            own = total - child[i]
            up = spans[parent][0] if parent >= 0 else None
            if name == "cli.main":
                out["cli.self_s"] += own
            elif name == "staircase.build_staircase_path":
                out["staircase.build_s"] += own
            elif name == "staircase.first_orbit_conflict":
                out["staircase.orbit_conflict_s"] += total
            elif name == "groups.generate_group":
                out["groups.closure_s"] += total
            elif name == "groups.fixed_edge_witness":
                out["groups.fixed_edge_s"] += total
                if up == "decompose.verify_decomposition":
                    out["decompose.verify.semiregular_s"] += total
            elif name == "groups.edge_orbits":
                out["groups.orbits_s"] += total
            elif name == "groups.automorphism_violation":
                out["groups.automorphism_check_s"] += total
            elif name == "decompose.build_orbit_decomposition":
                out["decompose.transport_s"] += own
            elif name == "decompose.orbit_transversal_check":
                out["decompose.transversal_s"] += total
            elif name == "decompose.verify_decomposition":
                out["decompose.verify_s"] += total
                out["decompose.verify.self_s"] += own
            elif name == "decompose.partition_witnesses":
                key = "decompose.verify.partition_s" if up == "decompose.verify_decomposition" else "decompose.split_s"
                out[key] += total
            elif name == "decompose.subgraphs_isomorphic":
                out["decompose.verify.iso_s"] += total
            elif name == "decompose.haggkvist_split":
                out["decompose.split_s"] += total
            elif name == "decompose.is_path_subgraph" and up == "cli.main":
                out["decompose.split_s"] += total
            elif name == "serialize.parse_decomposition":
                out["serialize.parse_s"] += own
            elif name == "serialize.decomposition_to_json":
                out["serialize.to_json_s"] += total
            elif name in ("serialize.blocks_to_text", "serialize.export_dot", "serialize.dot_for_blocks"):
                out["serialize.text_s"] += own
        for key, unit in LAYER_UNITS.items():
            if unit == "s":
                out[key] /= factor
        return out
