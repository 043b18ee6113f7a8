"""Checked-in lock-hierarchy baseline and drift detection.

The baseline file (``tools/concurrency_baseline.json``) holds three
things:

* ``hierarchy`` — the intended lock layers, outer first.  An edge that
  acquires an *outer* lock while holding an *inner* one contradicts the
  documented order and is flagged even if it does not (yet) close a
  cycle.
* ``edges`` — the exact acquired-while-holding edge set of the shipped
  tree.  Any difference — a new edge **or** a stale one — is drift: the
  graph changed, so the baseline (and the reviewer) must acknowledge
  it.  Regenerate with ``tools/check_concurrency.py --update-baseline``.
* ``self_nest_ok`` — lock names allowed to nest within themselves on
  one thread with *different* objects (the per-servant lock family,
  justified by a key-ordering argument in docs/CONCURRENCY.md).

Cycle detection runs on blocking edges only: a try-acquire
(``acquire(blocking=False)`` / any ``timeout=``) cannot wait, so it can
never complete a deadlock, and the failover path relies on exactly that.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Sequence, Set, Tuple

from repro.analysis.lockgraph import LockGraph
from repro.analysis.report import Finding


@dataclass
class Baseline:
    hierarchy: List[List[str]] = field(default_factory=list)
    edges: Set[Tuple[str, str]] = field(default_factory=set)
    self_nest_ok: Set[str] = field(default_factory=set)

    @classmethod
    def load(cls, path) -> "Baseline":
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        return cls(
            hierarchy=[list(layer) for layer in data.get("hierarchy", [])],
            edges={(src, dst) for src, dst in data.get("edges", [])},
            self_nest_ok=set(data.get("self_nest_ok", [])),
        )

    def save(self, path) -> None:
        data = {
            "hierarchy": [sorted(layer) for layer in self.hierarchy],
            "edges": sorted(list(pair) for pair in self.edges),
            "self_nest_ok": sorted(self.self_nest_ok),
        }
        Path(path).write_text(
            json.dumps(data, indent=2) + "\n", encoding="utf-8"
        )

    def ranks(self) -> Dict[str, int]:
        return {
            name: rank
            for rank, layer in enumerate(self.hierarchy)
            for name in layer
        }

    def updated(self, graph: LockGraph) -> "Baseline":
        """This baseline with its edge set replaced by the graph's."""
        return Baseline(
            hierarchy=[list(layer) for layer in self.hierarchy],
            edges=graph.all_pairs(),
            self_nest_ok=set(self.self_nest_ok),
        )


def find_cycles(graph: LockGraph) -> List[List[str]]:
    """Simple cycles among blocking edges, each rotated to a stable form."""
    # imported here, not at module level: every runtime module imports
    # this package for its lock witness, and networkx adds about 10 MB to
    # a process's memory
    import networkx as nx

    digraph = nx.DiGraph()
    digraph.add_edges_from(graph.blocking_pairs())
    cycles = []
    for cycle in nx.simple_cycles(digraph):
        pivot = cycle.index(min(cycle))
        cycles.append(cycle[pivot:] + cycle[:pivot])
    return sorted(cycles)


def _edge_site(graph: LockGraph, src: str, dst: str) -> str:
    edge = graph.edges.get((src, dst))
    if edge is None or not edge.sites:
        return ""
    path, lineno, via = edge.sites[0]
    return f" ({via} at {path}:{lineno})"


def check_cycles(graph: LockGraph) -> List[Finding]:
    findings = []
    for cycle in find_cycles(graph):
        arrows = " -> ".join(cycle + [cycle[0]])
        sites = "".join(
            _edge_site(graph, a, b)
            for a, b in zip(cycle, cycle[1:] + [cycle[0]])
        )
        findings.append(Finding(
            "lock-cycle", "error",
            f"potential deadlock cycle: {arrows}{sites}",
        ))
    return findings


def check_baseline(graph: LockGraph, baseline: Baseline) -> List[Finding]:
    """Cycles, hierarchy-rank violations, and edge-set drift."""
    findings = check_cycles(graph)
    ranks = baseline.ranks()
    observed = graph.all_pairs()
    for src, dst in sorted(observed - baseline.edges):
        findings.append(Finding(
            "unbaselined-edge", "error",
            f"new lock-order edge {src} -> {dst} is not in the baseline"
            f"{_edge_site(graph, src, dst)}; review it against the "
            "hierarchy, then run --update-baseline",
        ))
    for src, dst in sorted(baseline.edges - observed):
        findings.append(Finding(
            "stale-baseline", "error",
            f"baseline edge {src} -> {dst} is no longer observed; "
            "run --update-baseline",
        ))
    for src, dst in sorted(observed):
        edge = graph.edges[(src, dst)]
        if edge.trylock:
            continue
        if src in ranks and dst in ranks and ranks[src] > ranks[dst]:
            findings.append(Finding(
                "hierarchy-violation", "error",
                f"{dst} (layer {ranks[dst]}) must be acquired before "
                f"{src} (layer {ranks[src]}), but {src} -> {dst} was "
                f"observed{_edge_site(graph, src, dst)}",
            ))
    for name in sorted(graph.self_nests):
        if name not in baseline.self_nest_ok:
            path, lineno, via = graph.self_nests[name][0]
            findings.append(Finding(
                "self-nest", "error",
                f"{name} nests within itself (via {via}) but is not in "
                "self_nest_ok",
                path, lineno,
            ))
    return findings


def check_witness_edges(
    edges: Iterable[Tuple[str, str]],
    baseline: Baseline,
    self_nests: Sequence[str] = (),
) -> List[Finding]:
    """Validate runtime-observed edges against the hierarchy ranks.

    The witness sees a subset of the static edge set (only exercised
    paths) plus dynamic-only edges (callbacks through servant objects),
    so drift is not checked — only rank order and self-nest allowance.
    """
    findings = []
    ranks = baseline.ranks()
    for src, dst in sorted(set(edges)):
        if src == dst:
            continue
        if src in ranks and dst in ranks and ranks[src] > ranks[dst]:
            findings.append(Finding(
                "hierarchy-violation", "error",
                f"witness observed {src} -> {dst}, contradicting the "
                f"hierarchy (layer {ranks[src]} holds layer {ranks[dst]})",
            ))
    for name in sorted(set(self_nests)):
        if name not in baseline.self_nest_ok:
            findings.append(Finding(
                "self-nest", "error",
                f"witness observed {name} nesting within itself but it "
                "is not in self_nest_ok",
            ))
    return findings
