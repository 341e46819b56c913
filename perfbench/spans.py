"""Span records and the per-layer arithmetic over them.

A span is one call of a wrapped charsum function.  Spans of one CLI
invocation share a run id; ``parent`` is the id of the innermost
wrapped call that was open when the span started (0 at top level).
The layer of a span is the module part of its name, so
``walsh.walsh_coeff`` belongs to the layer ``walsh``.
"""

from __future__ import annotations

from collections import defaultdict
from typing import NamedTuple


class Span(NamedTuple):
    run: str
    id: int
    parent: int
    name: str
    start: float
    end: float
    key: str | None = None  # identity of the work item, for the per-key ratios
    work: int = 0           # elements or bytes the call handled, where it has such a count

    @property
    def seconds(self) -> float:
        return self.end - self.start


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def layer_self_seconds(spans) -> dict:
    """Per layer: span time minus the time covered by direct child spans.

    Calls nest properly within one run, so the direct children of a span
    are disjoint and lie inside it; summing self times over all spans of
    a run gives the time of its top-level spans.
    """
    covered = defaultdict(float)
    for s in spans:
        if s.parent:
            covered[(s.run, s.parent)] += s.seconds
    out = defaultdict(float)
    for s in spans:
        out[layer_of(s.name)] += s.seconds - covered[(s.run, s.id)]
    return dict(out)


def calls(spans, name: str) -> int:
    return sum(1 for s in spans if s.name == name)


def total_seconds(spans, name: str) -> float:
    """Inclusive time of every call of ``name``.  No wrapped function
    re-enters itself, so the calls never overlap."""
    return sum(s.seconds for s in spans if s.name == name)


def total_work(spans, name: str) -> int:
    return sum(s.work for s in spans if s.name == name)


def calls_per_key(spans, name: str) -> float:
    """Calls of ``name`` divided by the distinct work items they covered.

    Items are told apart per run: separate processes share no results, so
    the same item in two runs is two units of necessary work.  1.0 means
    no call repeated work; 0.0 means ``name`` was not called.
    """
    hits = [(s.run, s.key) for s in spans if s.name == name]
    return len(hits) / len(set(hits)) if hits else 0.0
