"""Span tracing of resilmip from outside: wrappers on the module attributes
that callers look up, installed for one traced run and removed afterwards.

Each span records its layer, name, start, end, parent span, query id and the
counts read from the wrapped call's return value. A thread-local stack
supplies the parent; a span opened on a thread with an empty stack (a solver
or lookback worker) takes as parent the innermost span open on the thread
that installed the tracer, which is blocked waiting for that worker.

Self time is wall-clock attribution: every instant inside a query is split
evenly among the innermost spans open at that instant. With one thread this
is the usual "duration minus the time covered by child spans"; with two
threads it never counts an instant twice, so self times sum to at most the
traced wall time.
"""

from __future__ import annotations

import functools
import itertools
import statistics
import threading
from time import perf_counter

from resilmip import cli, dataflow, encoder, resilience, solver
from resilmip.dataflow import Phase
from resilmip.mipmodel import MipModel
from resilmip.simplex import LpStatus

LAYERS = ("cli", "resilience", "dataflow", "encoder", "mipmodel", "solver",
          "simplex", "network")


class Span:
    __slots__ = ("id", "layer", "name", "parent", "query", "start", "end",
                 "overhead", "counts")

    def __init__(self, sid, layer, name, parent, query):
        self.id = sid
        self.layer = layer
        self.name = name
        self.parent = parent
        self.query = query
        self.start = self.end = self.overhead = 0.0
        self.counts = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def _model_of(args, result):
    """The model an encoder call built or extended, and whether it was passed
    in (so only the rows this call added should count)."""
    model = getattr(result, "model", None)
    if isinstance(model, MipModel):
        return model, False
    if isinstance(result, tuple) and result and isinstance(result[0], MipModel):
        return result[0], False
    if args and isinstance(args[0], MipModel):
        return args[0], True
    return None, False


def _lp_counts(args, kwargs, result, before):
    return {"pivots": result.iterations,
            "infeasible": int(result.status is LpStatus.INFEASIBLE),
            "numerical": int(result.status is LpStatus.NUMERICAL)}


def _solve_counts(args, kwargs, result, before):
    return {"nodes": result.nodes_explored, "model": args[0].name}


def _encode_before(args):
    if args and isinstance(args[0], MipModel):
        return args[0].num_constraints, len(args[0].binary_ids)
    return 0, 0


def _encode_counts(args, kwargs, result, before):
    model, passed_in = _model_of(args, result)
    if model is None:
        return None
    rows0, bins0 = before if passed_in else (0, 0)
    return {"rows": model.num_constraints - rows0,
            "binaries": len(model.binary_ids) - bins0}


def _undecided(args, kwargs, result, before):
    return {"undecided": sum(int((lb.phase == Phase.UNDECIDED).sum())
                             for lb in result.layers if lb.phase is not None)}


class Tracer:
    """Collects spans in memory while installed (use as a context manager)."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.query: int | None = None
        self._local = threading.local()
        self._ids = itertools.count()
        self._owner_stack: list[Span] = []
        self._restore: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, layer: str, name: str, fn, counts=None, before=None,
             top_level_only: bool = False):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t_in = perf_counter()
            stack = tracer._stack()
            owner = tracer._owner_stack
            parent = stack[-1] if stack else (owner[-1] if owner else None)
            span = Span(next(tracer._ids), layer, name,
                        parent.id if parent is not None else None, tracer.query)
            want = counts is not None and not (
                top_level_only and parent is not None and parent.layer == layer)
            pre = before(args) if want and before is not None else None
            stack.append(span)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                span.start, span.end = t0, t1
                tracer.spans.append(span)
            if want:
                span.counts = counts(args, kwargs, result, pre)
            span.overhead = (t0 - t_in) + (perf_counter() - t1)
            return result

        return traced

    def _patch(self, owner, attr: str, layer: str, name: str, **kw) -> None:
        original = getattr(owner, attr)
        self._restore.append((owner, attr, original))
        setattr(owner, attr, self.wrap(layer, name, original, **kw))

    def __enter__(self) -> "Tracer":
        self._owner_stack = self._stack()
        self._patch(solver, "solve_bounded_lp", "simplex", "solve_bounded_lp",
                    counts=_lp_counts)
        # resilience imported solve by name; tighten_lookback looks it up on
        # the solver module at call time, so both bindings are wrapped
        self._patch(resilience, "solve", "solver", "resilience.solve",
                    counts=_solve_counts)
        self._patch(solver, "solve", "solver", "solver.solve",
                    counts=_solve_counts)
        self._patch(resilience, "find_strong_anchor", "resilience",
                    "find_strong_anchor")
        for attr in sorted(vars(encoder)):
            if attr.startswith("encode_") and callable(getattr(encoder, attr)):
                self._patch(encoder, attr, "encoder", attr, counts=_encode_counts,
                            before=_encode_before, top_level_only=True)
        self._patch(MipModel, "dense_arrays", "mipmodel", "dense_arrays")
        self._patch(cli, "main", "cli", "main")
        for owner in (resilience, dataflow):
            self._patch(owner, "propagate_intervals", "dataflow",
                        "propagate_intervals")
            self._patch(owner, "tighten_lookback", "dataflow", "tighten_lookback",
                        counts=_undecided)
        self._patch(resilience, "class_scores", "network", "class_scores")
        self._patch(resilience, "competitor_count", "network", "competitor_count")
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()


def self_times(spans: list[Span]) -> dict[int, float]:
    """Wall-clock self time of every span (see the module docstring)."""
    by_id = {s.id: s for s in spans}
    events = []
    for s in spans:
        events.append((s.start, 1, s.id))
        events.append((s.end, 0, s.id))
    events.sort()
    open_children: dict[int, int] = {}
    leaves: set[int] = set()
    active: set[int] = set()
    own = dict.fromkeys(by_id, 0.0)
    last = None
    for t, is_start, sid in events:
        if last is not None and leaves and t > last:
            share = (t - last) / len(leaves)
            for leaf in leaves:
                own[leaf] += share
        last = t
        parent = by_id[sid].parent
        if parent not in active:
            parent = None
        if is_start:
            active.add(sid)
            open_children[sid] = 0
            leaves.add(sid)
            if parent is not None:
                open_children[parent] += 1
                leaves.discard(parent)
        else:
            active.discard(sid)
            leaves.discard(sid)
            if parent is not None:
                open_children[parent] -= 1
                if open_children[parent] == 0:
                    leaves.add(parent)
    return own


def _total(spans, key):
    return sum(s.counts[key] for s in spans if s.counts and key in s.counts)


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one pass (see README.md for the glossary)."""
    own = self_times(spans)
    by_layer = {layer: [s for s in spans if s.layer == layer] for layer in LAYERS}

    def self_s(layer):
        return sum(own[s.id] for s in by_layer[layer])

    lps = by_layer["simplex"]
    solves = by_layer["solver"]
    encoder_ids = {s.id for s in by_layer["encoder"]}
    stage = {"anchor_s": 0.0, "fixed_anchor_s": 0.0, "full_s": 0.0}
    for s in solves:
        if s.name != "resilience.solve" or not s.counts:
            continue
        model = s.counts["model"]
        key = ("anchor_s" if model.startswith("anchor_") else
               "fixed_anchor_s" if model.startswith("fixed_min_") else "full_s")
        stage[key] += s.duration
    simplex_s = sum(s.duration for s in lps)
    pivots = [s.counts["pivots"] for s in lps]
    return {
        "simplex.calls": len(lps),
        "simplex.s": simplex_s,
        "simplex.pivots": sum(pivots),
        "simplex.pivots_per_lp": statistics.median(pivots) if pivots else 0.0,
        "simplex.ms_per_lp": 1e3 * simplex_s / len(lps) if lps else 0.0,
        "simplex.numerical": _total(lps, "numerical"),
        "simplex.infeasible": _total(lps, "infeasible"),
        "solver.calls": len(solves),
        "solver.nodes": _total(solves, "nodes"),
        "solver.solve_s": sum(s.duration for s in solves),
        "solver.self_s": self_s("solver"),
        "encoder.encode_s": sum(s.duration for s in by_layer["encoder"]
                                if s.parent not in encoder_ids),
        "encoder.rows": _total(by_layer["encoder"], "rows"),
        "encoder.binaries": _total(by_layer["encoder"], "binaries"),
        "mipmodel.dense_arrays_s": sum(s.duration for s in by_layer["mipmodel"]),
        "cli.self_s": self_s("cli"),
        **{f"resilience.{k}": v for k, v in stage.items()},
        "dataflow.propagate_s": sum(s.duration for s in by_layer["dataflow"]
                                    if s.name == "propagate_intervals"),
        "dataflow.lookback_s": sum(s.duration for s in by_layer["dataflow"]
                                   if s.name == "tighten_lookback"),
        "dataflow.undecided": _total(by_layer["dataflow"], "undecided"),
        "network.forward_s": sum(s.duration for s in by_layer["network"]),
        "trace.spans": len(spans),
        "trace.overhead_s": sum(s.overhead for s in spans),
        "trace.self_s": sum(own.values()),
    }
