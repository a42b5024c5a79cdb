"""Span tracing of the fink layers, installed from outside the library.

Each public function of a layer is replaced at run time by a wrapper that
records one span per call: name, start, end, parent span and op id.  The
library imports names directly (``from .span import intersect_spans``), so
every module binding of a wrapped object is replaced, not only the defining
one.  Spans stay in compact arrays in memory and are written out once, when
the run ends.

The library is single-threaded and no layer waits on another, so a span's
time is busy time; self time is a span's duration minus its direct children.
"""

from __future__ import annotations

import gzip
import importlib
import sys
import time
from array import array

# layer -> names traced in that layer; "Class.method" wraps a method.
LAYERS = {
    "blocks": ("tetris", "add", "star", "peak", "Subblock.from_pairs", "Subblock.parse_body"),
    "span": (
        "evaluate", "enumerate_span", "membership_witness", "intersect_spans",
        "first_common_element", "valuation", "BlockSequence.parse_file",
    ),
    "streams": ("Stream.truncate", "parse_stream_spec"),
    "structure": (
        "decomposition_graph", "settle_intertwined", "extract_intertwined",
        "star_split", "smallness_check",
    ),
    "diagonal": ("validate_family", "choose_next", "run_diagonalization"),
    "cli": ("main",),
}

# Counters computed from a call's arguments and outcome by ``_count``.
COUNTERS = (
    "span.two_span.combinations",
    "span.two_span.common_found",
    "span.cap_exceeded",
    "streams.truncate.blocks",
    "structure.extract.prefixes_tried",
    "diagonal.stability_checks",
)
# the spans whose calls feed those counters
_COUNTED = frozenset((
    "span.enumerate_span", "span.intersect_spans", "span.first_common_element",
    "streams.truncate", "structure.extract_intertwined", "diagonal.run_diagonalization",
))


def span_names():
    """Every traced span name, ``<layer>.<function>``."""
    return [f"{layer}.{attr.rpartition('.')[2]}" for layer, attrs in LAYERS.items() for attr in attrs]


def _unstarred_combinations(left, right):
    # the cheaper side is enumerated: (k+1)^N assignments minus the k^N
    # that use no exponent 0
    n = min(len(left), len(right))
    return (left.k + 1) ** n - left.k ** n


def _count(api, name, args, result, exc, counters):
    if isinstance(exc, api.EnumerationCapExceeded):
        if name in ("span.enumerate_span", "span.intersect_spans", "span.first_common_element"):
            counters["span.cap_exceeded"] += 1
        return
    if exc is not None:
        return
    if name == "span.intersect_spans":
        counters["span.two_span.combinations"] += _unstarred_combinations(args[0], args[1])
        counters["span.two_span.common_found"] += len(result)
    elif name == "span.first_common_element":
        # only scans that ran to completion: an early hit stops the scan
        if result is None:
            counters["span.two_span.combinations"] += _unstarred_combinations(args[0], args[1])
    elif name == "streams.truncate":
        counters["streams.truncate.blocks"] += len(result)
    elif name == "structure.extract_intertwined":
        counters["structure.extract.prefixes_tried"] += result.prefix_length
    elif name == "diagonal.run_diagonalization":
        counters["diagonal.stability_checks"] += sum(len(step.checks) for step in result.steps)


class Tracer:
    """Records spans of wrapped library calls; ``op`` tags the spans of one op."""

    def __init__(self):
        self.names = span_names()
        self.name_id = array("i")
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("i")
        self.ops = array("i")
        self.stack = [-1]
        self.op = -1
        self.counters = dict.fromkeys(COUNTERS, 0)

    def _wrap(self, api, name, fn):
        nid = self.names.index(name)
        name_id, starts, ends, parents, ops = (
            self.name_id, self.starts, self.ends, self.parents, self.ops,
        )
        stack, counters, clock = self.stack, self.counters, time.perf_counter_ns
        tracer = self
        counted = name in _COUNTED

        def traced(*args, **kwargs):
            index = len(starts)
            name_id.append(nid)
            parents.append(stack[-1])
            ops.append(tracer.op)
            ends.append(0)
            stack.append(index)
            starts.append(clock())
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as error:
                exc = error
                raise
            finally:
                ends[index] = clock()
                stack.pop()
                if counted:
                    _count(api, name, args, result, exc, counters)

        return traced

    def install(self, api):
        """Wrap every traced name in every loaded ``fink`` module."""
        homes = {layer: importlib.import_module(f"fink.{layer}") for layer in LAYERS}
        modules = [m for n, m in sys.modules.items() if n == "fink" or n.startswith("fink.")]
        for layer, attrs in LAYERS.items():
            home = homes[layer]
            for attr in attrs:
                name = f"{layer}.{attr.rpartition('.')[2]}"
                owner_name, _, method = attr.rpartition(".")
                if owner_name:
                    owner = getattr(home, owner_name)
                    raw = owner.__dict__[method]
                    if isinstance(raw, classmethod):
                        setattr(owner, method, classmethod(self._wrap(api, name, raw.__func__)))
                    else:
                        setattr(owner, method, self._wrap(api, name, raw))
                    continue
                original = getattr(home, attr)
                wrapped = self._wrap(api, name, original)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapped)

    def aggregate(self):
        """Per-name call counts and self time (ns) over spans of ops >= 0."""
        count = len(self.starts)
        self_ns = array("q", (self.ends[i] - self.starts[i] for i in range(count)))
        for i in range(count):
            parent = self.parents[i]
            if parent >= 0:
                self_ns[parent] -= self.ends[i] - self.starts[i]
        calls = dict.fromkeys(self.names, 0)
        selfs = dict.fromkeys(self.names, 0)
        for i in range(count):
            if self.ops[i] >= 0:
                name = self.names[self.name_id[i]]
                calls[name] += 1
                selfs[name] += self_ns[i]
        return calls, selfs

    def write(self, path):
        """Write every span as ``name start_ns end_ns parent op`` lines (gzip)."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("# name\tstart_ns\tend_ns\tparent\top\n")
            for i in range(len(self.starts)):
                out.write(
                    f"{self.names[self.name_id[i]]}\t{self.starts[i]}\t{self.ends[i]}"
                    f"\t{self.parents[i]}\t{self.ops[i]}\n"
                )
