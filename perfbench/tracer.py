"""In-memory span tracer for the coevnet benchmark.

The tracer wraps functions of the coevnet package from the outside: every
place a wrapped function is bound (its home module, the modules that
imported it by name, the package root) gets the wrapper, and ``restore``
puts every original back.  Nothing under ``src/`` is edited.

A span is the list ``[name, parent, start, end, counters, counter_s]``.
``parent`` is the index of the enclosing span (-1 at the top) and
``counter_s`` is the time spent computing the span's counters after it
ended; that time is charged to the benchmark, not to the caller.  Spans
stay in memory until ``Summary`` or ``dump`` reads them.
"""

from __future__ import annotations

import copy
import json
import sys
import time
from collections import defaultdict

NAME, PARENT, START, END, COUNTERS, COUNTER_S = range(6)


class Tracer:
    """Records nested spans and the counters attached to them."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def take(self) -> list[list]:
        """Return the spans recorded so far and start a new list."""
        if self._stack:
            raise RuntimeError("cannot take spans while a span is open")
        spans, self.spans = self.spans, []
        return spans

    def wrap(self, fn, name: str, counters=None, prepare=None):
        """Return ``fn`` wrapped in a span called ``name``.

        ``prepare(args, kwargs) -> (args, kwargs, state)`` may rewrite the
        call; ``counters(state, args, kwargs, result) -> dict`` runs after
        the span ends and its time is recorded as bookkeeping.
        """
        tracer = self
        stack = self._stack
        clock = self.clock

        def traced(*args, **kwargs):
            state = None
            if prepare is not None:
                args, kwargs, state = prepare(args, kwargs)
            spans = tracer.spans
            rec = [name, stack[-1] if stack else -1, 0.0, 0.0, None, 0.0]
            spans.append(rec)
            stack.append(len(spans) - 1)
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if counters is not None:
                rec[COUNTERS] = counters(state, args, kwargs, result)
                rec[COUNTER_S] = clock() - rec[END]
            return result

        traced.__wrapped__ = fn
        return traced

    # -- patching ----------------------------------------------------------

    def patch(self, fn, name: str, package: str = "coevnet", impl=None, **wrap_kw) -> int:
        """Replace ``fn`` by its traced wrapper wherever ``package`` binds it.

        ``impl`` is what the wrapper calls (default ``fn`` itself).  Returns the number of bindings replaced; zero means ``fn`` is not
        bound anywhere in the package, which is an error in the caller's
        layer table.
        """
        wrapper = self.wrap(impl or fn, name, **wrap_kw)
        count = 0
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == package or mod_name.startswith(package + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._patched.append((mod, attr, fn))
                    setattr(mod, attr, wrapper)
                    count += 1
        if count == 0:
            raise LookupError(f"{name}: function is not bound in any {package} module")
        return count

    def restore(self) -> None:
        """Put back every binding replaced by ``patch``, newest first."""
        while self._patched:
            mod, attr, original = self._patched.pop()
            setattr(mod, attr, original)

    def instrument_model(self, model):
        """Copy of a frozen ``SmoothModel`` whose U and V are traced.

        The copy skips ``__post_init__``, so the model's own probe
        evaluations are not counted.
        """
        traced = copy.copy(model)
        object.__setattr__(traced, "U", self.wrap(model.U, "models.U", counters=_u_elements))
        object.__setattr__(traced, "V", self.wrap(model.V, "models.V", counters=_v_elements))
        return traced


def dump(spans: list[list], path: str) -> None:
    """Write spans as JSON lines: id, parent, name, start, end, counters."""
    with open(path, "w") as f:
        for i, s in enumerate(spans):
            f.write(json.dumps([i, s[PARENT], s[NAME], s[START], s[END], s[COUNTERS] or {}]))
            f.write("\n")


def _u_elements(state, args, kwargs, result):
    return {"elements": result.size // result.shape[-1]}


def _v_elements(state, args, kwargs, result):
    return {"elements": result.size}


class Summary:
    """Per-name and per-layer totals of one list of spans.

    * ``calls[name]``: number of spans with that name;
    * ``busy[name]``: inclusive time of the outermost spans of that name
      (a span nested in a span of the same name is not counted twice);
    * ``self_s[name]``: duration minus the time covered by child spans and
      by their counter bookkeeping;
    * ``count[name][key]``: sum of a counter over all spans of that name;
    * ``under[(name, ancestor)]``: number of spans of ``name`` that have an
      ancestor called ``ancestor`` (only for the ancestors asked for);
    * ``layer_self[layer]``: self time summed over names ``layer.*``;
      counter bookkeeping is charged to the layer ``bench``.
    """

    def __init__(self, spans: list[list], ancestors=()):
        n = len(spans)
        self.calls: dict[str, int] = defaultdict(int)
        self.busy: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.count: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.under: dict[tuple[str, str], int] = defaultdict(int)
        self.layer_self: dict[str, float] = defaultdict(float)
        covered = [0.0] * n
        # names of the ancestors of each span, interned because most spans
        # share a handful of paths
        path: list[frozenset] = [frozenset()] * n
        interned: dict[tuple[frozenset, str], frozenset] = {}
        for i, s in enumerate(spans):
            p = s[PARENT]
            if p >= 0:
                covered[p] += (s[END] - s[START]) + s[COUNTER_S]
                key = (path[p], spans[p][NAME])
                if key not in interned:
                    interned[key] = key[0] | {key[1]}
                path[i] = interned[key]
        bookkeeping = 0.0
        for i, s in enumerate(spans):
            name = s[NAME]
            dur = s[END] - s[START]
            own = dur - covered[i]
            self.calls[name] += 1
            self.self_s[name] += own
            self.layer_self[name.split(".", 1)[0]] += own
            bookkeeping += s[COUNTER_S]
            if name not in path[i]:
                self.busy[name] += dur
            if s[COUNTERS]:
                for key, val in s[COUNTERS].items():
                    self.count[name][key] += val
            for anc in ancestors:
                if anc in path[i]:
                    self.under[(name, anc)] += 1
        self.layer_self["bench"] += bookkeeping
