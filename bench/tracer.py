"""Run one kech command in this process with every layer's entry points timed.

Usage: PYTHONPATH=src python3 bench/tracer.py <kech arguments...>

The command's output goes to stdout exactly as `kech` prints it.  After it
returns, one line ``TRACE <json>`` goes to stderr with the spans and counters;
the process then exits with the command's exit code.

Wrappers are installed on the module attributes that callers actually look up
(``from .x import f`` copies the function into the importing module), so each
layer is timed at every call site on a CLI path.  ``kech.indexes`` is on no
CLI path and is not wrapped.  The source tree itself is left unchanged.

A span is (name, start, end, parent).  Hot functions -- validate,
region_points and the differential, called tens of thousands of times --
keep a call count and busy time instead of one span per call.  Busy time of
a group counts only its outermost call, so recursion or nesting inside one
group is not counted twice.  Spans stay in memory and are written out once,
when the command has returned.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

PREFIX = "TRACE "


class Tracer:
    """Spans, per-group busy time and work counters of one traced command."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index]
        self.open = [-1]         # indexes of open spans; -1 is the root
        self.child_s = [0.0]     # time covered by direct children, per open frame
        self.depth = {}          # group -> open calls
        self.busy = {}           # group -> outermost busy seconds
        self.calls = {}          # group -> calls
        self.counts = {}         # counter name -> value
        self.distinct = {}       # group -> set of distinct first arguments

    def add(self, name, value):
        self.counts[name] = self.counts.get(name, 0) + value

    def _enter(self, group):
        self.depth[group] = self.depth.get(group, 0) + 1
        self.calls[group] = self.calls.get(group, 0) + 1
        self.child_s.append(0.0)

    def _leave(self, group, elapsed):
        """Close one call; returns the time its direct children covered."""
        child_s = self.child_s.pop()
        self.child_s[-1] += elapsed
        self.depth[group] -= 1
        if not self.depth[group]:
            self.busy[group] = self.busy.get(group, 0.0) + elapsed
        return child_s

    def wrap(self, fn, group, *, hot=False, on_call=None, on_result=None):
        """fn timed as one call of `group`; hooks see its arguments/result.

        Every call counts towards the group's calls, busy time and self time
        (``<group>.self_s``); only calls of non-hot functions leave a span.
        """
        tracer = self

        def traced(*args, **kwargs):
            if on_call is not None:
                args, kwargs = on_call(args, kwargs)
            if not hot:
                span = [group, 0.0, 0.0, tracer.open[-1]]
                tracer.spans.append(span)
                tracer.open.append(len(tracer.spans) - 1)
            tracer._enter(group)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                child_s = tracer._leave(group, end - start)
                tracer.add(group + ".self_s", end - start - child_s)
                if not hot:
                    span[1], span[2] = start, end
                    tracer.open.pop()
            if on_result is not None:
                on_result(args, result)
            return result

        return traced

    def report(self):
        return {"spans": self.spans, "busy": self.busy, "calls": self.calls,
                "counts": self.counts,
                "distinct": {g: len(s) for g, s in self.distinct.items()}}


def install(tracer):
    """Wrap the layer entry points of every kech module on a CLI path."""
    import kech.census
    import kech.cli
    import kech.diff
    import kech.homology
    import kech.spectrum
    import kech.toric

    def patch(module, name, group, **hooks):
        fn = getattr(module, name, None)
        if fn is not None:
            setattr(module, name, tracer.wrap(fn, group, **hooks))

    def count_scan(pass_counters, emit_counters):
        """Count a scan_generators pass and every generator it emits."""
        def on_call(args, kwargs):
            for name in pass_counters:
                tracer.add(name, 1)
            args = list(args)
            inner = args[1] if len(args) > 1 else kwargs["emit"]

            def emit(*a):
                for name in emit_counters:
                    tracer.counts[name] = tracer.counts.get(name, 0) + 1
                return inner(*a)

            if len(args) > 1:
                args[1] = emit
            else:
                kwargs = dict(kwargs, emit=emit)
            return tuple(args), kwargs
        return on_call

    # census: both modes of the generator scan, wherever it is looked up
    for module in (kech.cli, kech.homology):
        patch(module, "generators_up_to_action", "census.scan")
    patch(kech.census, "scan_generators", "census.scan",
          on_call=count_scan(("census.scans",), ("census.generators",)))
    patch(kech.spectrum, "scan_generators", "census.scan",
          on_call=count_scan(("census.scans", "spectrum.scan_passes"),
                             ("census.generators", "spectrum.emits")))

    # diff: the differential at every call site
    distinct = tracer.distinct.setdefault("diff.differential", set())

    def on_differential(args, result):
        distinct.add(args[0])
        tracer.add("diff.terms", len(result))

    for module in (kech.cli, kech.homology, kech.census):
        patch(module, "differential", "diff.differential", hot=True,
              on_result=on_differential)

    # paths: validity and region points as called from diff and cli
    for module in (kech.diff, kech.cli):
        patch(module, "validate", "paths.validate", hot=True)
    patch(kech.diff, "region_points", "paths.region_points", hot=True)

    # homology: the GF(2) rank
    def on_rank(args, result):
        tracer.add("homology.rank_columns", len(args[0].columns))
        tracer.add("homology.rank", result)

    patch(kech.homology, "gf2_rank", "homology.rank", on_result=on_rank)
    # spans only, so that cli.self_s leaves out the work of these layers
    for name in ("d_squared_report", "betti"):
        patch(kech.cli, name, "homology.complex")
    patch(kech.cli, "gromov_upper", "toric.gromov")

    # spectrum: the capacity searches
    for name in ("capacity", "weyl_series"):
        patch(kech.cli, name, "spectrum.search")
    patch(kech.spectrum, "capacity_series", "spectrum.search")

    # toric: h=0 capacity search, flexible-h search, obstruction, partitions
    patch(kech.cli, "toric_capacity_detail", "toric.capacity")
    patch(kech.toric, "admissible_min_action", "toric.admissible")
    patch(kech.cli, "embedding_obstructed", "toric.obstruct")
    patch(kech.toric, "factorizations", "toric.factorizations",
          on_result=lambda args, result: tracer.add("toric.factorizations",
                                                    len(result)))

    return tracer.wrap(kech.cli.main, "cli")


def main(argv):
    tracer = Tracer()
    code = install(tracer)(argv)
    sys.stdout.flush()
    sys.stderr.write(PREFIX + json.dumps(tracer.report()) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
