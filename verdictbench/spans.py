"""In-memory spans for the traced benchmark run, and the self-time arithmetic.

A span is (name, start, end, parent, run id).  The recorder keeps spans in
compact arrays while the suite runs and writes them out only when the traced
process ends, so recording costs two clock reads and a few appends per call.
Counters (cells, columns, output terms, distinct keys) are summed per span
name as the calls return.
"""

import array
import functools
import json
import time


class Recorder:
    """Collects the spans and counters of one traced process."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.table = []         # span names; spans store an index into it
        self.name = array.array("H")
        self.start = array.array("d")
        self.end = array.array("d")
        self.parent = array.array("q")
        self.totals = {}        # span name -> {counter: sum}
        self.keys = {}          # span name -> set of distinct keys
        self._stack = []

    def wrap(self, name, fn, count=None):
        """Return fn wrapped in a span.  count(args, kwargs, result), if
        given, returns a dict of numeric counters for the call; the entry
        "key", if present, is collected into a set of distinct keys instead.
        count runs after the span has closed, so its cost lands in the
        parent span."""
        code = len(self.table)
        self.table.append(name)
        names, starts, ends, parents = self.name, self.start, self.end, \
            self.parent
        stack = self._stack
        totals = self.totals.setdefault(name, {})
        keys = self.keys.setdefault(name, set())
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(code)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if count is not None:
                for k, v in count(args, kwargs, result).items():
                    if k == "key":
                        keys.add(v)
                    else:
                        totals[k] = totals.get(k, 0) + v
            return result

        return traced

    def write(self, path):
        """Write every span: a JSON header line, then the raw columns."""
        header = {"run": self.run_id, "spans": len(self.name),
                  "names": self.table,
                  "columns": [[c, getattr(self, c).typecode]
                              for c in COLUMNS]}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for c in COLUMNS:
                getattr(self, c).tofile(fh)


COLUMNS = ("name", "start", "end", "parent")


def load(path):
    """Read a file written by Recorder.write: the header dict with one array
    per column added under its name ("name" indexes header["names"];
    "parent" is a span index or -1; times are time.perf_counter seconds)."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        for c, code in header["columns"]:
            col = array.array(code)
            col.fromfile(fh, header["spans"])
            header[c] = col
    return header


def self_times(start, end, parent):
    """Each span's duration minus the part of it covered by its children.

    Spans are given as parallel sequences; parent holds the index of the
    enclosing span or -1.  Children are clipped to their parent's interval
    and overlapping children are merged, so no stretch of time is counted
    twice.
    """
    n = len(start)
    covered = [0.0] * n
    reached = list(start)   # how far each span's covered part extends
    for idx in sorted(range(n), key=start.__getitem__):
        par = parent[idx]
        if par < 0:
            continue
        a = max(start[idx], reached[par])
        b = min(end[idx], end[par])
        if b > a:
            covered[par] += b - a
            reached[par] = b
    return [end[i] - start[i] - covered[i] for i in range(n)]


def by_name(rec):
    """Per span name: calls, summed self time, inclusive time (spans nested
    in a span of the same name counted once), summed counters and the
    number of distinct keys."""
    out = {nm: dict(rec.totals[nm], calls=0, self_s=0.0, total_s=0.0,
                    distinct=len(rec.keys[nm])) for nm in rec.table}
    names, parent = rec.name, rec.parent
    selfs = self_times(rec.start, rec.end, parent)
    for idx, code in enumerate(names):
        agg = out[rec.table[code]]
        agg["calls"] += 1
        agg["self_s"] += selfs[idx]
        up = parent[idx]
        while up >= 0 and names[up] != code:
            up = parent[up]
        if up < 0:
            agg["total_s"] += rec.end[idx] - rec.start[idx]
    return out
