"""Per-layer tracing of fracpart from outside the program.

`install()` replaces each traced function at every binding a caller looks up:
the defining module's attribute and any other `fracpart` module that imported
it by name (for example `circle` imports `bessel_i` from `numkernel`, so both
`fracpart.numkernel.bessel_i` and `fracpart.circle.bessel_i` are wrapped).
The package itself is not modified.

Each call opens a span. A span's self time is its duration minus the time of
the traced spans it directly caused. Per function the tracer keeps the call
count and the summed total and self time. Spans are also kept as records
(id, parent id, query index, start, end, self time) and written out when the
pass ends. The leaf functions in LEAVES run hundreds of thousands of times per
query, so they get no record of their own: they are aggregated, per parent
span, into that parent's record.
"""

from __future__ import annotations

import importlib
import json
import sys
from time import perf_counter

# layer.function, in the order the per-layer metrics are listed
TRACED = (
    "cli.main",
    "oracle.coeffs",
    "numkernel.bessel_i",
    "circle.dedekind_sum",
    "circle.inverse_neg",
    "circle.kloosterman",
    "circle.circle_point",
    "circle.partial_series",
    "circle.tail_bound",
    "circle.tail_constant",
    "circle.exact_value",
    "circle.guaranteed_terms",
    "circle.empirical_min_terms",
    "jensen.hyperbolicity_threshold",
    "jensen.jensen_poly",
    "jensen.is_hyperbolic",
)

LEAVES = frozenset({"circle.dedekind_sum", "circle.inverse_neg"})


class _Stats:
    __slots__ = ("calls", "total", "self")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self = 0.0


class Tracer:
    """Span stack, per-function totals and the argument facts the ratios need."""

    def __init__(self):
        self.stats = {name: _Stats() for name in TRACED}
        self.records = []
        self.query = -1
        self._stack = []          # open spans: [record or None, child time]
        self._next_id = 0
        self.kloosterman_keys = set()
        self.dedekind_keys = set()
        self.coeff_values = 0
        self.numeric_calls = 0

    # -- argument facts -----------------------------------------------------

    def _note_args(self, name, args, kwargs):
        if name == "circle.kloosterman":
            alpha, n, m, k = args[:4]
            self.kloosterman_keys.add((str(alpha), n, m, k))
        elif name == "circle.dedekind_sum":
            self.dedekind_keys.add((args[0], args[1]))
        elif name == "oracle.coeffs":
            n_max = args[1] if len(args) > 1 else kwargs["N"]
            self.coeff_values += n_max + 1
        elif name == "jensen.is_hyperbolic":
            mode = args[1] if len(args) > 1 else kwargs.get("mode", "exact")
            if mode == "numeric":
                self.numeric_calls += 1

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, name, fn):
        stats = self.stats[name]
        stack = self._stack
        leaf = name in LEAVES

        def traced(*args, **kwargs):
            self._note_args(name, args, kwargs)
            if leaf:
                record = None
            else:
                self._next_id += 1
                record = {
                    "id": self._next_id,
                    "parent": self._parent_id(),
                    "query": self.query,
                    "name": name,
                }
            frame = [record, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dt = t1 - t0
                own = dt - frame[1]
                stats.calls += 1
                stats.total += dt
                stats.self += own
                if stack:
                    parent = stack[-1]
                    parent[1] += dt
                    if leaf:
                        self._aggregate_leaf(parent[0], name, dt)
                if record is not None:
                    record["start"] = t0
                    record["end"] = t1
                    record["self"] = own
                    self.records.append(record)

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def _parent_id(self):
        for record, _ in reversed(self._stack):
            if record is not None:
                return record["id"]
        return None

    @staticmethod
    def _aggregate_leaf(parent_record, name, dt):
        if parent_record is None:
            return
        leaves = parent_record.setdefault("leaves", {})
        agg = leaves.setdefault(name, [0, 0.0])
        agg[0] += 1
        agg[1] += dt

    def install(self):
        """Wrap every TRACED function at each fracpart binding of it."""
        for name in TRACED:
            layer, func = name.split(".")
            home = importlib.import_module("fracpart." + layer)
            original = getattr(home, func)
            wrapped = self._wrap(name, original)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "fracpart" or mod_name.startswith("fracpart.")):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapped)

    # -- results ------------------------------------------------------------

    def summary(self) -> dict:
        """Per-function calls and self time plus the ratio metrics."""
        out = {}
        for name in TRACED:
            s = self.stats[name]
            out[name + ".calls"] = s.calls
            out[name + ".self_s"] = s.self
            out[name + ".total_s"] = s.total

        def ratio(num, den):
            return num / den if den else 0.0

        out["circle.kloosterman.unique_ratio"] = ratio(
            len(self.kloosterman_keys), self.stats["circle.kloosterman"].calls)
        out["circle.dedekind_sum.unique_ratio"] = ratio(
            len(self.dedekind_keys), self.stats["circle.dedekind_sum"].calls)
        out["oracle.coeffs.values"] = self.coeff_values
        out["jensen.is_hyperbolic.numeric_share"] = ratio(
            self.numeric_calls, self.stats["jensen.is_hyperbolic"].calls)
        return out

    def write_spans(self, path: str):
        with open(path, "w") as fh:
            for record in self.records:
                fh.write(json.dumps(record) + "\n")
