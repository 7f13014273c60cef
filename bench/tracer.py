"""Spans and counters recorded at the package's module boundaries.

Each layer is measured from outside.  Its public functions are replaced, at
the module attributes their callers reach them through, by wrappers that
record a span, time a leaf call or count calls.  No program file changes:
the wrappers exist only inside a benchmark worker process.

A span records (id, name, parent id, start, end, leaf time).  Leaf calls are
too frequent to keep one record each (the shadow sum makes hundreds of
thousands of fusion lookups), so each is timed and its time added to the
span that made it, in the ``leaf_s`` field.  A span's self time is its
duration minus the durations of its child spans minus its ``leaf_s``.
"""

from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

# (module, attribute, layer name, kind).  "span" records a span, "leaf"
# times the call without a span record, "count" only counts calls.
LAYERS = (
    ("statesum", "fusion_coefficient", "lie.fusion", "leaf"),
    ("cli", "fusion_coefficient", "lie.fusion", "leaf"),
    ("statesum", "weight_multiplicities", "lie.weights", "span"),
    ("statesum", "level_labels", "lie.labels", "span"),
    ("cli", "level_labels", "lie.labels", "span"),
    ("statesum", "lattice_points_in_scaled_box", "lie.lattice", "span"),
    ("statesum", "is_regular", "lie.regular", "count"),
    ("statesum", "sine_product", "lie.sine", "count"),
    # one call per evaluated summand: a regular holonomy term, or a shadow
    # coloring whose fusion product is nonzero
    ("statesum", "_phase", "statesum.phase", "count"),
    ("statesum", "wlo_unnormalized", "statesum.wlo", "span"),
    ("cli", "wlo_unnormalized", "statesum.wlo", "span"),
    ("statesum", "shadow_invariant", "statesum.shadow", "span"),
    ("cli", "shadow_invariant", "statesum.shadow", "span"),
    ("cli", "compare_theorem", "statesum.compare", "span"),
    ("cli", "embed_link", "statesum.embed", "span"),
    ("statesum", "validate_link", "statesum.validate", "span"),
    # embedded-mode holonomy sums re-derive the face structure through it
    ("statesum", "_EmbeddedFaces", "statesum.validate", "span"),
    ("statesum", "build_standard_surface", "complex.surface", "span"),
    ("cli", "build_standard_surface", "complex.surface", "span"),
    ("complex", "build_standard_surface", "complex.surface", "span"),
    ("cli", "kernel_check_B0", "complex.kernel_check", "span"),
    ("complex", "kernel_check_B0", "complex.kernel_check", "span"),
    ("complex", "rational_rref", "complex.rref", "span"),
    ("cli", "det_twisted_restricted", "discrete.det", "span"),
    ("cli", "det_block", "discrete.det", "span"),
    ("cli", "epsilon_oracle", "oscillatory.oracle", "span"),
    ("cli", "selfcheck", "cli.selfcheck", "span"),
    ("cli", "parse_config", "cli.parse", "span"),
    ("cli", "_emit", "cli.emit", "span"),
)

class Tracer:
    """In-memory spans, per-layer totals and call counts of one process.

    With timed=False only the result hooks are installed, so the
    untraced run pays for nothing but the census capture.
    """

    def __init__(self, timed):
        self.timed = timed
        self.spans = []
        # open spans: [id, name, parent id, start, child_s, leaf_s]
        self.stack = []
        self.total = defaultdict(float)   # outermost spans of a name only
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.within = defaultdict(int)    # (counted name, enclosing span name)
        self.distinct = defaultdict(set)
        self.sums = defaultdict(int)      # quantities read off call arguments
        self._depth = defaultdict(int)
        self._next_id = 0
        self._undo = []

    # -- spans -------------------------------------------------------------

    def open(self, name):
        parent = self.stack[-1][0] if self.stack else None
        frame = [self._next_id, name, parent, perf_counter(), 0.0, 0.0]
        self._next_id += 1
        self._depth[name] += 1
        self.stack.append(frame)
        return frame

    def close(self, frame):
        end = perf_counter()
        self.stack.pop()
        sid, name, parent, start, child_s, leaf_s = frame
        dur = end - start
        self.calls[name] += 1
        self.self_s[name] += dur - child_s - leaf_s
        self._depth[name] -= 1
        if not self._depth[name]:
            self.total[name] += dur
        if self.stack:
            self.stack[-1][4] += dur
        self.spans.append((sid, name, parent, start, end, leaf_s))

    @contextmanager
    def span(self, name):
        """A span around a block: the benchmark's own pass and item spans."""
        if not self.timed:
            yield
            return
        frame = self.open(name)
        try:
            yield
        finally:
            self.close(frame)

    # -- wrappers ----------------------------------------------------------

    def install(self, module, attr, name, kind, on_result=None):
        """Replace module.attr by a recording wrapper; undone by restore()."""
        orig = getattr(module, attr)
        if not self.timed:
            if on_result is None:
                return

            def wrapper(*args, **kwargs):
                result = orig(*args, **kwargs)
                on_result(args, result)
                return result
        elif kind == "span":
            def wrapper(*args, **kwargs):
                frame = self.open(name)
                try:
                    result = orig(*args, **kwargs)
                finally:
                    self.close(frame)
                if on_result is not None:
                    on_result(args, result)
                return result
        elif kind == "leaf":
            total, self_s, calls, stack = (self.total, self.self_s,
                                           self.calls, self.stack)

            def wrapper(*args, **kwargs):
                start = perf_counter()
                result = orig(*args, **kwargs)
                dur = perf_counter() - start
                total[name] += dur
                self_s[name] += dur
                calls[name] += 1
                if stack:
                    stack[-1][5] += dur
                if on_result is not None:
                    on_result(args, result)
                return result
        elif kind == "count":
            calls, within, stack = self.calls, self.within, self.stack

            def wrapper(*args, **kwargs):
                calls[name] += 1
                within[name, stack[-1][1] if stack else None] += 1
                return orig(*args, **kwargs)
        else:
            raise ValueError(f"unknown wrapper kind {kind!r}")
        self._undo.append((module, attr, orig))
        setattr(module, attr, wrapper)

    def restore(self):
        while self._undo:
            module, attr, orig = self._undo.pop()
            setattr(module, attr, orig)

    # -- export ------------------------------------------------------------

    def span_records(self):
        return [{"id": sid, "name": name, "parent": parent, "start": start,
                 "end": end, "leaf_s": leaf_s}
                for sid, name, parent, start, end, leaf_s in self.spans]


def install_layers(tracer, modules, census):
    """Wrap every boundary of LAYERS; state sum results go to census.

    modules maps the short module names used in LAYERS to the imported
    modules.  census receives (kind, series, level, colors, terms_total,
    terms_skipped_singular) for every holonomy ("wlo") and shadow sum.
    """
    def state_sum_hook(kind):
        def hook(args, result):
            lie, k, link = args[:3]
            census.append((kind, lie.series, int(k),
                           tuple(r.color for r in link.ribbons),
                           result.terms_total, result.terms_skipped_singular))
        return hook

    def fusion_hook(args, result):
        lie, k, mu, nu, lam = args
        tracer.distinct["lie.fusion"].add((lie.series, k, mu, nu, lam))
        if result:
            tracer.sums["lie.fusion_nonzero"] += 1

    def kernel_hook(args, result):
        tracer.sums["complex.qk_vertices"] += len(args[0].qk_vertices)

    hooks = {"statesum.wlo": state_sum_hook("wlo"),
             "statesum.shadow": state_sum_hook("shadow")}
    if tracer.timed:
        hooks.update({"lie.fusion": fusion_hook,
                      "complex.kernel_check": kernel_hook})
    for module, attr, name, kind in LAYERS:
        tracer.install(modules[module], attr, name, kind, hooks.get(name))


def layer_metrics(tracer, census, noise_certs):
    """Per-layer metrics of one traced worker; see README.md for each."""
    t, s, c = tracer.total, tracer.self_s, tracer.calls
    wlo = [x for x in census if x[0] == "wlo"]
    shadow = [x for x in census if x[0] == "shadow"]
    wlo_terms = sum(x[4] for x in wlo)
    wlo_regular = sum(x[4] - x[5] for x in wlo)
    shadow_terms = sum(x[4] for x in shadow)
    useful = tracer.within["statesum.phase", "statesum.shadow"]

    def ratio(num, den):
        return num / den if den else 0.0

    return {
        "lie.fusion_s": t["lie.fusion"],
        "lie.fusion_calls": c["lie.fusion"],
        "lie.fusion_distinct": len(tracer.distinct["lie.fusion"]),
        "lie.fusion_nonzero_ratio": ratio(tracer.sums["lie.fusion_nonzero"],
                                          c["lie.fusion"]),
        "lie.weights_s": t["lie.weights"],
        "lie.labels_s": t["lie.labels"],
        "lie.lattice_s": t["lie.lattice"],
        "lie.regular_checks": c["lie.regular"],
        "lie.sine_products": c["lie.sine"],
        "statesum.wlo_s": t["statesum.wlo"],
        "statesum.wlo_self_s": s["statesum.wlo"],
        "statesum.wlo_terms": wlo_terms,
        "statesum.wlo_regular_ratio": ratio(wlo_regular, wlo_terms),
        "statesum.shadow_s": t["statesum.shadow"],
        "statesum.shadow_self_s": s["statesum.shadow"],
        "statesum.shadow_terms": shadow_terms,
        "statesum.shadow_useful_ratio": ratio(useful, shadow_terms),
        "statesum.compare_s": t["statesum.compare"],
        "statesum.noise_certs": noise_certs,
        "statesum.embed_s": t["statesum.embed"],
        "statesum.validate_s": t["statesum.validate"],
        "complex.surface_s": t["complex.surface"],
        "complex.kernel_check_s": t["complex.kernel_check"],
        "complex.rref_s": t["complex.rref"],
        "complex.qk_vertices": tracer.sums["complex.qk_vertices"],
        "discrete.det_s": t["discrete.det"],
        "oscillatory.oracle_s": t["oscillatory.oracle"],
        "cli.selfcheck_s": t["cli.selfcheck"],
        "cli.parse_s": t["cli.parse"],
        "cli.emit_s": t["cli.emit"],
    }
