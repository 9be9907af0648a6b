"""Spans recorded from outside the program, around calls into each layer.

A layer is a lieclass module; its public functions are listed in SPANS.
Installing a Tracer replaces every lieclass module attribute bound to one
of those function objects with a recording wrapper.  Modules that did
``from .rank import rank_modp`` hold their own binding, so patching only
``lieclass.rank`` would miss the oracle's calls; every binding is patched,
and every one is restored on exit.

Spans are kept in memory as flat lists (name, parent, start, end) and are
reduced to per-layer metrics, or written out, after the traced pass.  A
span's self time is its duration minus the durations of its child spans.
A few spans also record what their arguments or result say about the work
done (matrix shapes, entry sizes, verdicts), so work counts come from the
same boundaries as the times.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time

import numpy as np

# (module, function, span name, layer).  The calling layer of a span is the
# layer of its nearest ancestor span that belongs to another layer.
SPANS = (
    ("oracle", "is_spherical_flag", "oracle", "oracle"),
    ("oracle", "is_spherical_module", "oracle", "oracle"),
    ("oracle", "product_flag_complexity", "oracle", "oracle"),
    ("oracle", "levi_flag_complexity", "oracle", "oracle"),
    ("oracle", "sample_flag_point", "oracle.sample", "oracle.sample"),
    ("rank", "rank_modp", "rank.modp", "rank"),
    ("rank", "reduce_mod", "rank.reduce", "rank"),
    ("rank", "rank_exact", "rank.exact", "rank"),
    ("rank", "rank_capped", "rank.capped", "rank"),
    ("linalg", "matmul", "linalg.matmul", "linalg"),
    ("linalg", "rref", "linalg.rref", "linalg"),
    ("linalg", "nullspace", "linalg.nullspace", "linalg"),
    ("algebras", "normalizer_dim", "algebras.normalizer_dim", "algebras"),
    ("algebras", "make_algebra", "algebras.make_algebra", "algebras"),
    ("algebras", "representation", "algebras.representation", "algebras"),
    ("sphericaltable", "is_spherical_module_by_table", "sphericaltable.table", "sphericaltable"),
    ("classifier", "classify_flag_datum", "classifier.classify", "classifier"),
    ("classifier", "datum_algebra", "classifier.datum_algebra", "classifier"),
    ("snmod", "pf_generators_span", "snmod.pf_span", "snmod"),
    ("snmod", "pf_ring_multiply", "snmod.multiply", "snmod"),
    ("cli", "run", "cli.run", "cli"),
)

RANK_CALLERS = ("oracle", "algebras")


def lieclass_modules():
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "lieclass" or name.startswith("lieclass."))
    ]


class Patch:
    """Rebind every lieclass module attribute that is one of the given
    function objects; ``restore`` puts each original back."""

    def __init__(self, replacements):
        self._by_id = {id(fn): (fn, new) for fn, new in replacements.items()}
        self.bindings = []  # (module, attribute, original)

    def install(self):
        for mod in lieclass_modules():
            for attr, value in list(vars(mod).items()):
                hit = self._by_id.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self.bindings.append((mod, attr, value))
        return self

    def restore(self):
        for mod, attr, original in reversed(self.bindings):
            setattr(mod, attr, original)
        self.bindings = []

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.restore()


def span_targets():
    """(function, span name, layer) for every entry of SPANS."""
    out = []
    for module, func, name, layer in SPANS:
        mod = importlib.import_module("lieclass." + module)
        out.append((getattr(mod, func), name, layer))
    return out


def _oracle_observation(fn):
    signature = inspect.signature(fn)

    def observe(args, kwargs, result):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        if isinstance(result, int):  # product/levi entry points return a complexity
            yes = result == 0
        else:
            yes = result.kind == "Yes"
        return (bound.arguments["samples"], yes, bound.arguments["seed"])

    return observe


def _modp_observation(args, kwargs, result):
    return np.shape(args[0])


def _reduce_observation(args, kwargs, result):
    return result.size


def _keep_rows(args, kwargs, result):
    # entry sizes are reduced after the pass, not inside the caller's span
    return args[0]


OBSERVERS = {
    "oracle": _oracle_observation,
    "rank.modp": lambda fn: _modp_observation,
    "rank.reduce": lambda fn: _reduce_observation,
    "rank.exact": lambda fn: _keep_rows,
}


class Tracer:
    """Records one span per call into a layer while installed."""

    def __init__(self):
        self.names = []  # span name per span
        self.name_ids = []
        self.parents = []
        self.starts = []
        self.ends = []
        self.observed = {}  # span index -> observation
        self.layers = {}  # span name -> layer
        self._stack = []
        self._patch = None

    def _wrapper(self, fn, name_id, make_observer):
        name_ids, parents, starts, ends = (
            self.name_ids,
            self.parents,
            self.starts,
            self.ends,
        )
        stack, observed, clock = self._stack, self.observed, time.perf_counter
        observe = make_observer(fn) if make_observer else None

        def wrapper(*args, **kwargs):
            idx = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if observe is not None:
                observed[idx] = observe(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        return wrapper

    def install(self):
        replacements = {}
        for fn, name, layer in span_targets():
            if name not in self.layers:
                self.layers[name] = layer
                self.names.append(name)
            replacements[fn] = self._wrapper(
                fn, self.names.index(name), OBSERVERS.get(name)
            )
        self._patch = Patch(replacements).install()
        return self

    def uninstall(self):
        self._patch.restore()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def __len__(self):
        return len(self.starts)

    def dump(self, path):
        """Write every span to a compressed .npz file."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.array(self.name_ids, dtype=np.int16),
            parent=np.array(self.parents, dtype=np.int64),
            start=np.array(self.starts),
            end=np.array(self.ends),
        )


def self_times(parents, starts, ends):
    """Per-span self time: duration minus the durations of child spans."""
    dur = [e - s for s, e in zip(starts, ends)]
    own = list(dur)
    for i, p in enumerate(parents):
        if p >= 0:
            own[p] -= dur[i]
    return own


def callers(tracer):
    """Calling layer of each span ('bench' for a top-level span)."""
    layer_of = [tracer.layers[n] for n in tracer.names]
    out = []
    for i, p in enumerate(tracer.parents):
        if p < 0:
            out.append("bench")
        else:
            mine = layer_of[tracer.name_ids[i]]
            theirs = layer_of[tracer.name_ids[p]]
            out.append(theirs if theirs != mine else out[p])
    return out


def _max_bits(rows):
    return max((abs(int(x)).bit_length() for row in rows for x in row), default=0)


def layer_report(tracer, wall_s):
    """Per-layer totals keyed by span name and by (span name, caller), plus
    work counts; everything as plain numbers for the result file."""
    own = self_times(tracer.parents, tracer.starts, tracer.ends)
    caller = callers(tracer)
    names = tracer.names
    calls, self_s = {}, {}
    for i, nid in enumerate(tracer.name_ids):
        for key in (names[nid], "%s.%s" % (names[nid], caller[i])):
            calls[key] = calls.get(key, 0) + 1
            self_s[key] = self_s.get(key, 0.0) + own[i]

    counts = {}

    def add(key, v):
        counts[key] = counts.get(key, 0) + v

    def top(key, v):
        counts[key] = max(counts.get(key, 0), v)

    capped, uncertified = [], set()
    shapes = {}
    for i, nid in enumerate(tracer.name_ids):
        name = names[nid]
        obs = tracer.observed.get(i)
        c = caller[i]
        if name == "oracle":
            samples, yes, _ = obs
            add("oracle.samples_drawn", samples)
            add("oracle.yes", int(yes))
        elif name == "rank.modp":
            rows, cols = obs
            add("rank.modp.cells." + c, rows * cols)
            top("rank.modp.max_rows." + c, rows)
            top("rank.modp.max_cols." + c, cols)
            key = "%s:%dx%d" % (c, rows, cols)
            shapes[key] = shapes.get(key, 0) + 1
        elif name == "rank.reduce":
            add("rank.reduce.cells." + c, obs)
        elif name == "rank.exact":
            add("rank.exact.cells." + c, len(obs) * (len(obs[0]) if obs else 0))
            top("rank.exact.max_bits." + c, _max_bits(obs))
            uncertified.add(tracer.parents[i])
        elif name == "rank.capped":
            capped.append(i)
    for i in capped:
        add("rank.capped.certified." + caller[i], int(i not in uncertified))

    covered = sum(own)
    return {
        "wall_s": wall_s,
        "spans": len(tracer),
        "covered_s": covered,
        "calls": calls,
        "self_s": self_s,
        "counts": counts,
        "modp_shapes": dict(sorted(shapes.items(), key=lambda kv: -kv[1])),
    }


def _ratio(a, b):
    return a / b if b else 0.0


def per_layer_metrics(report, time_scale, overhead_ratio, cli_import_s, host_probe_ms):
    """The per-layer metrics named in BENCHMARK.json, from a layer report.
    Self times are multiplied by time_scale, the host-speed factor of the
    traced pass, like the end-to-end times."""
    calls, self_s, counts = report["calls"], report["self_s"], report["counts"]
    n = lambda key: calls.get(key, 0)  # noqa: E731
    t = lambda key: self_s.get(key, 0.0) * time_scale  # noqa: E731
    k = lambda key: counts.get(key, 0)  # noqa: E731
    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    oracle_calls = n("oracle")
    scanned = n("rank.modp.oracle")
    put("oracle.calls", oracle_calls, "count")
    put("oracle.self_s", t("oracle"), "s")
    put("oracle.yes_ratio", _ratio(k("oracle.yes"), oracle_calls), "ratio")
    put("oracle.exact_ratio", _ratio(n("rank.exact.oracle"), oracle_calls), "ratio")
    put("oracle.sample.calls", n("oracle.sample"), "count")
    put("oracle.sample.self_s", t("oracle.sample"), "s")
    put("oracle.samples_drawn", k("oracle.samples_drawn"), "count")
    put("oracle.samples_scanned", scanned, "count")
    put("oracle.scan_ratio", _ratio(scanned, k("oracle.samples_drawn")), "ratio")
    for c in RANK_CALLERS:
        put("rank.modp.calls." + c, n("rank.modp." + c), "count")
        put("rank.modp.self_s." + c, t("rank.modp." + c), "s")
        put("rank.modp.cells." + c, k("rank.modp.cells." + c), "count")
        put("rank.modp.max_rows." + c, k("rank.modp.max_rows." + c), "count")
        put("rank.modp.max_cols." + c, k("rank.modp.max_cols." + c), "count")
        put("rank.reduce.self_s." + c, t("rank.reduce." + c), "s")
        put("rank.exact.calls." + c, n("rank.exact." + c), "count")
        put("rank.exact.self_s." + c, t("rank.exact." + c), "s")
        put("rank.exact.cells." + c, k("rank.exact.cells." + c), "count")
        put("rank.exact.max_bits." + c, k("rank.exact.max_bits." + c), "bits")
        put("rank.capped.calls." + c, n("rank.capped." + c), "count")
        put(
            "rank.capped.certified_ratio." + c,
            _ratio(k("rank.capped.certified." + c), n("rank.capped." + c)),
            "ratio",
        )
    put("linalg.matmul.calls", n("linalg.matmul"), "count")
    put("linalg.matmul.self_s", t("linalg.matmul"), "s")
    put("linalg.matmul.self_s.oracle", t("linalg.matmul.oracle"), "s")
    put("linalg.matmul.self_s.oracle.sample", t("linalg.matmul.oracle.sample"), "s")
    put("linalg.matmul.self_s.algebras", t("linalg.matmul.algebras"), "s")
    put("linalg.rref.self_s", t("linalg.rref"), "s")
    put("linalg.nullspace.self_s", t("linalg.nullspace"), "s")
    put("algebras.normalizer_dim.calls", n("algebras.normalizer_dim"), "count")
    put("algebras.normalizer_dim.self_s", t("algebras.normalizer_dim"), "s")
    put("algebras.build.self_s", t("algebras.make_algebra") + t("algebras.representation"), "s")
    put("sphericaltable.table.calls", n("sphericaltable.table"), "count")
    put("sphericaltable.table.self_s", t("sphericaltable.table"), "s")
    put("classifier.classify.calls", n("classifier.classify"), "count")
    put("classifier.classify.self_s", t("classifier.classify"), "s")
    put("snmod.pf_span.calls", n("snmod.pf_span"), "count")
    put("snmod.pf_span.self_s", t("snmod.pf_span"), "s")
    put("snmod.multiply.calls", n("snmod.multiply"), "count")
    put("snmod.multiply.self_s", t("snmod.multiply"), "s")
    put("cli.import_s", cli_import_s, "s")
    put("cli.run.self_s", t("cli.run"), "s")
    put("trace.overhead_ratio", overhead_ratio, "ratio")
    put("trace.covered_ratio", _ratio(report["covered_s"], report["wall_s"]), "ratio")
    put("trace.spans", report["spans"], "count")
    put("host.probe_ms", host_probe_ms, "ms")
    return out
