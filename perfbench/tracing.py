"""Spans at the library's module boundaries, for the traced run only.

``traced(lib, tracer)`` rebinds the public names that each calling module
imported (``thompsonf.group.reduce_pair``, ``thompsonf.metric.multiply``,
...) to wrappers that record a span per call, and restores the originals
on exit. A call made inside the defining module (``reduce_pair`` calling
``exposed_caret_positions``) is not a boundary and is not recorded.

A span holds its name, start, end, parent span and op id. Spans stay in
flat arrays until the run ends; ``layer_metrics`` then turns them into
self times (duration minus the time child spans cover) and counts.
Durations are corrected for the host's speed as the end-to-end times are
(hostclock.py): the reference samples inside a span are taken out and the
rest is scaled by the speed measured around the span's op.
Counts that need work, such as carets cancelled, are taken after the
span closes inside a ``trace.count`` span, so their cost is charged to
no layer.
"""

from __future__ import annotations

from array import array
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

OP, COUNT = "op", "trace.count"   # span names with ids 0 and 1; neither is a layer
OP_ID, COUNT_ID = 0, 1

# (module or class, attribute, span name); the class entries are methods
# the benchmark calls on oracles it owns.
BOUNDARIES = (
    ("group", "reduce_pair", "trees.reduce_pair"),
    ("group", "is_reduced", "trees.is_reduced"),
    ("words", "is_reduced", "trees.is_reduced"),
    ("group", "union_tree", "trees.refine"),
    ("group", "leaf_growths", "trees.refine"),
    ("group", "expand_leaves", "trees.refine"),
    ("group", "multiply", "group.multiply"),
    ("metric", "multiply", "group.multiply"),
    ("embeddings", "multiply", "group.multiply"),
    ("cli", "multiply", "group.multiply"),
    ("group", "power", "group.power"),
    ("embeddings", "power", "group.power"),
    ("cli", "power", "group.power"),
    ("group", "element_of_word", "group.element_of_word"),
    ("cli", "element_of_word", "group.element_of_word"),
    ("words", "parse_word", "words.parse_word"),
    ("cli", "parse_word", "words.parse_word"),
    ("group", "tree_pair_to_normal_form", "words.nf_read"),
    ("words", "tree_pair_to_normal_form", "words.nf_read"),
    ("group", "normal_form_to_tree_pair", "words.nf_build"),
    ("words", "rewrite_to_normal_form", "words.rewrite"),
    ("metric.WordMetricOracle", "sphere_sizes", "metric.bfs"),
    ("metric.WordMetricOracle", "exact_length", "metric.lookup"),
    ("metric", "random_element", "metric.sampler"),
    ("metric", "distortion_envelopes", "metric.fit"),
    ("metric", "sweep_to_csv", "metric.csv"),
    ("metric", "embed_f_z", "embeddings.embed"),
    ("metric", "embed_product", "embeddings.embed"),
    ("embeddings", "clone_map", "embeddings.clone_map"),
    ("cli", "main", "cli.main"),
)

# Every metric the traced run reports, with its unit. Per-op values are
# totals over the traced phase divided by the ops it completed; a ratio
# whose base is zero (its layer idle on this workload) reads 0.
LAYER_METRICS = (
    ("trees.reduce_pair.calls", "count/op"),
    ("trees.reduce_pair.self_ms", "ms/op"),
    ("trees.reduce_pair.carets_cancelled", "count/op"),
    ("trees.reduce_pair.cancel_ratio", "ratio"),
    ("trees.is_reduced.calls", "count/op"),
    ("trees.is_reduced.self_ms", "ms/op"),
    ("trees.is_reduced.per_multiply", "ratio"),
    ("trees.refine.self_ms", "ms/op"),
    ("group.multiply.calls", "count/op"),
    ("group.multiply.self_ms", "ms/op"),
    ("group.multiply.mean_carets", "carets"),
    ("group.power.self_ms", "ms/op"),
    ("group.element_of_word.self_ms", "ms/op"),
    ("words.parse_word.self_ms", "ms/op"),
    ("words.parse_word.letters", "count/op"),
    ("words.nf_read.self_ms", "ms/op"),
    ("words.nf_build.self_ms", "ms/op"),
    ("words.rewrite.calls", "count/op"),
    ("words.rewrite.self_ms", "ms/op"),
    ("metric.bfs.products", "count/op"),
    ("metric.bfs.new_elements", "count/op"),
    ("metric.bfs.dedupe_new_ratio", "ratio"),
    ("metric.bfs.self_ms", "ms/op"),
    ("metric.bfs.level9_ms", "ms/op"),
    ("metric.lookup.calls", "count/op"),
    ("metric.lookup.self_ms", "ms/op"),
    ("metric.lookup.hit_ratio", "ratio"),
    ("metric.sampler.self_ms", "ms/op"),
    ("metric.fit.self_ms", "ms/op"),
    ("metric.csv.self_ms", "ms/op"),
    ("embeddings.clone_map.calls", "count/op"),
    ("embeddings.clone_map.self_ms", "ms/op"),
    ("embeddings.embed.self_ms", "ms/op"),
    ("cli.main.self_ms", "ms/op"),
    ("trace.op_ms", "ms/op"),
    ("trace.overhead_ratio", "ratio"),
    ("limits.power_x0_max_k", "count"),
    ("limits.comb_depth_max", "count"),
)


class Tracer:
    """In-memory span store; records only between ``begin_op`` and ``end_op``."""

    def __init__(self):
        self.names: list[str] = [OP, COUNT]
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.counts: Counter = Counter()
        self.level9: list[int] = []     # metric.bfs spans that grew the radius-9 sphere
        self.ops = 0
        self._stack: list[int] = []
        self._op_id = -1

    def _open(self, name_id: int) -> int:
        i = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.op.append(self._op_id)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self._stack.pop()

    def begin_op(self, op_id: int) -> None:
        self._op_id = op_id
        self._stack.append(-1)
        self._open(OP_ID)

    def end_op(self) -> None:
        self._close(self._stack[-1])
        self._stack.pop()
        self.ops += 1

    def wrap(self, fn, name: str, counter=None):
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)

        def traced_call(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            i = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(i)
            if counter is not None:
                j = self._open(COUNT_ID)
                counter(self, i, args, result)
                self._close(j)
            return result

        return traced_call

    def layer_metrics(self, untraced_ops_per_s: float, traced_ops_per_s: float, clock):
        """Per-layer metrics, and the largest share of an op's wall time that its
        layers' self times cover (above 1 when spans do not nest)."""
        n = len(self.name)
        start, end, parent = self.start, self.end, self.parent
        factor = {self.op[i]: clock.factor(start[i], end[i])
                  for i in range(n) if self.name[i] == OP_ID}
        duration = array("d", ((end[i] - start[i] - clock.reference_time(start[i], end[i]))
                               * factor[self.op[i]] for i in range(n)))
        cover = array("d", bytes(8 * n))
        for i in range(n):
            p = parent[i]
            if p >= 0:
                cover[p] += duration[i]
        calls: Counter = Counter()
        self_s: Counter = Counter()
        layers_in_op: Counter = Counter()
        op_wall: dict[int, float] = {}
        products = 0
        multiply_id, bfs_id = self.names.index("group.multiply"), self.names.index("metric.bfs")
        nested = True
        for i in range(n):
            name_id, dur = self.name[i], duration[i]
            self_time = dur - cover[i]
            nested = nested and self_time > -1e-9 and dur >= 0
            if name_id == OP_ID:
                op_wall[self.op[i]] = dur
                continue
            if name_id == COUNT_ID:
                continue
            label = self.names[name_id]
            calls[label] += 1
            self_s[label] += self_time
            layers_in_op[self.op[i]] += self_time
            if name_id == multiply_id and parent[i] >= 0 and self.name[parent[i]] == bfs_id:
                products += 1
        share = max((layers_in_op[k] / wall for k, wall in op_wall.items() if wall > 0), default=0.0)
        if not nested:
            share = float("inf")

        ops = max(self.ops, 1)
        c = self.counts

        def per_op(value):
            return value / ops

        def ms(label):
            return self_s[label] * 1e3 / ops

        def ratio(num, den):
            return num / den if den else 0.0

        cancelled = c["reduce_pair.carets_in"] - c["reduce_pair.carets_out"]
        values = {
            "trees.reduce_pair.calls": per_op(calls["trees.reduce_pair"]),
            "trees.reduce_pair.self_ms": ms("trees.reduce_pair"),
            "trees.reduce_pair.carets_cancelled": per_op(cancelled),
            "trees.reduce_pair.cancel_ratio": ratio(cancelled, c["reduce_pair.carets_in"]),
            "trees.is_reduced.calls": per_op(calls["trees.is_reduced"]),
            "trees.is_reduced.self_ms": ms("trees.is_reduced"),
            "trees.is_reduced.per_multiply": ratio(calls["trees.is_reduced"], calls["group.multiply"]),
            "trees.refine.self_ms": ms("trees.refine"),
            "group.multiply.calls": per_op(calls["group.multiply"]),
            "group.multiply.self_ms": ms("group.multiply"),
            "group.multiply.mean_carets": ratio(c["multiply.carets"], calls["group.multiply"]),
            "group.power.self_ms": ms("group.power"),
            "group.element_of_word.self_ms": ms("group.element_of_word"),
            "words.parse_word.self_ms": ms("words.parse_word"),
            "words.parse_word.letters": per_op(c["parse_word.letters"]),
            "words.nf_read.self_ms": ms("words.nf_read"),
            "words.nf_build.self_ms": ms("words.nf_build"),
            "words.rewrite.calls": per_op(calls["words.rewrite"]),
            "words.rewrite.self_ms": ms("words.rewrite"),
            "metric.bfs.products": per_op(products),
            "metric.bfs.new_elements": per_op(c["bfs.new_elements"]),
            "metric.bfs.dedupe_new_ratio": ratio(c["bfs.new_elements"], products),
            "metric.bfs.self_ms": ms("metric.bfs"),
            "metric.bfs.level9_ms": sum(duration[i] for i in self.level9) * 1e3 / ops,
            "metric.lookup.calls": per_op(calls["metric.lookup"]),
            "metric.lookup.self_ms": ms("metric.lookup"),
            "metric.lookup.hit_ratio": ratio(c["lookup.hits"], calls["metric.lookup"]),
            "metric.sampler.self_ms": ms("metric.sampler"),
            "metric.fit.self_ms": ms("metric.fit"),
            "metric.csv.self_ms": ms("metric.csv"),
            "embeddings.clone_map.calls": per_op(calls["embeddings.clone_map"]),
            "embeddings.clone_map.self_ms": ms("embeddings.clone_map"),
            "embeddings.embed.self_ms": ms("embeddings.embed"),
            "cli.main.self_ms": ms("cli.main"),
            "trace.op_ms": sum(op_wall.values()) * 1e3 / ops,
            "trace.overhead_ratio": ratio(untraced_ops_per_s, traced_ops_per_s),
        }
        return values, share


def _counters(lib):
    caret_count = lib.trees.caret_count

    def reduce_pair(t, i, args, result):
        t.counts["reduce_pair.carets_in"] += caret_count(args[0].neg)
        t.counts["reduce_pair.carets_out"] += caret_count(result.neg)

    def multiply(t, i, args, result):
        t.counts["multiply.carets"] += caret_count(result.pair.pos)

    def parse_word(t, i, args, result):
        t.counts["parse_word.letters"] += len(result)

    def sphere_sizes(t, i, args, result):
        radius = args[1]
        t.counts["bfs.new_elements"] += result[radius]
        if radius == 9:
            t.level9.append(i)

    def exact_length(t, i, args, result):
        t.counts["lookup.hits"] += result is not None

    return {
        "trees.reduce_pair": reduce_pair,
        "group.multiply": multiply,
        "words.parse_word": parse_word,
        "metric.bfs": sphere_sizes,
        "metric.lookup": exact_length,
    }


def _owner(lib, path: str):
    module, _, cls = path.partition(".")
    owner = getattr(lib, module)
    return getattr(owner, cls) if cls else owner


@contextmanager
def traced(lib, tracer: Tracer):
    """Rebind every boundary to a recording wrapper; restore on exit."""
    counters = _counters(lib)
    saved = []
    try:
        for path, attr, name in BOUNDARIES:
            owner = _owner(lib, path)
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(original, name, counters.get(name)))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
