"""Per-layer timing from outside the library.

`Tracer.install` replaces every binding of each public function of the
layer modules, in every `xmodforge` module (so `from .fingrpd import f`
copies are caught too), with a wrapper that records a span (name, start,
end, parent) while the tracer is active.  Spans stay in memory and are
written out when the run ends.  A span's self time is its duration minus
the time its child spans cover.  The time outside any span is measured on
its own: the gaps between the operation's start, the entries and exits of
its top-level wrappers, and its end.  The self times of all spans plus that
time must add up to the traced wall time, less the wrappers' own cost at
top level; a span that is not nested where it ran is counted twice and
breaks the sum.

`fingrpd.unpair` is an lru_cache called millions of times; it is read
through `cache_info()` instead of being wrapped.
"""

import gzip
import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("fingrpd", "twogpd", "xmod", "bibundle", "crossing", "exchanger",
          "gdf", "cli")
NOT_WRAPPED = {"fingrpd.unpair"}
CLI_COMMANDS = ("check", "compose", "convert")
WRAPPER_S = 50e-6      # upper bound on a top-level wrapper's own cost
EXCHANGER_TOTALS = ("horizontal_diamond", "vertical_compose", "exchanger_inverse",
                    "structural_isos", "eta_square", "unit_witnesses")


def _count_2groupoid(counts, args, kwargs):
    tg = args[0]
    counts["twogpd.check_2groupoid.cells"] += len(tg.g2)
    counts["twogpd.check_2groupoid.vcomp"] += len(tg.vcomp)


def _count_bibundle(counts, args, kwargs):
    zb = args[0]
    counts["bibundle.check_bibundle.space"] += len(zb.space)
    counts["bibundle.check_bibundle.action_entries"] += len(zb.lact) + len(zb.ract)


def _count_memo(counts, args, kwargs):
    if getattr(args[0], "_vertical2", None) is not None:
        counts["xmod.xmod_to_2groupoid.memo_hits"] += 1


def _count_parse(counts, args, kwargs):
    counts["gdf.parse_gdf.bytes"] += len(args[0])


def _count_print(counts, result):
    counts["gdf.print_gdf.bytes"] += len(result)


# name -> hook(counts, result), run after the call
AFTER = {"gdf.print_gdf": _count_print}

# name -> hook(counts, args, kwargs), run before the call
BEFORE = {
    "twogpd.check_2groupoid": _count_2groupoid,
    "bibundle.check_bibundle": _count_bibundle,
    "xmod.xmod_to_2groupoid": _count_memo,
    "gdf.parse_gdf": _count_parse,
}


class Tracer:
    def __init__(self):
        self.names = []
        self.ids = {}
        self.spans = []          # (name id, start, end, parent index, outermost)
        self.stack = []
        self.depth = defaultdict(int)
        self.counts = defaultdict(int)
        self.active = False
        self.mark = 0.0          # when the last gap outside any span began
        self.outside = 0.0       # seconds of operations outside any span
        self.top_calls = 0
        self.restore = []

    def begin(self, t0):
        """An operation starts at `t0`."""
        self.mark = t0
        self.active = True

    def end(self, t1):
        """The operation that began last ends at `t1`."""
        self.outside += t1 - self.mark
        self.active = False

    def name_id(self, name):
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
        return self.ids[name]

    def wrap(self, fn, name):
        nid = self.name_id(name)
        before, after = BEFORE.get(name), AFTER.get(name)
        spans, stack, depth, counts = self.spans, self.stack, self.depth, self.counts
        perf = time.perf_counter
        tracer = self
        per_command = name == "cli.main"

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if stack:
                return traced(args, kwargs)
            tracer.outside += perf() - tracer.mark
            tracer.top_calls += 1
            try:
                return traced(args, kwargs)
            finally:
                tracer.mark = perf()

        def traced(args, kwargs):
            sid = nid
            if per_command:
                argv = args[0] if args else kwargs.get("argv")
                sid = tracer.name_id(f"cli.main.{argv[0]}")
            if before is not None:
                before(counts, args, kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            d = depth[sid]
            depth[sid] = d + 1
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                depth[sid] = d
                stack.pop()
                spans[idx] = (sid, t0, t1, parent, d == 0)
            if after is not None:
                after(counts, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def install(self):
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "xmodforge" or n.startswith("xmodforge.")) and m is not None]
        by_id = {}
        for layer in LAYERS:
            mod = sys.modules["xmodforge." + layer]
            for attr, fn in vars(mod).items():
                name = f"{layer}.{attr}"
                if (attr.startswith("_") or name in NOT_WRAPPED
                        or not inspect.isfunction(fn) or fn.__module__ != mod.__name__):
                    continue
                by_id[id(fn)] = (fn, self.wrap(fn, name))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                entry = by_id.get(id(value))
                if entry is not None and entry[0] is value:
                    self.restore.append((mod, attr, value))
                    setattr(mod, attr, entry[1])
        violation = sys.modules["xmodforge.errors"].Violation
        init = violation.__init__
        counts, tracer = self.counts, self

        def counting_init(obj, *args, **kwargs):
            if tracer.active:
                counts["errors.Violation.count"] += 1
            init(obj, *args, **kwargs)

        self.restore.append((violation, "__init__", init))
        violation.__init__ = counting_init

    def uninstall(self):
        for owner, attr, value in reversed(self.restore):
            setattr(owner, attr, value)
        self.restore = []

    def write(self, path):
        """Spans as tab-separated `name start end parent` lines."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\n")
            for sid, t0, t1, parent, _ in self.spans:
                fh.write(f"{self.names[sid]}\t{t0!r}\t{t1!r}\t{parent}\n")

    def totals(self):
        """Per name: calls, self seconds, outermost-span seconds; plus the
        time covered by top-level spans, the smallest self time of any span
        (negative only if spans did not nest) and the number of witness
        checks whose result is_hypercover throws away."""
        n = len(self.names)
        calls, self_s, total_s = [0] * n, [0.0] * n, [0.0] * n
        child = [0.0] * len(self.spans)
        top = 0.0
        for sid, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
            else:
                top += t1 - t0
        min_self = 0.0
        for idx, (sid, t0, t1, parent, outer) in enumerate(self.spans):
            calls[sid] += 1
            own = (t1 - t0) - child[idx]
            self_s[sid] += own
            min_self = min(min_self, own)
            if outer:
                total_s[sid] += t1 - t0
        discarded = 0
        ids = self.ids
        if {"bibundle.is_morita", "xmod.check_hypercover", "xmod.is_hypercover"} <= set(ids):
            morita, check, is_h = (ids["bibundle.is_morita"], ids["xmod.check_hypercover"],
                                   ids["xmod.is_hypercover"])
            spans = self.spans
            for sid, _, _, parent, _ in spans:
                if sid == morita and parent >= 0 and spans[parent][0] == check:
                    grand = spans[parent][3]
                    discarded += grand >= 0 and spans[grand][0] == is_h
        by_name = {name: (calls[i], self_s[i], total_s[i]) for i, name in enumerate(self.names)}
        return by_name, top, min_self, discarded


def layer_metrics(tracer, wall_s, cache_delta, untraced_ops_per_s, traced_ops_per_s):
    """The per-layer metrics, name -> (value, unit), and the problems found
    in the spans: a negative self time, or self times plus the time outside
    any span that do not add up to the traced wall time."""
    by_name, top, min_self, discarded = tracer.totals()
    counts = tracer.counts

    def get(name):
        return by_name.get(name, (0, 0.0, 0.0))

    out = {}
    calls, self_s, _ = get("twogpd.check_2groupoid")
    out["twogpd.check_2groupoid.calls"] = (calls, "count")
    out["twogpd.check_2groupoid.self_s"] = (self_s, "s")
    out["twogpd.check_2groupoid.ms_per_call"] = (1000 * self_s / calls if calls else 0.0, "ms")
    out["twogpd.check_2groupoid.cells"] = (counts["twogpd.check_2groupoid.cells"], "count")
    out["twogpd.check_2groupoid.vcomp"] = (counts["twogpd.check_2groupoid.vcomp"], "count")
    out["twogpd.check_weak_equivalence.self_s"] = (get("twogpd.check_weak_equivalence")[1], "s")
    calls, self_s, _ = get("xmod.xmod_to_2groupoid")
    out["xmod.xmod_to_2groupoid.self_s"] = (self_s, "s")
    out["xmod.xmod_to_2groupoid.memo_hit_ratio"] = (
        counts["xmod.xmod_to_2groupoid.memo_hits"] / calls if calls else 0.0, "ratio")
    out["xmod.check_hypercover.total_s"] = (get("xmod.check_hypercover")[2], "s")
    out["xmod.check_hypercover.discarded_witness_checks"] = (discarded, "count")
    out["crossing.decompose_crossing.self_s"] = (get("crossing.decompose_crossing")[1], "s")
    calls, self_s, _ = get("bibundle.check_bibundle")
    out["bibundle.check_bibundle.calls"] = (calls, "count")
    out["bibundle.check_bibundle.self_s"] = (self_s, "s")
    out["bibundle.check_bibundle.space"] = (counts["bibundle.check_bibundle.space"], "count")
    out["bibundle.check_bibundle.action_entries"] = (
        counts["bibundle.check_bibundle.action_entries"], "count")
    out["bibundle.compose_bibundles.self_s"] = (get("bibundle.compose_bibundles")[1], "s")
    out["bibundle.is_morita.self_s"] = (get("bibundle.is_morita")[1], "s")
    for fn in EXCHANGER_TOTALS:
        out[f"exchanger.{fn}.total_s"] = (get(f"exchanger.{fn}")[2], "s")
    out["exchanger.check_semi_exchanger.self_s"] = (get("exchanger.check_semi_exchanger")[1], "s")
    out["crossing.check_crossing.self_s"] = (get("crossing.check_crossing")[1], "s")
    out["crossing.diamond.self_s"] = (get("crossing.diamond")[1], "s")
    out["crossing.verify_m_mbar.total_s"] = (get("crossing.verify_m_mbar")[2], "s")
    out["fingrpd.check_groupoid.self_s"] = (get("fingrpd.check_groupoid")[1], "s")
    out["fingrpd.check_action.self_s"] = (get("fingrpd.check_action")[1], "s")
    out["xmod.check_crossed_module.self_s"] = (get("xmod.check_crossed_module")[1], "s")
    for fn in ("parse_gdf", "build_document", "print_gdf"):
        out[f"gdf.{fn}.self_s"] = (get(f"gdf.{fn}")[1], "s")
    out["gdf.parse_gdf.kb"] = (counts["gdf.parse_gdf.bytes"] / 1024, "KiB")
    out["gdf.print_gdf.kb"] = (counts["gdf.print_gdf.bytes"] / 1024, "KiB")
    out["cli.make_parser.self_s"] = (get("cli.make_parser")[1], "s")
    for command in CLI_COMMANDS:
        calls, _, total = get(f"cli.main.{command}")
        out[f"cli.main.{command}.ms_per_call"] = (1000 * total / calls if calls else 0.0, "ms")
    hits, misses = cache_delta
    out["fingrpd.unpair.hits"] = (hits, "count")
    out["fingrpd.unpair.misses"] = (misses, "count")
    out["fingrpd.unpair.hit_ratio"] = (hits / (hits + misses) if hits + misses else 0.0, "ratio")
    out["errors.Violation.count"] = (counts["errors.Violation.count"], "count")
    self_sum = sum(v[1] for v in by_name.values())
    out["trace.wall_s"] = (wall_s, "s")
    out["trace.outside_s"] = (tracer.outside, "s")
    out["trace.self_sum_s"] = (self_sum, "s")
    out["trace.untraced_ops_per_s"] = (untraced_ops_per_s, "1/s")
    out["trace.traced_ops_per_s"] = (traced_ops_per_s, "1/s")
    out["trace.overhead_pct"] = (100 * (untraced_ops_per_s / traced_ops_per_s - 1), "%")
    problems = []
    if min_self < -1e-9 or top > wall_s + 1e-9:
        problems.append(f"spans do not nest: self time {min_self}, covered {top} of {wall_s}")
    # What the sum leaves over is the top-level wrappers' own cost, a few
    # microseconds a call; a negative rest means time counted twice.
    rest = wall_s - self_sum - tracer.outside
    if not -1e-9 * max(wall_s, 1.0) <= rest <= WRAPPER_S * tracer.top_calls:
        problems.append(f"self times {self_sum} plus time outside spans {tracer.outside} "
                        f"leave {rest} of the wall time {wall_s} "
                        f"over {tracer.top_calls} top-level calls")
    return out, problems
