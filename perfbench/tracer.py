"""Per-layer tracing of the eaqmds package for the benchmark's traced run.

The tracer wraps the public functions named in ``TARGETS`` from outside
the package: no file under ``src/`` changes.  A function is replaced at
every name the package binds it to (``cli`` calls ``field_tower`` through
its own import, ``oracle`` calls ``generator_polynomial`` through its
own, and so on), and a method is replaced on its class.  A target that no
longer exists reports zero calls, so the metric names stay fixed while the
package is refactored.

Every wrapped call pushes a frame that collects the time of its wrapped
children, so each function gets its total time, its self time (total
minus wrapped children) and its call count.  Calls of functions marked
``span=True`` are also kept as spans in memory: (id, parent id,
invocation, name, start ns, end ns), written out once the run is over.
The hot functions (one call per coset, per defining set, per field
element) keep only counts and accumulated time.
"""

from __future__ import annotations

import gc
import importlib
import pkgutil
import sys
import time
import types
from dataclasses import dataclass, field

LAYERS = ("cli", "families", "eaqecc", "codes", "cosets", "gf", "oracle")

# src modules whose line count is reported on its own; the rest go to "other"
LINE_MODULES = (
    "__init__", "__main__", "cli", "codes", "cosets", "eaqecc", "errata",
    "exceptions", "families", "gf", "oracle",
)


# hooks: count the work of one call from its arguments
def _members(args, stat):
    stat.extra += len(args[0])


def _mults(args, stat):
    a, b = args[0], args[1]
    stat.extra += a.rows * a.cols * b.cols


def _entries(args, stat):
    stat.extra += args[0].rows * args[0].cols


def _orbit_rep(args, stat):
    tower, i = args[0], args[1]
    n = tower.n
    mult = tower.q * tower.q % n
    start = cur = i % n
    rep = cur
    while True:
        cur = cur * mult % n
        if cur == start:
            break
        rep = min(rep, cur)
    stat.keys.add((tower.q, n, rep))


@dataclass(frozen=True)
class Target:
    metric: str  # metric prefix; two targets may share one
    module: str  # module under eaqmds that defines it
    attr: str  # "name" or "Class.method"
    span: bool = True  # keep one span per call (False for hot functions)
    hook: object = None  # hook(args, stat), run inside the timed call after it returns


TARGETS = (
    Target("cli.main", "cli", "main"),
    Target("families.verify_family_code", "families", "verify_family_code"),
    Target("families.window_sets", "families", "free_window_set"),
    Target("families.window_sets", "families", "entangled_window_set"),
    Target("families.family_defining_set", "families", "family_defining_set"),
    Target("families.family_grid", "families", "family_grid"),
    Target("eaqecc.decompose", "eaqecc", "decompose"),
    Target("eaqecc.eaqecc_params", "eaqecc", "eaqecc_params"),
    Target("codes.bch_bound", "codes", "bch_bound"),
    Target("codes.longest_circular_run", "codes", "longest_circular_run"),
    Target("codes.generator_polynomial", "codes", "generator_polynomial"),
    Target("codes.check_polynomial", "codes", "check_polynomial"),
    Target("cosets.DefiningSet.init", "cosets", "DefiningSet.__init__", False, _members),
    Target("cosets.neg_q", "cosets", "DefiningSet.neg_q", False),
    Target("cosets.coset", "cosets", "coset", False),
    Target("cosets.all_cosets", "cosets", "all_cosets"),
    Target("cosets.identity", "cosets", "coset_product_identity", False),
    Target("cosets.identity", "cosets", "coset_product_identity_inverse", False),
    Target("gf.minimal_polynomial", "gf", "FieldTower.minimal_polynomial", False, _orbit_rep),
    Target("gf.field_tower", "gf", "field_tower"),
    Target("gf.Field.neg", "gf", "Field.neg", False),
    Target("gf.Field.add_table", "gf", "Field.add_table", False),
    Target("gf.Field.exp_log_tables", "gf", "Field.exp_log_tables", False),
    Target("oracle.matmul", "oracle", "matmul", True, _mults),
    Target("oracle.rank", "oracle", "rank", True, _entries),
    Target("oracle.rank_hh_dagger", "oracle", "rank_hh_dagger"),
    Target("oracle.code_matrices", "oracle", "code_matrices"),
    Target("oracle.build_generator_matrix", "oracle", "build_generator_matrix"),
    Target("oracle.build_parity_check_matrix", "oracle", "build_parity_check_matrix"),
    Target("oracle.conjugate_transpose", "oracle", "conjugate_transpose"),
)

# lru-cached functions whose cache misses count the objects built
BUILD_COUNTERS = (("gf.field_tower.builds", "field_tower"), ("gf.build_field.builds", "build_field"))

# metric suffix -> (Stat field, unit); which suffixes each prefix reports
_SUFFIX = {
    "calls": ("calls", "count"),
    "s": ("ns", "s"),
    "self_s": ("self_ns", "s"),
    "members": ("extra", "count"),
    "mults": ("extra", "count"),
    "entries": ("extra", "count"),
    "distinct": ("keys", "count"),
}
REPORTED = {
    "cli.main": ("s",),
    "families.verify_family_code": ("calls", "self_s"),
    "families.window_sets": ("calls", "s"),
    "families.family_defining_set": ("s",),
    "families.family_grid": ("s",),
    "eaqecc.decompose": ("calls", "self_s"),
    "eaqecc.eaqecc_params": ("s",),
    "codes.bch_bound": ("calls", "s"),
    "codes.longest_circular_run": ("calls", "s"),
    "codes.generator_polynomial": ("calls", "self_s"),
    "codes.check_polynomial": ("s",),
    "cosets.DefiningSet.init": ("calls", "s", "members"),
    "cosets.neg_q": ("calls", "s"),
    "cosets.coset": ("calls", "s"),
    "cosets.all_cosets": ("s",),
    "cosets.identity": ("calls", "s"),
    "gf.minimal_polynomial": ("calls", "s", "distinct"),
    "gf.field_tower": ("calls", "s"),
    "gf.Field.neg": ("calls", "s"),
    "gf.Field.add_table": ("s",),
    "gf.Field.exp_log_tables": ("s",),
    "oracle.matmul": ("calls", "s", "mults"),
    "oracle.rank": ("calls", "s", "entries"),
    "oracle.rank_hh_dagger": ("calls", "s"),
    "oracle.code_matrices": ("self_s",),
    "oracle.build_generator_matrix": ("s",),
    "oracle.build_parity_check_matrix": ("s",),
    "oracle.conjugate_transpose": ("s",),
}


@dataclass
class Stat:
    calls: int = 0
    ns: int = 0
    self_ns: int = 0
    errors: int = 0
    extra: int = 0
    keys: set = field(default_factory=set)


def import_package(src: str) -> types.ModuleType:
    """Import eaqmds from ``src`` with every submodule loaded."""
    sys.path.insert(0, src)
    pkg = importlib.import_module("eaqmds")
    for info in pkgutil.iter_modules(pkg.__path__):
        if info.name != "__main__":
            importlib.import_module(f"eaqmds.{info.name}")
    return pkg


class Tracer:
    """Wraps the targets of one freshly imported eaqmds package."""

    def __init__(self, pkg: types.ModuleType):
        self.pkg = pkg
        self.stats: dict[str, Stat] = {}
        self.stack = [0]  # per open frame: ns spent in wrapped children
        self.span_stack = [0]  # ids of the open spans; 0 is the root
        self.spans: list[tuple] = []
        self.invocation = 0
        self.originals: dict[str, object] = {}  # attr path -> unwrapped object
        self.modules = [
            m for name, m in sys.modules.items()
            if m is not None and (name == pkg.__name__ or name.startswith(pkg.__name__ + "."))
        ]
        for t in TARGETS:
            self._install(t)

    def _install(self, t: Target) -> None:
        stat = self.stats.setdefault(t.metric, Stat())
        owner = sys.modules.get(f"{self.pkg.__name__}.{t.module}")
        *cls_path, name = t.attr.split(".")
        for part in cls_path:
            owner = getattr(owner, part, None)
        original = getattr(owner, name, None) if owner is not None else None
        if original is None:
            return
        self.originals[f"{t.module}.{t.attr}"] = original
        wrapper = self._wrap(original, t, stat)
        if cls_path:
            setattr(owner, name, wrapper)
            return
        for mod in self.modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)

    def _wrap(self, fn, t: Target, stat: Stat):
        stack, span_stack, spans = self.stack, self.span_stack, self.spans
        hook, name = t.hook, t.metric
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            if t.span:
                sid = len(spans) + 1
                parent = span_stack[-1]
                span_stack.append(sid)
                spans.append(None)  # reserve the id; filled in on exit
            stack.append(0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(args, stat)
                return result
            except BaseException:
                stat.errors += 1
                raise
            finally:
                t1 = clock()
                dt = t1 - t0
                stat.self_ns += dt - stack.pop()
                stack[-1] += dt
                stat.calls += 1
                stat.ns += dt
                if t.span:
                    span_stack.pop()
                    spans[sid - 1] = (sid, parent, self.invocation, name, t0, t1)

        return traced

    def metrics(self, src_dir, traced_wall_ns: int, overhead_ns: float) -> dict:
        """Every per-layer metric as {name: {"value", "unit"}}."""
        out: dict[str, dict] = {}

        def put(name, value, unit):
            out[name] = {"value": value, "unit": unit}

        for prefix, suffixes in REPORTED.items():
            stat = self.stats[prefix]
            for suffix in suffixes:
                attr, unit = _SUFFIX[suffix]
                value = getattr(stat, attr)
                if attr == "keys":
                    value = len(value)
                elif unit == "s":
                    value = value / 1e9
                put(f"{prefix}.{suffix}", value, unit)
        for metric, fname in BUILD_COUNTERS:
            fn = self.originals.get(f"gf.{fname}", getattr(self.pkg.gf, fname, None))
            info = getattr(fn, "cache_info", None)
            put(metric, info().misses if info else 0, "count")
        entries, nbytes = _table_sizes(f"{self.pkg.__name__}.gf")
        put("gf.table_entries", entries, "count")
        put("gf.table_mb_computed", nbytes / 2**20, "MB")
        for layer in LAYERS:
            mine = [s for p, s in self.stats.items() if p.split(".")[0] == layer]
            put(f"{layer}.self_s", sum(s.self_ns for s in mine) / 1e9, "s")
            put(f"{layer}.errors", sum(s.errors for s in mine), "count")
        put("trace.wall_s", traced_wall_ns / 1e9, "s")
        put("trace.overhead_s", overhead_ns / 1e9, "s")
        put("trace.spans", len(self.spans), "count")
        lines = src_line_counts(src_dir)
        put("src.lines", sum(lines.values()), "lines")
        for mod in LINE_MODULES:
            put(f"src.lines.{mod}", lines.pop(mod, 0), "lines")
        put("src.lines.other", sum(lines.values()), "lines")
        return out

    def self_time_ns(self) -> int:
        return sum(s.self_ns for s in self.stats.values())


def _table_sizes(module: str) -> tuple[int, int]:
    """Entries and computed bytes of the lookup tables held by gf objects.

    A table is a list attribute of an instance of a class defined in the
    gf module, or a list stored in a dict attribute of one.  The bytes are
    computed, not measured: the list's own size plus 28 bytes for each
    element outside the interpreter's cache of small ints.
    """
    entries = nbytes = 0
    for obj in gc.get_objects():
        if type(obj).__module__ != module or not hasattr(obj, "__dict__"):
            continue
        for value in vars(obj).values():
            tables = value.values() if isinstance(value, dict) else (value,)
            for tab in tables:
                if isinstance(tab, list):
                    entries += len(tab)
                    nbytes += sys.getsizeof(tab)
                    nbytes += 28 * sum(1 for v in tab if type(v) is int and not -5 <= v <= 256)
    return entries, nbytes


def src_line_counts(src_dir) -> dict[str, int]:
    """Newline count of each module under src/eaqmds, keyed by stem."""
    counts: dict[str, int] = {}
    for path in sorted(src_dir.rglob("*.py")):
        counts[path.stem] = counts.get(path.stem, 0) + path.read_bytes().count(b"\n")
    return counts
