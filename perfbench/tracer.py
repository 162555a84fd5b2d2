"""Per-layer trace of polybell, recorded from outside the package.

``Tracer.install`` replaces every public function of each polybell module
(its ``__all__``) and every method of its public classes with a wrapper that
records a span, in every module namespace and module-level dict that holds
the function.  Two private column kernels are wrapped too, because
``pbell_column`` calls them directly and they are where the ``ztriangle`` and
``recurrence`` backends do their work.  ``TriangleCache.get``, ``put`` and
``__contains__`` (``key in CACHE``) only count: each is one dict operation,
cheaper than a span.  A membership test counts as a get, and as a hit when
the key is there.  ``uninstall`` puts
every original back.

Spans are held in memory, one buffer per thread (``run_all`` and
``render_table`` use a thread pool), as rows of
``(name id, parent span, request id, start ns, end ns)``.  A span opened on a
thread with an empty stack takes as parent the innermost open span of the
client thread, which is the call that handed the work to the pool.  A span's
self time is its duration minus the part of it that its children cover.
"""

from __future__ import annotations

import enum
import functools
import importlib
import inspect
import threading
from array import array
from time import perf_counter_ns

import numpy as np

MODULES = (
    "exact_core",
    "special_numbers",
    "pbell",
    "polybell",
    "identity_verifier",
    "numeric_bridge",
    "cli",
)
KERNELS = (("pbell", "_z_rows"), ("pbell", "_recurrence_table"))
NUMERIC_CHECKS = (
    "dobinski_pbell",
    "dobinski_pbell_poly",
    "cesaro_pbell",
    "mc_moment_check",
    "mgf_check",
    "pmf_check",
)
MC_CHECKS = ("mc_moment_check", "mgf_check", "pmf_check")
MC_SPANS = tuple(
    f"numeric_bridge.{name}" for name in MC_CHECKS + ("beta_poisson_sample", "beta_poisson_batch")
)
CACHE_FAMILIES = ("s1", "s2", "s2r", "bernoulli", "genbernoulli", "bell")
_FIELDS = 5
_TID_SHIFT = 40


class _Buffer:
    """What one thread recorded; only that thread writes to it."""

    __slots__ = ("base", "spans", "stack", "counts", "columns", "cells")

    def __init__(self, tid: int):
        self.base = tid << _TID_SHIFT
        self.spans = array("q")
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.columns: dict[int, int] = {}  # p -> longest column returned
        self.cells: set = set()  # cache keys put


def _count(b: _Buffer, key: str, amount: int = 1) -> None:
    b.counts[key] = b.counts.get(key, 0) + amount


class Tracer:
    def __init__(self, package):
        self._package = package
        self._local = threading.local()
        self._lock = threading.Lock()
        self._names: list[str] = []
        self._patches: list[tuple[object, object, object]] = []
        self._buffers: list[_Buffer] = []
        self._client: _Buffer | None = None
        self.request = -1
        self.cross_check_requests: set[int] = set()

    # -- recording ---------------------------------------------------------

    def _buffer(self) -> _Buffer:
        b = getattr(self._local, "b", None)
        if b is None:
            with self._lock:
                b = _Buffer(len(self._buffers))
                self._buffers.append(b)
            self._local.b = b
        return b

    def _span(self, name: str, fn, hook=None):
        nid = len(self._names)
        self._names.append(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            b = tracer._buffer()
            stack = b.stack
            if stack:
                parent = stack[-1]
            else:
                client = tracer._client.stack
                parent = client[-1] if client else -1
            spans = b.spans
            row = len(spans)
            spans.extend((nid, parent, tracer.request, 0, 0))
            stack.append(b.base + row // _FIELDS)
            result, raised = None, True
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[row + 3] = start
                spans[row + 4] = end
                if hook is not None:
                    hook(b, args, kwargs, result, raised, end - start)

        return wrapper

    def _cache_counters(self, cls) -> dict:
        get, contains, put, tracer = cls.get, cls.__contains__, cls.put, self

        def counted_get(cache, key):
            value = get(cache, key)
            b = tracer._buffer()
            _count(b, "gets")
            if value is not None:
                _count(b, "hits")
            return value

        def counted_contains(cache, key):
            found = contains(cache, key)
            b = tracer._buffer()
            _count(b, "gets")
            if found:
                _count(b, "hits")
            return found

        def counted_put(cache, key, value):
            b = tracer._buffer()
            _count(b, "puts")
            b.cells.add(key)
            return put(cache, key, value)

        return {get: counted_get, contains: counted_contains, put: counted_put}

    # -- hooks: counts taken where the work happens ------------------------

    @staticmethod
    def _column_hook(b, args, kwargs, result, raised, ns):
        if not raised:
            p = args[1] if len(args) > 1 else kwargs["p"]
            _count(b, "column.cells", len(result))
            b.columns[p] = max(b.columns.get(p, 0), len(result))

    @staticmethod
    def _numeric_hook(name):
        def hook(b, args, kwargs, result, raised, ns):
            if raised or not result.passed:
                _count(b, "numeric.failed")
            if raised:
                return
            if name == "cesaro_pbell":
                _count(b, "cesaro.evaluations", result.samples_or_terms)
            elif name in MC_CHECKS:
                _count(b, "mc.samples", result.samples_or_terms)

        return hook

    @staticmethod
    def _check_hook(b, args, kwargs, result, raised, ns):
        if raised or not result.passed:
            _count(b, "verify.failed")
        if not raised:
            _count(b, "verify.checks")
            _count(b, f"verify.{result.identity_id}.ns", ns)

    @staticmethod
    def _main_hook(b, args, kwargs, result, raised, ns):
        if raised or result != 0:
            _count(b, "cli.exit_nonzero")

    def _hook(self, layer: str, name: str):
        if layer == "pbell" and name == "pbell_column":
            return self._column_hook
        if layer == "numeric_bridge" and name in NUMERIC_CHECKS:
            return self._numeric_hook(name)
        if layer == "identity_verifier" and name.startswith("verify_"):
            return self._check_hook
        if layer == "cli" and name == "main":
            return self._main_hook
        return None

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        """Wrap the package; must run on the client thread, before any call."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = {m: importlib.import_module(f"{self._package.__name__}.{m}") for m in MODULES}
        functions: dict[object, object] = {}
        methods: list[tuple[type, str, object]] = []
        for layer, module in modules.items():
            for name in module.__all__:
                obj = getattr(module, name)
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if isinstance(obj, type):
                    if obj.__name__ == "TriangleCache":
                        for orig, new in self._cache_counters(obj).items():
                            methods.append((obj, orig.__name__, new))
                        continue
                    if issubclass(obj, (BaseException, enum.Enum)):
                        continue
                    for attr, member in vars(obj).items():
                        if inspect.isfunction(member):
                            span = self._span(f"{layer}.{obj.__name__}.{attr}", member)
                            methods.append((obj, attr, span))
                elif inspect.isfunction(obj):
                    functions[obj] = self._span(f"{layer}.{name}", obj, self._hook(layer, name))
        for layer, name in KERNELS:
            obj = getattr(modules[layer], name)
            functions[obj] = self._span(f"{layer}.{name}", obj)

        self._client = self._buffer()
        for cls, attr, new in methods:
            self._patches.append((cls, attr, vars(cls)[attr]))
            setattr(cls, attr, new)
        for namespace in [vars(self._package)] + [vars(m) for m in modules.values()]:
            self._patch_namespace(namespace, functions)
        self._patch_requests(modules["cli"])

    def _patch_namespace(self, namespace: dict, functions: dict) -> None:
        for key, value in list(namespace.items()):
            if isinstance(value, dict):
                for inner_key, inner in list(value.items()):
                    if _hashable(inner) and inner in functions:
                        self._patches.append((value, inner_key, inner))
                        value[inner_key] = functions[inner]
            elif _hashable(value) and value in functions:
                self._patches.append((namespace, key, value))
                namespace[key] = functions[value]

    def _patch_requests(self, cli) -> None:
        """Number each ``cli.main`` call, so the spans of one request share an id."""
        spanned, tracer = cli.main, self

        def main(argv=None):
            tracer.request += 1
            if argv is not None and "--cross-check" in argv:
                tracer.cross_check_requests.add(tracer.request)
            return spanned(argv)

        self._patches.append((vars(cli), "main", vars(cli)["main"]))
        cli.main = main

    def uninstall(self) -> None:
        for target, key, original in reversed(self._patches):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._patches.clear()

    # -- results -----------------------------------------------------------

    def spans(self) -> dict[str, np.ndarray]:
        """All spans as columns: name, thread, parent row (-1 for none),
        request, start_ns, end_ns, self_ns."""
        blocks = [np.frombuffer(b.spans, dtype=np.int64).reshape(-1, _FIELDS) for b in self._buffers]
        offsets = np.cumsum([0] + [len(x) for x in blocks])
        rows = np.concatenate(blocks) if blocks else np.zeros((0, _FIELDS), np.int64)
        thread = np.repeat(np.arange(len(blocks)), [len(x) for x in blocks])
        gid = rows[:, 1]
        parent = np.where(
            gid < 0, -1, offsets[gid >> _TID_SHIFT] + (gid & ((1 << _TID_SHIFT) - 1))
        )
        start, end = rows[:, 3], rows[:, 4]
        duration = end - start
        covered = np.zeros(len(rows), dtype=np.int64)
        has_parent = parent >= 0
        same = has_parent.copy()
        same[has_parent] = thread[parent[has_parent]] == thread[has_parent]
        np.add.at(covered, parent[same], duration[same])
        # Children run on other threads may overlap each other: count their union.
        for p in np.unique(parent[has_parent & ~same]):
            kids = np.nonzero(parent == p)[0]
            covered[p] = _union_ns(start[kids], end[kids], start[p], end[p])
        return {
            "name": rows[:, 0],
            "thread": thread,
            "parent": parent,
            "request": rows[:, 2],
            "start_ns": start,
            "end_ns": end,
            "self_ns": duration - covered,
        }

    def names(self) -> list[str]:
        return list(self._names)

    def metrics(self, identity_ids) -> dict[str, float]:
        """The per-layer metrics of everything recorded so far."""
        s = self.spans()
        names = self._names
        self_by_name = np.bincount(s["name"], weights=s["self_ns"], minlength=len(names)) / 1e9
        calls_by_name = np.bincount(s["name"], minlength=len(names))
        counts: dict[str, int] = {}
        columns: dict[int, int] = {}
        cells: set = set()
        for b in self._buffers:
            for key, value in b.counts.items():
                counts[key] = counts.get(key, 0) + value
            for p, length in b.columns.items():
                columns[p] = max(columns.get(p, 0), length)
            cells |= b.cells

        def self_s(match) -> float:
            return float(sum(self_by_name[i] for i, n in enumerate(names) if match(n)))

        def calls(name: str) -> int:
            return int(sum(calls_by_name[i] for i, n in enumerate(names) if n == name))

        is_pbell = np.array([n.startswith("pbell.") for n in names], dtype=bool)
        cross = np.isin(s["request"], sorted(self.cross_check_requests))
        pbell_rows = is_pbell[s["name"]]
        families = {f: 0 for f in CACHE_FAMILIES}
        for key in cells:
            families[key[0].split(":", 1)[0]] += 1
        gets, hits = counts.get("gets", 0), counts.get("hits", 0)
        returned = counts.get("column.cells", 0)

        m: dict[str, float] = {}
        for layer in MODULES:
            m[f"{layer}.self_s"] = self_s(lambda n, layer=layer: n.startswith(layer + "."))
        for op in ("egf_mul", "egf_exp", "egf_div", "egf_pow", "egf_compose_em1"):
            m[f"exact_core.{op}.self_s"] = self_s(lambda n, op=op: n == f"exact_core.{op}")
        m["exact_core.egf_mul.calls"] = calls("exact_core.egf_mul")
        m["exact_core.polynomial.self_s"] = self_s(
            lambda n: n.startswith("exact_core.Polynomial.") or n == "exact_core.poly_eval"
        )
        m["exact_core.format_rational.self_s"] = self_s(lambda n: n == "exact_core.format_rational")
        m["special_numbers.stirling2.calls"] = calls("special_numbers.stirling2")
        m["special_numbers.cache.gets"] = gets
        m["special_numbers.cache.hits"] = hits
        m["special_numbers.cache.hit_ratio"] = hits / gets if gets else 0.0
        m["special_numbers.cache.puts"] = counts.get("puts", 0)
        m["special_numbers.cache.cells"] = len(cells)
        for family, n in families.items():
            m[f"special_numbers.cache.cells.{family}"] = n
        m["pbell.column.calls"] = calls("pbell.pbell_column")
        m["pbell.column.cells"] = returned
        m["pbell.cells_used_ratio"] = sum(columns.values()) / returned if returned else 0.0
        m["pbell.ztriangle.self_s"] = self_s(lambda n: n in ("pbell.pbell_z_triangle", "pbell._z_rows"))
        m["pbell.cross_check.self_s"] = float(s["self_ns"][cross & pbell_rows].sum()) / 1e9
        m["pbell.poly.self_s"] = self_s(
            lambda n: n in ("pbell.pbell_poly", "pbell.pbell_poly_weighted", "pbell.zpoly_triangle")
        )
        m["polybell.neg.calls"] = calls("polybell.polybell_neg")
        m["identity_verifier.checks"] = counts.get("verify.checks", 0)
        m["identity_verifier.failed"] = counts.get("verify.failed", 0)
        for identity in identity_ids:
            m[f"identity_verifier.{identity}.s"] = counts.get(f"verify.{identity}.ns", 0) / 1e9
        m["numeric_bridge.hyp1f1.calls"] = calls("numeric_bridge.hyp1f1")
        m["numeric_bridge.hyp1f1.self_s"] = self_s(lambda n: n == "numeric_bridge.hyp1f1")
        m["numeric_bridge.mc.samples"] = counts.get("mc.samples", 0)
        m["numeric_bridge.mc.self_s"] = self_s(
            lambda n: n.startswith("numeric_bridge.RngStream.") or n in MC_SPANS
        )
        m["numeric_bridge.cesaro.evaluations"] = counts.get("cesaro.evaluations", 0)
        m["numeric_bridge.failed"] = counts.get("numeric.failed", 0)
        m["cli.ops"] = calls("cli.main")
        m["cli.exit_nonzero"] = counts.get("cli.exit_nonzero", 0)
        m["trace.threads"] = sum(1 for b in self._buffers if b.spans)
        return m


def _hashable(value) -> bool:
    try:
        hash(value)
    except TypeError:
        return False
    return True


def _union_ns(starts, ends, lo, hi) -> int:
    """Length of the union of [start, end) intervals, clipped to [lo, hi)."""
    total, reach = 0, lo
    for a, b in sorted(zip(np.maximum(starts, lo).tolist(), np.minimum(ends, hi).tolist())):
        if b <= reach:
            continue
        total += b - max(a, reach)
        reach = b
    return total
