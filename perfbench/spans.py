"""In-memory span recorder for the traced benchmark run, and its per-layer report.

The recorder wraps the public functions of each a2tp layer from the outside:
every module-level public function of `cli`, `gf`, `plane`, `presentation`,
`coinv` and `zlinalg` (rebound in every a2tp namespace that imported it), plus
the `FpAbelianGroup` members that do the elimination work.  Nothing under
`src/` is edited; `uninstall()` restores the original objects.

A span is `(name, start, end, parent, op, tag)`: `name` is `<layer>.<function>`,
`parent` the index of the enclosing span (-1 at the root), `op` the id of the
CLI call it belongs to (one per root span), and `tag` marks the zlinalg work
done for the abelianized triangle group Γ_ab.  Start and end are CPU seconds
of the process (`time.process_time`), the clock of the untraced passes too.
"""

from __future__ import annotations

import inspect
import time
from collections import Counter
from contextlib import contextmanager
from typing import Callable, Iterable, NamedTuple, Optional

LAYERS = ("cli", "gf", "plane", "presentation", "coinv", "zlinalg")
GAMMA_TAG = "gamma_ab"


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int
    op: int
    tag: Optional[str] = None


class Tracer:
    def __init__(self) -> None:
        self.counters: Counter = Counter()
        self._rows: list[list] = []  # every span so far, its end filled in on exit
        self._stack: list[int] = []  # ids of the spans still open, innermost last
        self._op = -1
        self._patches: list[tuple[object, str, object]] = []
        self._gamma_ids: set[int] = set()
        self._gamma_keep: list[object] = []  # keeps marked matrices alive, so ids stay unique

    # -- recording ---------------------------------------------------------

    def _enter(self, name: str, tag: Optional[str]) -> int:
        if not self._stack:
            self._op += 1
        sid = len(self._rows)
        parent = self._stack[-1] if self._stack else -1
        self._rows.append([name, time.process_time(), 0.0, parent, self._op, tag])
        self._stack.append(sid)
        return sid

    def _exit(self, sid: int) -> None:
        self._rows[sid][2] = time.process_time()
        self._stack.pop()

    def call(self, name: str, fn: Callable, *args, tag: Optional[str] = None, **kwargs):
        sid = self._enter(name, tag)
        try:
            return fn(*args, **kwargs)
        finally:
            self._exit(sid)

    def finish(self) -> list[Span]:
        """Every span recorded so far; call it when no span is open."""
        if self._stack:
            raise RuntimeError("finish() called inside an open span")
        return [Span(*row) for row in self._rows]

    # -- installation ------------------------------------------------------

    def _rebind(self, namespaces: Iterable[object], original: object, replacement: object) -> None:
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if value is original:
                    self._patches.append((ns, attr, original))
                    setattr(ns, attr, replacement)

    def _wrap_function(self, name: str, fn: Callable) -> Callable:
        def traced(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if name == "presentation.find_m_subset":
                self.counters["m_subset_found"] += bool(getattr(result, "found", False))
            elif name == "coinv.gamma_ab_matrix":
                self._gamma_ids.add(id(result))
                self._gamma_keep.append(result)
            return result

        return traced

    def _tag(self, group) -> Optional[str]:
        return GAMMA_TAG if id(getattr(group, "relations", None)) in self._gamma_ids else None

    def _patch_attr(self, cls: type, attr: str, replacement: object) -> None:
        self._patches.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, replacement)

    def _wrap_group(self, cls: type) -> None:
        """Spans for the elimination members of FpAbelianGroup.

        `hnf` and `snf` are cached properties: a span is recorded only for the
        call that computes the value.  The `snf` span starts after the HNF is
        available, so `zlinalg.snf` never includes HNF time.
        """
        members = vars(cls)
        hnf, snf = members.get("hnf"), members.get("snf")
        if isinstance(hnf, property):
            def hnf_get(group, _get=hnf.fget):
                if getattr(group, "_hnf", None) is not None:
                    return _get(group)
                rows_in = len(set(group.relations.rows))
                basis = self.call("zlinalg.hnf", _get, group, tag=self._tag(group))
                self.counters["hnf_rows_in"] += rows_in
                self.counters["hnf_rank"] += getattr(basis, "rank", 0)
                return basis
            self._patch_attr(cls, "hnf", property(hnf_get))
        if isinstance(snf, property):
            def snf_get(group, _get=snf.fget):
                if getattr(group, "_snf", None) is not None:
                    return _get(group)
                group.hnf
                return self.call("zlinalg.snf", _get, group, tag=self._tag(group))
            self._patch_attr(cls, "snf", property(snf_get))
        if "quotient_by" in members:
            def quotient_by(group, *args, _fn=members["quotient_by"], **kwargs):
                return self.call("zlinalg.quotient", _fn, group, *args, **kwargs)
            self._patch_attr(cls, "quotient_by", quotient_by)
        if "element_order" in members:
            def element_order(group, element, method="auto", _fn=members["element_order"]):
                return self.call(f"zlinalg.order_{method}", _fn, group, element, method)
            self._patch_attr(cls, "element_order", element_order)

    def install(self, package) -> None:
        """Wrap the layers of the imported a2tp `package` (its submodules loaded)."""
        modules = {layer: getattr(package, layer) for layer in LAYERS}
        namespaces = [package, *modules.values()]
        for layer, module in modules.items():
            for fname, fn in list(vars(module).items()):
                if (
                    inspect.isfunction(fn)
                    and fn.__module__ == module.__name__
                    and not fname.startswith("_")
                ):
                    self._rebind(namespaces, fn, self._wrap_function(f"{layer}.{fname}", fn))
        group_cls = getattr(modules["zlinalg"], "FpAbelianGroup", None)
        if group_cls is not None:
            self._wrap_group(group_cls)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        self._gamma_ids.clear()
        self._gamma_keep.clear()

    @contextmanager
    def installed(self, package):
        self.install(package)
        try:
            yield self
        finally:
            self.uninstall()


# -- report ----------------------------------------------------------------


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return [(s.end - s.start) - _covered(children.get(i, [])) for i, s in enumerate(spans)]


def layer_self_times(spans: list[Span]) -> dict[str, float]:
    """Self time summed per layer (the part of the name before the first dot)."""
    out = {layer: 0.0 for layer in LAYERS}
    for s, t in zip(spans, self_times(spans)):
        layer = s.name.split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + t
    return out


def inclusive_time(spans: list[Span], match: Callable[[Span], bool]) -> float:
    """Wall time inside matching spans, counting a span nested in another match once."""
    total = 0.0
    for s in spans:
        if not match(s):
            continue
        p = s.parent
        while p >= 0 and not match(spans[p]):
            p = spans[p].parent
        if p < 0:
            total += s.end - s.start
    return total


def count(spans: list[Span], name: str) -> int:
    return sum(1 for s in spans if s.name == name)


def _named(*names: str) -> Callable[[Span], bool]:
    wanted = set(names)
    return lambda s: s.name in wanted


def layer_metrics(spans: list[Span], counters: Counter, passes: int) -> dict[str, float]:
    """The per-layer metrics of `passes` traced workload passes, per pass."""
    per = 1.0 / passes
    layers = layer_self_times(spans)
    incl = lambda *names: inclusive_time(spans, _named(*names)) * per
    m_calls = count(spans, "presentation.find_m_subset")
    rows_in = counters["hnf_rows_in"]
    return {
        "zlinalg.hnf_s": incl("zlinalg.hnf"),
        "zlinalg.hnf_calls": count(spans, "zlinalg.hnf") * per,
        "zlinalg.hnf_rows_in": rows_in * per,
        "zlinalg.hnf_rank": counters["hnf_rank"] * per,
        "zlinalg.hnf_useful_ratio": counters["hnf_rank"] / rows_in if rows_in else 0.0,
        "zlinalg.snf_s": incl("zlinalg.snf"),
        "zlinalg.order_quotient_s": incl("zlinalg.order_quotient"),
        "zlinalg.order_transform_s": incl("zlinalg.order_transform"),
        "zlinalg.quotient_s": incl("zlinalg.quotient"),
        "zlinalg.self_s": layers["zlinalg"] * per,
        "coinv.analyze_s": incl("coinv.analyze"),
        "coinv.self_s": layers["coinv"] * per,
        "coinv.relation_matrix_s": incl("coinv.relation_matrix"),
        "coinv.relation_matrix_calls": count(spans, "coinv.relation_matrix") * per,
        "coinv.gamma_ab_s": inclusive_time(
            spans, lambda s: s.name == "coinv.gamma_ab_matrix" or s.tag == GAMMA_TAG
        ) * per,
        "coinv.lower_bound_s": incl("coinv.check_lower_bound"),
        "presentation.m_subset_s": incl("presentation.find_m_subset"),
        "presentation.m_subset_found_ratio": (
            counters["m_subset_found"] / m_calls if m_calls else 0.0
        ),
        "presentation.read_s": incl("presentation.read_presentation"),
        "presentation.validate_s": incl("presentation.validate"),
        "presentation.validate_calls": count(spans, "presentation.validate") * per,
        "presentation.gen_s": incl(
            "presentation.gen_t0", "presentation.gen_t0_dual",
            "presentation.twist", "presentation.twist_by_name",
        ),
        "presentation.self_s": layers["presentation"] * per,
        "plane.build_plane_s": incl("plane.build_plane"),
        "plane.build_plane_calls": count(spans, "plane.build_plane") * per,
        "plane.self_s": layers["plane"] * per,
        "gf.build_field_s": incl("gf.build_field"),
        "gf.self_s": layers["gf"] * per,
        "cli.self_s": layers["cli"] * per,
    }
