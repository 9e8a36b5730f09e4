"""Spans and counters around the package's layers, installed from outside.

Nothing under src/ is edited.  `install` wraps every public function of
each package module and rebinds the wrapper under every module-level
name that refers to the original, so calls through an imported name
(`hecke.apply_delta`, `schubert.apply_word`, `cli.normal_form`, ...) are
traced too.  `Poly` and `CheckReport` methods are patched on the class.
`uninstall` puts every original back, so untraced batches run the
unmodified program.

A span is (name, start, end, parent, op id), kept in memory.  A span's
self time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import collections
import functools
import inspect
import time

MODULES = ("polycore", "fgl", "combi", "ddo", "schubert", "coinv", "hecke", "grass", "report", "cli")

# Per-term helpers: a span each would cost more than the work they time.
SKIP = {"polycore.term_sort_key"}

POLY_METHODS = {
    "__mul__": "polycore.mul",
    "__add__": "polycore.addsub",
    "__sub__": "polycore.addsub",
    "__neg__": "polycore.addsub",
    "sigma": "polycore.sigma",
    "div_diff": "polycore.div_diff",
    "truncate": "polycore.truncate",
    "render_text": "polycore.io",
    "to_json_obj": "polycore.io",
    "to_json": "polycore.io",
    "parse_text": "polycore.io",
    "from_json_obj": "polycore.io",
    "from_json": "polycore.io",
}

# span name -> metric group, for functions whose group is not "<module>"
GROUPS = {
    "polycore.series_invert_unit": "polycore.series",
    "ddo.apply_c": "ddo.apply_c",
    "ddo.apply_delta": "ddo.apply_delta",
    "schubert.schubert_polynomial": "schubert.schubert_polynomial",
    "coinv.normal_form": "coinv.normal_form",
    "coinv.expand_in_basis": "coinv.expand_in_basis",
    "combi.reduced_words": "combi.reduced_words",
    "hecke.hecke_mul": "hecke.hecke_mul",
    "hecke.ideal_delete": "hecke.delete",
    "hecke.window_delete": "hecke.delete",
    "report.CheckReport.to_json_obj": "report.render",
    "report.CheckReport.summary_lines": "report.render",
    "cli.main": "cli.main",
    "cli.build_parser": "cli.build_parser",
}
# whole modules that count as one group
MODULE_GROUPS = {"fgl", "grass"}


def group_of(name: str) -> str | None:
    if name in GROUPS:
        return GROUPS[name]
    if name.startswith("polycore.Poly."):
        return POLY_METHODS.get(name.rsplit(".", 1)[1])
    module = name.split(".", 1)[0]
    return module if module in MODULE_GROUPS else None


def _is_traceable(obj) -> bool:
    return inspect.isfunction(obj) or isinstance(obj, functools._lru_cache_wrapper)


class Tracer:
    def __init__(self, package):
        self.mods = {name: getattr(package, name) for name in MODULES}
        self.all_mods = list(self.mods.values()) + [package]
        self.names: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.op: list[int] = []
        self.stack: list[int] = []
        self.op_id = -1
        self.counts: collections.Counter = collections.Counter()
        self.prefixes: set = set()
        self._restore: list = []
        # lru caches by module, read through cache_info()
        self.caches = {
            name: [obj for obj in vars(mod).values() if isinstance(obj, functools._lru_cache_wrapper)]
            for name, mod in self.mods.items()
        }
        self._cache_before: dict = {}
        self.hooks = {**HOOKS, "schubert.schubert_polynomial": self._schubert}

    # -- spans ------------------------------------------------------------

    def _wrap(self, name, fn, hook=None):
        names, start, end, parent, op, stack = (
            self.names, self.start, self.end, self.parent, self.op, self.stack)
        counts, clock = self.counts, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parent.append(stack[-1] if stack else -1)
            op.append(self.op_id)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if hook is not None and not kwargs:
                hook(counts, args, result)
            return result

        functools.update_wrapper(wrapper, fn)
        return wrapper

    # -- install / uninstall ------------------------------------------------

    def install(self) -> None:
        wrappers = {}
        for short, mod in self.mods.items():
            for attr, obj in list(vars(mod).items()):
                name = f"{short}.{attr}"
                if attr.startswith("_") or name in SKIP or not _is_traceable(obj):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                wrappers[obj] = self._wrap(name, obj, self.hooks.get(name))
        for mod in self.all_mods:
            for attr, obj in list(vars(mod).items()):
                if _is_traceable(obj) and obj in wrappers:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])

        poly_cls = self.mods["polycore"].Poly
        for attr in POLY_METHODS:
            self._patch_method(poly_cls, attr, f"polycore.Poly.{attr}")
        report_cls = self.mods["report"].CheckReport
        for attr in ("to_json_obj", "summary_lines"):
            self._patch_method(report_cls, attr, f"report.CheckReport.{attr}")
        original_add = report_cls.__dict__["add"]
        counts = self.counts

        def add(rep, label, ok, annotated=False, detail=""):
            counts["report.cases"] += 1
            counts["report.findings"] += bool(annotated and not ok)
            return original_add(rep, label, ok, annotated, detail)

        self._restore.append((report_cls, "add", original_add))
        report_cls.add = add
        self._cache_before = self._cache_snapshot()

    def _patch_method(self, cls, attr, name) -> None:
        raw = cls.__dict__[attr]
        hook = self.hooks.get(name)
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(self._wrap(name, raw.__func__, hook)))
        else:
            setattr(cls, attr, self._wrap(name, raw, hook))
        self._restore.append((cls, attr, raw))

    def uninstall(self) -> None:
        for owner, attr, obj in reversed(self._restore):
            setattr(owner, attr, obj)
        self._restore.clear()
        after = self._cache_snapshot()
        for key, (hits, misses) in after.items():
            h0, m0 = self._cache_before.get(key, (0, 0))
            self.counts[f"{key}.hits"] += hits - h0
            self.counts[f"{key}.misses"] += misses - m0

    def _cache_snapshot(self) -> dict:
        out = {}
        for name, caches in self.caches.items():
            infos = [c.cache_info() for c in caches]
            out[f"cache.{name}"] = (sum(i.hits for i in infos), sum(i.misses for i in infos))
        return out

    def _schubert(self, counts, args, result):
        ctx, word = args[0], tuple(args[1])
        counts["schubert.schubert_polynomial.letters"] += len(word)
        self.prefixes.update((ctx, word[:k]) for k in range(1, len(word) + 1))

    def cache_size(self, module: str) -> int:
        return sum(c.cache_info().currsize for c in self.caches[module])

    # -- results ------------------------------------------------------------

    def group_totals(self) -> tuple[collections.Counter, collections.Counter]:
        """Calls and self seconds per metric group."""
        child = [0.0] * len(self.names)
        for idx, par in enumerate(self.parent):
            if par >= 0:
                child[par] += self.end[idx] - self.start[idx]
        calls: collections.Counter = collections.Counter()
        self_s: collections.Counter = collections.Counter()
        for idx, name in enumerate(self.names):
            group = group_of(name)
            if group is None:
                continue
            calls[group] += 1
            self_s[group] += self.end[idx] - self.start[idx] - child[idx]
        return calls, self_s

    def dump(self, path: str) -> None:
        """All spans, gzipped JSON lines: a header with the span names and
        the clock origin, then one [name id, start ns, end ns, parent, op id]
        per span."""
        import gzip
        import json

        ids = {name: i for i, name in enumerate(dict.fromkeys(self.names))}
        t0 = min(self.start, default=0.0)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write(json.dumps({"names": list(ids), "t0_s": t0}) + "\n")
            for name, start, end, parent, op in zip(self.names, self.start, self.end, self.parent, self.op):
                fh.write(json.dumps([ids[name], round((start - t0) * 1e9), round((end - t0) * 1e9), parent, op]) + "\n")

# -- counters taken at the span boundaries --------------------------------

def _apply_c(counts, args, result):
    counts["ddo.apply_c.terms_in"] += len(args[2].terms)
    counts["ddo.apply_c.terms_out"] += len(result.terms)


def _mul(counts, args, result):
    other = args[1]
    if hasattr(other, "terms"):
        counts["polycore.mul.term_pairs"] += len(args[0].terms) * len(other.terms)
        counts["polycore.mul.terms_out"] += len(result.terms)


def _div_diff(counts, args, result):
    counts["polycore.div_diff.terms_in"] += len(args[0].terms)


def _truncate(counts, args, result):
    counts["polycore.truncate.terms_in"] += len(args[0].terms)
    counts["polycore.truncate.terms_out"] += len(result.terms)


def _normal_form(counts, args, result):
    counts["coinv.normal_form.terms_in"] += len(args[0].terms)
    counts["coinv.normal_form.terms_out"] += len(result.terms)


def _expand(counts, args, result):
    # one unknown per basis class and admissible m1^a m2^b, as expand_in_basis sets up
    f, basis = args[0], args[1]
    fdeg = f.graded_degree()[1]
    if fdeg is None:
        return
    for b in basis:
        gap = b.graded_degree()[1] - fdeg
        if gap >= 0:
            counts["coinv.expand_in_basis.unknowns"] += gap // 2 + 1


def _hecke_mul(counts, args, result):
    counts["hecke.hecke_mul.pairs"] += len(args[0].coeffs) * len(args[1].coeffs)


HOOKS = {
    "ddo.apply_c": _apply_c,
    "polycore.Poly.__mul__": _mul,
    "polycore.Poly.div_diff": _div_diff,
    "polycore.Poly.truncate": _truncate,
    "coinv.normal_form": _normal_form,
    "coinv.expand_in_basis": _expand,
    "hecke.hecke_mul": _hecke_mul,
}

