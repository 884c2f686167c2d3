"""Per-layer tracing from outside the program, by wrapping its functions.

``Tracer.install`` replaces functions of the ``enritch`` modules with
wrappers and ``uninstall`` puts the originals back.  Modules bind names of
other modules at import (``verify`` and ``hull`` import from ``hull`` and
``categories``), so every module attribute that holds a wrapped function
is replaced, not only the defining one.

One stack gives self time: a call's self time is its duration minus the
time of the wrapped calls it made.  Three kinds of wrapper:

* span: coarse calls (the CLI, suites, tight spans, partial-metric
  commands).  Each call is also recorded as a span (name, start, end,
  parent span, job) and the spans are written out at the end of the run.
* stacked: frequent library calls (categories, relations, the rest of
  hull).  They take part in self time and per-name totals, but record
  no span.
* hot: the diagonal kernel and ``ExtRat`` methods, some 10^7 calls a pass.
  Kernel methods count their calls and time only the outermost kernel
  call, whose duration is the kernel's time; ``ExtRat`` methods only count.
"""

from __future__ import annotations

import inspect
import time
from dataclasses import dataclass, field

KERNEL = ("compose", "limpl", "rimpl", "hom_meet", "hom_join")
EXTRAT_OPS = ("__add__", "monus", "__eq__", "__le__", "__lt__", "__ge__", "__gt__")

# (module, function) pairs that record spans.
SPAN = {
    ("cli", "main"),
    ("verify", "run_suite"),
    ("quantale", "check_quantale_laws"),
    ("hull", "tight_span"),
    ("hull", "is_hypercomplete"),
    ("hull", "tight_span_restriction"),
    ("hull", "is_essential_bruteforce"),
}
SPAN_MODULES = ("fileio", "parmet")
# Every public function of these modules is stacked, so that the time of
# the layers below verify is not charged to the suite.
STACKED_MODULES = ("hull", "categories", "relations")


@dataclass
class Totals:
    calls: int = 0
    self_s: float = 0.0
    total_s: float = 0.0
    yielded: int = 0


@dataclass
class Tracer:
    stack: list = field(default_factory=list)
    totals: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)
    job: str = ""
    kernel_calls: list = field(default_factory=lambda: [0] * len(KERNEL))
    kernel_s: float = 0.0
    extrat_ops: int = 0
    tight_members: int = 0
    tight_columns: int = 0
    kernel_calls_in_tight: int = 0
    missing: list = field(default_factory=list)
    _tight_depth: int = 0
    _kernel_depth: list = field(default_factory=lambda: [0])
    _restore: list = field(default_factory=list)

    # -- wrappers -------------------------------------------------------------

    def _stacked(self, name: str, fn, span: bool, on_result=None):
        totals = self.totals.setdefault(name, Totals())
        stack, spans, clock = self.stack, self.spans, time.perf_counter

        def wrapper(*args, **kwargs):
            start = clock()
            index = -1
            if span:
                index = len(spans)
                spans.append([name, start, None, self._span_parent(), self.job])
            frame = [0.0, index]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                totals.calls += 1
                totals.total_s += elapsed
                totals.self_s += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
                if span:
                    spans[index][2] = end
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _span_parent(self) -> int:
        for frame in reversed(self.stack):
            if frame[1] >= 0:
                return frame[1]
        return -1

    def _generator(self, name: str, fn):
        """Charge each resumption of a generator function to its name."""
        totals = self.totals.setdefault(name, Totals())
        stack, clock = self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            totals.calls += 1
            inner = fn(*args, **kwargs)
            try:
                while True:
                    start = clock()
                    frame = [0.0, -1]
                    stack.append(frame)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        elapsed = clock() - start
                        stack.pop()
                        totals.total_s += elapsed
                        totals.self_s += elapsed - frame[0]
                        if stack:
                            stack[-1][0] += elapsed
                    totals.yielded += 1
                    yield item
            finally:
                inner.close()

        return wrapper

    def _tight_group(self, fn):
        """Count kernel calls made inside tight_span and is_hypercomplete."""
        tracer = self

        def wrapper(*args, **kwargs):
            outer = tracer._tight_depth == 0
            before = sum(tracer.kernel_calls) if outer else 0
            tracer._tight_depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._tight_depth -= 1
                if outer:
                    tracer.kernel_calls_in_tight += sum(tracer.kernel_calls) - before

        return wrapper

    def _kernel(self, index: int, fn):
        tracer, counts, stack, clock = self, self.kernel_calls, self.stack, time.perf_counter
        depth = self._kernel_depth  # shared: limpl calls compose

        def wrapper(*args):
            counts[index] += 1
            if depth[0]:
                return fn(*args)
            depth[0] = 1
            start = clock()
            try:
                return fn(*args)
            finally:
                elapsed = clock() - start
                depth[0] = 0
                tracer.kernel_s += elapsed
                if stack:
                    stack[-1][0] += elapsed

        return wrapper

    def _counted(self, fn):
        tracer = self

        def wrapper(*args):
            tracer.extrat_ops += 1
            return fn(*args)

        return wrapper

    # -- installation ---------------------------------------------------------

    def install(self, modules: dict) -> None:
        """Wrap the functions of the loaded ``enritch`` modules (short names)."""
        targets: dict[int, tuple[str, object]] = {}

        def add(fn) -> None:
            label = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
            targets.setdefault(id(fn), (label, fn))

        for short in STACKED_MODULES + SPAN_MODULES:
            for name in getattr(modules[short], "__all__", ()):
                fn = getattr(modules[short], name, None)
                if inspect.isfunction(fn):
                    add(fn)
        for short, name in sorted(SPAN):
            fn = getattr(modules[short], name, None)
            if inspect.isfunction(fn):
                add(fn)
            else:
                self.missing.append(f"{short}.{name}")
        span_labels = {f"{short}.{name}" for short, name in SPAN}
        hooks = {"hull.tight_span": self._count_members,
                 "hull.is_hypercomplete": self._count_columns}
        for label, fn in targets.values():
            if inspect.isgeneratorfunction(fn):
                wrapped = self._generator(label, fn)
            else:
                span = label in span_labels or label.split(".")[0] in SPAN_MODULES
                wrapped = self._stacked(label, fn, span, hooks.get(label))
                if label in hooks:
                    wrapped = self._tight_group(wrapped)
            for module in modules.values():
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        self._replace(module, attr, wrapped)

        diagonals = modules["diagonals"]
        build_cls = getattr(diagonals, "DiagonalQuantaloid", None)
        if build_cls is None:
            self.missing.append("diagonals.DiagonalQuantaloid")
        else:
            self._replace(build_cls, "__init__",
                          self._stacked("diagonals.build", build_cls.__init__, span=True))
        found = set()
        for cls in vars(diagonals).values():
            if not (inspect.isclass(cls) and cls.__module__ == diagonals.__name__):
                continue
            for i, name in enumerate(KERNEL):
                if name in vars(cls):
                    found.add(name)
                    self._replace(cls, name, self._kernel(i, vars(cls)[name]))
        self.missing.extend(f"diagonals.{name}" for name in KERNEL if name not in found)

        extrat = modules["rationals"].ExtRat
        for name in EXTRAT_OPS:
            if name in vars(extrat):
                self._replace(extrat, name, self._counted(vars(extrat)[name]))
            else:
                self.missing.append(f"rationals.ExtRat.{name}")

    def _replace(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def _count_members(self, span) -> None:
        self.tight_members += len(span.members)

    def _count_columns(self, result) -> None:
        self.tight_columns += result.tight_columns_checked

    # -- results --------------------------------------------------------------

    def calls(self, name: str) -> int:
        if name.startswith("diagonals.") and name[10:] in KERNEL:
            return self.kernel_calls[KERNEL.index(name[10:])]
        return self.totals[name].calls if name in self.totals else 0

    def self_s(self, name: str) -> float:
        return self.totals[name].self_s if name in self.totals else 0.0

    def module_self_s(self, short: str) -> float:
        return sum(t.self_s for name, t in self.totals.items()
                   if name.split(".")[0] == short)
