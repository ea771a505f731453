"""Per-module timing of flowinverse, installed from outside the package.

:class:`Tracer` replaces the public functions and public methods of the
traced modules by timing wrappers, everywhere the package holds a reference
to them (``from .cfm import sample_posterior`` in ``metrics`` is a second
reference), and puts every original back on :meth:`Tracer.uninstall`.
Two wrappers are special: ``tensor.backward`` times each tape record's
backward closure under the name of the op that recorded it, and
``scipy.sparse.linalg.cg`` is handed a callback that counts iterations.

The span of a call is its wall time including callees. Besides per-name call
counts and times, the tracer counts calls made while a *scope* is open (for
example tensor ops inside ``net.VelocityNet.forward``), which gives the
per-forward and per-inference ratios.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter

import scipy.sparse.linalg

TRACED_MODULES = ("tensor", "net", "cfm", "data", "tasks.seir", "tasks.darcy",
                  "mcmc", "metrics")
PACKAGE = "flowinverse"

# Spans that count, by name, the traced calls made while they are open.
SCOPES = ("net.VelocityNet.forward", "cfm.sample_posterior", "data.load_dataset",
          "mcmc.run_chain")

# Arguments whose size a per-layer metric reports, by span name.
SIZES = {"tasks.seir.SeirTask.simulate_batch": lambda self, m, *rest, **kw: len(m)}


def _public_functions(module):
    """(owner, attribute, name) of the public functions and methods defined
    in ``module``; the name is the span name without the package prefix."""
    short = module.__name__[len(PACKAGE) + 1:]
    found = []
    for attr, value in vars(module).items():
        if attr.startswith("_") or getattr(value, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(value):
            found.append((module, attr, f"{short}.{attr}"))
        elif inspect.isclass(value):
            for meth, fn in vars(value).items():
                if not meth.startswith("_") and inspect.isfunction(fn):
                    found.append((value, meth, f"{short}.{attr}.{meth}"))
    return found


class Tracer:
    """Collects call counts and inclusive wall times per span name."""

    def __init__(self):
        self.calls = Counter()
        self.seconds = defaultdict(float)
        self.items = Counter()            # summed argument sizes, see SIZES
        self.bwd_seconds = defaultdict(float)
        self.cg_iterations = 0
        self.within = Counter()           # (scope, name) -> calls
        self._open_scopes = []
        self._patches = []                # (owner, attribute, original)

    # -- installation --------------------------------------------------------

    def install(self):
        if self._patches:
            raise RuntimeError("tracer is already installed")
        package_modules = [m for name, m in list(sys.modules.items())
                           if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for short in TRACED_MODULES:
            module = importlib.import_module(f"{PACKAGE}.{short}")
            for owner, attr, name in _public_functions(module):
                original = vars(owner)[attr]
                wrapper = self._wrap(name, original)
                self._patch(owner, attr, wrapper)
                if owner is module:
                    for other in package_modules:
                        if other is not module and vars(other).get(attr) is original:
                            self._patch(other, attr, wrapper)
        self._patch(scipy.sparse.linalg, "cg", self._counting_cg(scipy.sparse.linalg.cg))
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    # -- wrappers --------------------------------------------------------------

    def _wrap(self, name, fn):
        if name == "tensor.backward":
            return self._wrap_backward(name, fn)
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, fn)
        size_of = SIZES.get(name)
        is_scope = name in SCOPES
        calls, seconds, within = self.calls, self.seconds, self.within
        open_scopes = self._open_scopes

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            for scope in open_scopes:
                within[scope, name] += 1
            if size_of is not None:
                self.items[name] += size_of(*args, **kwargs)
            if is_scope:
                open_scopes.append(name)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds[name] += perf_counter() - t0
                calls[name] += 1
                if is_scope:
                    open_scopes.pop()

        return traced

    def _wrap_generator(self, name, fn):
        """Time each item a generator yields; a span is one ``next``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                t0 = perf_counter()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self.seconds[name] += perf_counter() - t0
                self.calls[name] += 1
                yield item

        return traced

    def _wrap_backward(self, name, fn):
        """Time the whole sweep, and each record's closure by its op."""
        bwd_seconds = self.bwd_seconds

        def timed(closure):
            op = closure.__qualname__.split(".", 1)[0]

            def run(g):
                t0 = perf_counter()
                try:
                    return closure(g)
                finally:
                    bwd_seconds[op] += perf_counter() - t0

            return run

        @functools.wraps(fn)
        def traced(loss, tape):
            records = tape.records
            tape.records = [(out, inputs, timed(closure)) for out, inputs, closure in records]
            t0 = perf_counter()
            try:
                return fn(loss, tape)
            finally:
                self.seconds[name] += perf_counter() - t0
                self.calls[name] += 1
                tape.records = records

        return traced

    def _counting_cg(self, cg):
        @functools.wraps(cg)
        def counted(*args, callback=None, **kwargs):
            def count(xk):
                self.cg_iterations += 1
                if callback is not None:
                    callback(xk)

            return cg(*args, callback=count, **kwargs)

        return counted

    # -- derived numbers -----------------------------------------------------

    def per_call_ms(self, name):
        n = self.calls[name]
        return 1e3 * self.seconds[name] / n if n else 0.0

    def ratio(self, count, per):
        return count / self.calls[per] if self.calls[per] else 0.0
