"""Spans and counts at the package's module boundaries, for the traced run.

``Tracer.install`` replaces selected public functions and methods of the
package's modules with wrappers that record a span around each call: its
layer name, start, end and parent (the enclosing span).  Spans are
aggregated as they close, so memory stays flat however many calls a pass
makes: a layer's self time is the sum of its spans' durations minus the
time covered by their child spans.  ``uninstall`` restores the originals.
Nothing in the package changes on disk.

Layers are named ``<module>.<part>`` (``algebra.fq_mul``, ``repkit.closure``,
...).  Functions of a module that are not listed individually are grouped
as ``<module>.other``; for ``gates``, ``chargeom``, ``splus`` and
``constructions`` every public function and method is one layer named after
the module.  Such catch-all spans open only where a call enters the module
from another one; a call inside the module counts toward its caller's span.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import Counter, defaultdict

MODULES = ("algebra", "repkit", "weilgl", "stonevn", "gates", "chargeom", "splus", "constructions", "cli")
COUNTS = (
    "repkit.closure.elements",
    "repkit.closure.generators",
    "repkit.closure.products",
    "repkit.classes.classes",
    "repkit.classes.products",
    "weilgl.oracle.elements_scanned",
)


class Tracer:
    def __init__(self):
        self._stack = []  # one [child_time, module] frame per open span
        self._patches = []  # (owner, attribute, original)
        self._layers = set()
        self._counted = set()
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.errors = Counter()
        self.counts = Counter()
        self.profiles = set()
        self.cap_used = 0.0

    def reset(self):
        """Start a new pass: clear every aggregate (the wrappers hold them)."""
        for agg in (self.self_s, self.calls, self.errors, self.counts, self.profiles):
            agg.clear()
        self.cap_used = 0.0

    # -- wrapping ------------------------------------------------------

    def _span(self, name, fn, counted=True, before=None, after=None, boundary_only=False):
        """Wrap fn in a span of layer ``name``.  With ``boundary_only`` a call
        from the same module opens no span: its time stays with the caller."""
        stack, self_s, calls, errors = self._stack, self.self_s, self.calls, self.errors
        module = name.partition(".")[0]
        clock = time.perf_counter
        self._layers.add(name)
        if counted:
            self._counted.add(name)

        def span(*args, **kwargs):
            if boundary_only and stack and stack[-1][1] == module:
                return fn(*args, **kwargs)
            state = before(args) if before is not None else None
            frame = [0.0, module]
            stack.append(frame)
            ok = False
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                dt = clock() - t0
                stack.pop()
                self_s[name] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
                if counted:
                    calls[name] += 1
                if not ok and (not stack or stack[-1][1] != module):
                    errors[module] += 1  # the exception leaves the module
            if after is not None:
                after(args, kwargs, result, state)
            return result

        return span

    def function(self, module, attr, name, **kw):
        """Wrap module.attr, and every name bound to it in the package's modules."""
        original = getattr(module, attr)
        wrapper = self._span(name, original, **kw)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or mod_name.partition(".")[0] != "hypermono":
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def method(self, cls, attr, name, **kw):
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self._span(name, original, **kw))

    def module_layer(self, module, name, skip=()):
        """Wrap every public function, and every public plain method of the
        module's own classes, that is not wrapped already or in ``skip``.
        These spans open only where a call enters the module from outside."""
        for attr, value in list(vars(module).items()):
            if attr.startswith("_") or attr in skip:
                continue
            if inspect.isfunction(value) and value.__module__ == module.__name__:
                self.function(module, attr, name, counted=False, boundary_only=True)
            elif inspect.isclass(value) and value.__module__ == module.__name__:
                for m_attr, m_value in list(vars(value).items()):
                    if not m_attr.startswith("_") and inspect.isfunction(m_value) \
                            and m_value.__module__ == module.__name__:
                        self.method(value, m_attr, name, counted=False, boundary_only=True)

    def root(self, fn):
        """Run fn() as a root span of the harness's own layer, ``bench``."""
        return self._span("bench", fn, counted=False)()

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- the package's boundaries ---------------------------------------

    def install(self):
        from hypermono import chargeom, cli, constructions, gates, repkit, splus, stonevn, weilgl
        from hypermono.algebra import cyc, fq

        self.method(fq.FqMatrix, "__mul__", "algebra.fq_mul")
        self.method(fq.FqMatrix, "rank", "algebra.fq_rank")
        self.function(fq, "kernel_dim", "algebra.fq_rank", counted=False)
        self.method(fq.FqMatrix, "order", "algebra.fq_order")
        for attr in ("__mul__", "__rmul__", "__add__", "__radd__", "abs2"):
            self.method(cyc.Cyc, attr, "algebra.cyc_ops")

        def closure_counts(args, kwargs, group, _):
            cap = repkit._cap(kwargs.get("cap", args[1] if len(args) > 1 else None))
            gens = len(group.generators)
            self.counts["repkit.closure.elements"] += group.order
            self.counts["repkit.closure.generators"] += gens
            self.counts["repkit.closure.products"] += group.order * gens
            self.cap_used = max(self.cap_used, group.order / cap)

        def classes_fresh(args):
            return args[0]._classes is None  # computed now, not a memoised answer

        def classes_counts(args, kwargs, classes, fresh):
            if fresh:
                group = args[0]
                self.counts["repkit.classes.classes"] += len(classes)
                self.counts["repkit.classes.products"] += 2 * group.order * len(group.generators)

        self.function(repkit, "closure", "repkit.closure", after=closure_counts)
        self.method(repkit.MatGroup, "conjugacy_classes", "repkit.classes", before=classes_fresh, after=classes_counts)
        self.function(repkit, "m4", "repkit.m4")
        self.method(repkit.CycMatrix, "__mul__", "repkit.cycmat_mul")
        self.module_layer(repkit, "repkit.other")

        def profile_seen(args, kwargs, profile, _):
            self.profiles.add((args[1], profile))

        def scanned(args, kwargs, report, _):
            cap = kwargs.get("cap", args[3] if len(args) > 3 else weilgl.ELEMENT_SCAN_CAP)
            n = report.details["order"] if report.mode == "elements" else min(cap // 10, 20000)
            self.counts["weilgl.oracle.elements_scanned"] += n

        for attr in ("general_linear_group", "unitary_group", "symplectic_group"):
            self.function(weilgl, attr, "weilgl.group_build")
        self.function(weilgl, "ss_exhaustive_check", "weilgl.oracle", after=scanned)
        for attr in ("gl_kernel_profile", "gu_kernel_profile"):
            self.function(weilgl, attr, "weilgl.profile", after=profile_seen)
        self.function(weilgl, "tau_value", "weilgl.weil_value")
        self.function(weilgl, "zeta_value", "weilgl.weil_value")
        self.function(weilgl, "weil_value", "weilgl.weil_value", counted=False)
        self.function(weilgl, "weil_spectrum", "weilgl.spectrum")
        # the form checks run inside the group constructors: left unwrapped,
        # their time stays with the caller (group_build for generators)
        self.module_layer(weilgl, "weilgl.other", skip=("is_unitary", "is_symplectic"))

        self.function(stonevn, "outer_intertwiner_odd", "stonevn.intertwiner")
        self.function(stonevn, "outer_intertwiner_2", "stonevn.intertwiner")
        self.function(stonevn, "sp_mod1_check", "stonevn.mod1_check")
        self.function(stonevn, "ss_sp_oracle", "stonevn.sp_oracle")
        self.function(stonevn, "ss_extr_oracle", "stonevn.extr_oracle")
        self.module_layer(stonevn, "stonevn.other")

        def exit_code(args, kwargs, code, _):
            if code != 0:
                self.errors["cli"] += 1

        self.function(cli, "main", "cli.main", after=exit_code)
        for module in (gates, chargeom, splus, constructions):
            self.module_layer(module, module.__name__.rpartition(".")[2])

    # -- results ---------------------------------------------------------

    def snapshot(self) -> dict:
        """This pass's per-layer numbers: times in s, counts exact."""
        out = {f"{layer}.self_s": self.self_s[layer] for layer in self._layers}
        out.update({f"{layer}.calls": self.calls[layer] for layer in self._counted})
        for module in MODULES:
            out[f"{module}.self_s"] = sum(v for k, v in self.self_s.items() if k.partition(".")[0] == module)
            out[f"{module}.errors"] = self.errors[module]
        out.update({key: self.counts[key] for key in COUNTS})
        out["repkit.closure.cap_used"] = self.cap_used
        calls = self.calls["weilgl.profile"]
        out["weilgl.profile.distinct"] = len(self.profiles)
        out["weilgl.profile.useful_ratio"] = len(self.profiles) / calls if calls else 0.0
        return out
