"""An outside-in tracer for ssw: spans and counts at each module's public functions.

``install`` replaces the traced functions and methods with wrappers, in their
home module and in every ``ssw`` module that imported them by name, and
``uninstall`` puts the originals back.  A wrapper counts every call.  It opens
a span unless the innermost open span belongs to the same group, so recursion
(``SSet.act`` -> ``_inj`` -> ``SSet.act``) is counted without nested spans.
A group's self time is the time of its spans minus the time of the spans
opened inside them.  Functions that are not traced are charged to the
innermost traced caller.
"""
from __future__ import annotations

import importlib
import inspect
import pkgutil
import sys
from collections import Counter, defaultdict
from time import perf_counter

# Modules whose every public function is one group, named after the module.
WHOLE_MODULES = ("ops", "decor", "catalog", "doc", "cli")

# (module, qualified name, group) of the functions traced one by one.
FUNCTIONS = (
    ("core", "SSet.act", "core.act"),
    ("core", "SSet.face", "core.act"),
    ("core", "SSet.__init__", "core.sset"),
    ("core", "SSet._validate", "core.sset"),
    ("core", "standard_simplex", "core.sset"),
    ("core", "SMap.__init__", "core.smap"),
    ("core", "SMap._validate", "core.smap"),
    ("core", "enumerate_maps", "core.enumerate_maps"),
    ("core", "isomorphisms", "core.isomorphisms"),
    ("tensor", "gray_scaled", "tensor.gray"),
    ("tensor", "gray_marked_n", "tensor.gray"),
    ("tensor", "gray_variant_scalings", "tensor.gray"),
    ("tensor", "thick_join", "tensor.thick_join"),
    ("tensor", "compare_r", "tensor.compare_r"),
    ("tensor", "join_eq_homotopies", "tensor.join_eq_homotopies"),
    ("slices", "build_representable", "slices.build_representable"),
    ("fibration", "has_rlp", "fibration.has_rlp"),
    ("fibration", "problems_for", "fibration.problems_for"),
    ("fibration", "find_lift", "fibration.find_lift"),
)

# Call counters reported under their own names, keyed by traced function.
CALL_COUNTERS = {
    "ops.compose": "ops.compose.calls",
    "ops.epi_mono": "ops.epi_mono.calls",
    "ops.face_op": "ops.face_op.calls",
    "core.SSet.act": "core.act.calls",
    "core.SSet.face": "core.act.calls",
    "core.SSet.__init__": "core.sset.built",
    "core.SSet._validate": "core.sset.validated",
    "core.SMap.__init__": "core.smap.built",
    "core.SMap._validate": "core.smap.validated",
    "core.standard_simplex": "core.standard_simplex.calls",
    "core.enumerate_maps": "core.enumerate_maps.calls",
    "core.isomorphisms": "core.isomorphisms.calls",
    "decor.decorated_isomorphisms": "decor.decorated_isomorphisms.calls",
    "tensor.thick_join": "tensor.thick_join.calls",
    "slices.build_representable": "slices.build_representable.calls",
    "fibration.has_rlp": "fibration.has_rlp.calls",
    "fibration.find_lift": "fibration.find_lift.calls",
}

# The kinds of generator family, the prefix of ``GeneratorFamily.name``.
FAMILY_KINDS = (
    "weak-fibration",
    "inner-horns",
    "outer-horns",
    "boundaries",
    "cartesian-edge",
    "weak-edge",
    "strong-edge",
    "classical-cocartesian",
    "outer-cartesian-anodyne",
    "scaled-anodyne",
)

SELF_TIME_GROUPS = (
    "ops",
    "core.act",
    "core.sset",
    "core.smap",
    "core.enumerate_maps",
    "core.isomorphisms",
    "decor",
    "tensor.gray",
    "tensor.thick_join",
    "tensor.compare_r",
    "tensor.join_eq_homotopies",
    "slices.build_representable",
    "fibration.has_rlp",
    "fibration.problems_for",
    "fibration.find_lift",
    "catalog",
    "doc",
    "cli",
)

COUNT_NAMES = tuple(dict.fromkeys(CALL_COUNTERS.values())) + (
    "core.enumerate_maps.candidates",
    "core.enumerate_maps.maps",
    "slices.cells",
    "fibration.problems",
    "fibration.find_lift.found",
) + tuple(f"fibration.family.{kind}.problems" for kind in FAMILY_KINDS)

TIME_NAMES = tuple(f"{group}.self_s" for group in SELF_TIME_GROUPS) + tuple(
    f"fibration.family.{kind}.s" for kind in FAMILY_KINDS
)


def family_kind(name: str) -> str:
    return name.split("(", 1)[0].strip()


class Tracer:
    def __init__(self):
        self.counts: Counter = Counter()
        self.spans: Counter = Counter()  # spans opened, per group
        self.self_s: defaultdict = defaultdict(float)
        self.family_s: defaultdict = defaultdict(float)
        self._stack: list = []  # open spans: [group, seconds of child spans]
        self._kinds: list = []  # family kinds of the open has_rlp calls
        self._undo: list = []  # (owner, attribute, original)

    # -- spans -----------------------------------------------------------------

    def _timed(self, group, call, *args, **kwargs):
        stack = self._stack
        if stack and stack[-1][0] == group:
            return call(*args, **kwargs)
        self.spans[group] += 1
        frame = [group, 0.0]
        stack.append(frame)
        t0 = perf_counter()
        try:
            return call(*args, **kwargs)
        finally:
            dt = perf_counter() - t0
            stack.pop()
            self.self_s[group] += dt - frame[1]
            if stack:
                stack[-1][1] += dt

    def _wrap(self, fn, group: str, counter: str | None):
        counts, timed = self.counts, self._timed

        def wrapper(*args, **kwargs):
            if counter is not None:
                counts[counter] += 1
            return timed(group, fn, *args, **kwargs)

        return wrapper

    # -- wrappers with extra counts ---------------------------------------------

    def _wrap_enumerate_maps(self, fn, group, counter):
        counts = self.counts
        slot = list(inspect.signature(fn).parameters).index("image_ok")

        def counted(image_ok):
            def check(x, cand):
                counts["core.enumerate_maps.candidates"] += 1
                return True if image_ok is None else image_ok(x, cand)

            return check

        inner = self._wrap(fn, group, counter)

        def wrapper(*args, **kwargs):
            if len(args) > slot:
                args = args[:slot] + (counted(args[slot]),) + args[slot + 1 :]
            else:
                kwargs["image_ok"] = counted(kwargs.get("image_ok"))
            found = inner(*args, **kwargs)
            counts["core.enumerate_maps.maps"] += len(found)
            return found

        return wrapper

    def _wrap_build_representable(self, fn, group, counter):
        inner = self._wrap(fn, group, counter)

        def wrapper(*args, **kwargs):
            result = inner(*args, **kwargs)
            self.counts["slices.cells"] += result.total.base.size()
            return result

        return wrapper

    def _wrap_find_lift(self, fn, group, counter):
        inner = self._wrap(fn, group, counter)

        def wrapper(*args, **kwargs):
            found = inner(*args, **kwargs)
            if found is not None:
                self.counts["fibration.find_lift.found"] += 1
            return found

        return wrapper

    def _wrap_has_rlp(self, fn, group, counter):
        inner = self._wrap(fn, group, counter)
        slot = list(inspect.signature(fn).parameters).index("family")

        def wrapper(*args, **kwargs):
            family = args[slot] if len(args) > slot else kwargs["family"]
            kind = family_kind(family.name)
            self._kinds.append(kind)
            t0 = perf_counter()
            try:
                return inner(*args, **kwargs)
            finally:
                self.family_s[kind] += perf_counter() - t0
                self._kinds.pop()

        return wrapper

    def _wrap_problems_for(self, fn, group, counter):
        """Time the generator across its whole iteration, one span per resume."""
        counts, timed = self.counts, self._timed

        def iterate(it, kind):
            while True:
                try:
                    problem = timed(group, next, it)
                except StopIteration:
                    return
                counts["fibration.problems"] += 1
                counts[f"fibration.family.{kind}.problems"] += 1
                yield problem

        def wrapper(*args, **kwargs):
            kind = self._kinds[-1] if self._kinds else "none"
            return iterate(fn(*args, **kwargs), kind)

        return wrapper

    # -- installation ------------------------------------------------------------

    def _replace(self, module, owner, name: str, wrapper) -> None:
        """Rebind ``owner.name``; for a module-level function also rebind it in
        every loaded ssw module that imported it by name."""
        original = getattr(owner, name)
        self._undo.append((owner, name, original))
        setattr(owner, name, wrapper)
        if owner is not module:
            return
        for modname, other in list(sys.modules.items()):
            if other is None or other is module or not (modname == "ssw" or modname.startswith("ssw.")):
                continue
            for attr, value in list(vars(other).items()):
                if value is original:
                    self._undo.append((other, attr, original))
                    setattr(other, attr, wrapper)

    def _targets(self):
        """(module, owner, attribute, group, counter key) of every traced callable."""
        for short in WHOLE_MODULES:
            module = sys.modules[f"ssw.{short}"]
            for name, value in sorted(vars(module).items()):
                if name.startswith("_") or inspect.isclass(value) or not callable(value):
                    continue
                if getattr(value, "__module__", None) == module.__name__:
                    yield module, module, name, short, f"{short}.{name}"
        for short, qualname, group in FUNCTIONS:
            module = owner = sys.modules[f"ssw.{short}"]
            *path, name = qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            yield module, owner, name, group, f"{short}.{qualname}"

    def install(self) -> "Tracer":
        import ssw

        # Every module must be loaded before rebinding, so that each by-name
        # import of a traced function is found.
        for info in pkgutil.iter_modules(ssw.__path__):
            importlib.import_module(f"ssw.{info.name}")
        special = {
            "enumerate_maps": self._wrap_enumerate_maps,
            "build_representable": self._wrap_build_representable,
            "find_lift": self._wrap_find_lift,
            "has_rlp": self._wrap_has_rlp,
            "problems_for": self._wrap_problems_for,
        }
        for module, owner, name, group, key in list(self._targets()):
            fn = getattr(owner, name)
            wrapper = special.get(name, self._wrap)(fn, group, CALL_COUNTERS.get(key))
            wrapper.__wrapped__ = fn
            self._replace(module, owner, name, wrapper)
        return self

    def uninstall(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    # -- report --------------------------------------------------------------------

    def report(self) -> dict:
        """Every named count and time, zero where nothing happened, plus the
        counts of any family kind missing from FAMILY_KINDS."""
        out = {name: self.counts.get(name, 0) for name in COUNT_NAMES}
        for key in sorted(self.counts):
            out.setdefault(key, self.counts[key])
        for group in SELF_TIME_GROUPS:
            out[f"{group}.self_s"] = self.self_s.get(group, 0.0)
        for kind in FAMILY_KINDS:
            out[f"fibration.family.{kind}.s"] = self.family_s.get(kind, 0.0)
        return out
