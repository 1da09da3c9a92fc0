"""Per-layer tracing from outside the library.

``Tracer.install`` replaces public functions and methods of the selfsim
modules with timing wrappers, and ``uninstall`` puts the originals back.
Module functions are replaced in every selfsim module that holds them, so
calls that go through another module's globals (``cli`` importing
``trivial_to_depth``, ``tree_core`` calling its own ``section_word``) are seen.

Each wrapper keeps count and self time (its duration minus the time of the
wrapped calls beneath it) per (parent, callee) pair, so hot leaf calls cost
one dict update and no memory per call.  Full spans are kept only for
non-leaf calls at most two levels below an operation, and for the operations
themselves; every span carries the identifier of its operation.
"""

from __future__ import annotations

import sys
import time
import weakref

_MARK = "_selfsim_bench_traced"

# (metric name, module, owner path, leaf).  The owner path is an attribute of
# the module: a function, or "Class.method".
TARGETS = (
    ("perm_word.Perm.new", "perm_word", "Perm.__init__", True),
    ("perm_word.GroupWord.new", "perm_word", "GroupWord.__init__", True),
    ("tree_core.section_word", "tree_core", "section_word", True),
    ("tree_core.root_perm", "tree_core", "root_perm", True),
    ("tree_core.trivial_to_depth", "tree_core", "trivial_to_depth", False),
    ("tree_core.states", "tree_core", "states", False),
    ("tree_core.find_moving_string", "tree_core", "find_moving_string", False),
    ("gdata_engine.entry", "gdata_engine", "EngineMachine.entry", True),
    ("gdata_engine.schreier", "gdata_engine", "schreier", True),
    ("gdata_engine.cache_key", "gdata_engine", "EngineMachine.cache_key", True),
    ("gdata_engine.state_of", "gdata_engine", "EngineMachine.state_of", True),
    ("wreath_models.data_by_selector", "wreath_models", "data_by_selector", False),
    ("mealy.builtin_machine", "mealy", "builtin_machine", False),
    ("mealy.parse", "mealy", "parse", False),
    ("mealy.emit", "mealy", "emit", False),
    ("mealy.to_dot", "mealy", "to_dot", False),
    ("mealy.machine_to_mealy", "mealy", "machine_to_mealy", False),
    ("cli.main", "cli", "main", False),
    ("cli.recursion_lines", "cli", "recursion_lines", False),
)

_MISSING = object()


def installed_wrappers() -> list[str]:
    """Names of selfsim attributes that currently hold a tracing wrapper."""
    found = []
    for modname, mod in list(sys.modules.items()):
        if not modname.startswith("selfsim") or mod is None:
            continue
        for attr, value in vars(mod).items():
            if getattr(value, _MARK, False):
                found.append(f"{modname}.{attr}")
            if isinstance(value, type):
                for cattr, cvalue in vars(value).items():
                    if getattr(cvalue, _MARK, False):
                        found.append(f"{modname}.{attr}.{cattr}")
    return found


def _model_classes(selfsim):
    """Every group model class with its own multiply/invert."""
    out, todo = [], [selfsim.gdata_engine.GroupModel]
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        if "multiply" in vars(cls):
            out.append(cls)
    return out


class Tracer:
    """Timing wrappers, their aggregates and the spans of one traced phase."""

    def __init__(self, only: frozenset | None = None):
        self.only = only
        self.clock = time.perf_counter
        self.origin = self.clock()
        # frame: [name, child seconds, saw schreier child, depth, span id]
        self.stack = [["root", 0.0, False, 0, None]]
        self.agg: dict[tuple[str, str], list] = {}
        self.spans: list[tuple] = []
        self.op_id = None
        self.out_len_max = 0
        self.cache_key_letters = 0
        self.entry_misses = 0
        self.new_states = 0
        self.kept_states = 0
        self._seen_states: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._patches: list[tuple] = []

    # -- operations --------------------------------------------------------

    def op_begin(self, op_id: int, kind: str) -> None:
        self.op_id = op_id
        self.stack.append([f"op:{kind}", 0.0, False, 0, len(self.spans)])
        self.spans.append(None)  # reserve the id; filled in by op_end
        self._op_start = self.clock()

    def op_end(self) -> None:
        end = self.clock()
        frame = self.stack.pop()
        self.spans[frame[4]] = (
            frame[4], None, self.op_id, frame[0], self._op_start - self.origin, end - self.origin
        )
        self.op_id = None

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, name: str, fn, leaf: bool, after=None):
        stack, agg, spans, clock = self.stack, self.agg, self.spans, self.clock
        marks_parent = name == "gdata_engine.schreier"
        tracer = self

        def traced(*args, **kwargs):
            parent = stack[-1]
            depth = parent[3] + 1
            span_id = None
            if not leaf and depth <= 2 and tracer.op_id is not None:
                span_id = len(spans)
                spans.append(None)  # reserve the id; filled in on exit
            frame = [name, 0.0, False, depth, span_id]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dt = t1 - t0
                parent[1] += dt
                if marks_parent:
                    parent[2] = True
                key = (parent[0], name)
                slot = agg.get(key)
                if slot is None:
                    slot = agg[key] = [0, 0.0]
                slot[0] += 1
                slot[1] += dt - frame[1]
                if span_id is not None:
                    spans[span_id] = (
                        span_id, parent[4], tracer.op_id, name, t0 - tracer.origin, t1 - tracer.origin
                    )
            if after is not None:
                after(args, result, frame)
            return result

        setattr(traced, _MARK, True)
        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _after_section_word(self, args, result, frame):
        if len(result) > self.out_len_max:
            self.out_len_max = len(result)

    def _after_cache_key(self, args, result, frame):
        self.cache_key_letters += len(args[1])

    def _after_entry(self, args, result, frame):
        if frame[2]:
            self.entry_misses += 1

    def _after_state_of(self, args, result, frame):
        machine = args[0]
        seen = self._seen_states.get(machine)
        if seen is None:
            seen = self._seen_states[machine] = set(machine.generators)
        if result not in seen:
            seen.add(result)
            self.new_states += 1

    def _after_states(self, args, result, frame):
        self.kept_states += len(result.states)

    def install(self) -> "Tracer":
        import selfsim

        hooks = {
            "tree_core.section_word": self._after_section_word,
            "gdata_engine.cache_key": self._after_cache_key,
            "gdata_engine.entry": self._after_entry,
            "gdata_engine.state_of": self._after_state_of,
            "tree_core.states": self._after_states,
        }
        for name, modname, path, leaf in TARGETS:
            if self.only is not None and name not in self.only:
                continue
            mod = getattr(selfsim, modname)
            clsname, _, attr = path.rpartition(".")
            if clsname:
                self._patch_class(getattr(mod, clsname), attr, name, leaf, hooks.get(name))
            else:
                self._patch_function(getattr(mod, attr), name, leaf, hooks.get(name))
        for cls in _model_classes(selfsim):
            for attr in ("multiply", "invert"):
                name = f"wreath_models.{attr}"
                if self.only is None or name in self.only:
                    self._patch_class(cls, attr, name, True, None)
        return self

    def _patch_class(self, owner, attr, name, leaf, after):
        original = vars(owner).get(attr, _MISSING)
        fn = getattr(owner, attr)
        setattr(owner, attr, self._wrap(name, fn, leaf, after))
        self._patches.append((owner, attr, original))

    def _patch_function(self, fn, name, leaf, after):
        wrapper = self._wrap(name, fn, leaf, after)
        for modname, mod in list(sys.modules.items()):
            if not modname.startswith("selfsim") or mod is None:
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, attr, wrapper)
                    self._patches.append((mod, attr, fn))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results -----------------------------------------------------------

    def calls(self, name: str, parent: str | None = None) -> int:
        return sum(
            slot[0] for (p, n), slot in self.agg.items() if n == name and parent in (None, p)
        )

    def self_s(self, name: str) -> float:
        return sum(slot[1] for (_, n), slot in self.agg.items() if n == name)

    def layer_metrics(self) -> dict[str, tuple[float, int]]:
        """Per-layer counts, self times and ratios of the traced phase, each
        with its sample count."""
        out: dict[str, tuple[float, int]] = {}
        for name in (
            "perm_word.Perm.new",
            "perm_word.GroupWord.new",
            "tree_core.section_word",
            "tree_core.root_perm",
            "tree_core.trivial_to_depth",
            "tree_core.states",
            "tree_core.find_moving_string",
            "gdata_engine.entry",
            "gdata_engine.schreier",
            "gdata_engine.cache_key",
            "wreath_models.multiply",
            "wreath_models.invert",
        ):
            calls = self.calls(name)
            out[f"{name}.calls"] = (calls, calls)
            out[f"{name}.self_s"] = (self.self_s(name), calls)
        for name in (
            "wreath_models.data_by_selector",
            "mealy.builtin_machine",
            "mealy.parse",
            "mealy.emit",
            "mealy.to_dot",
            "mealy.machine_to_mealy",
            "cli.main",
            "cli.recursion_lines",
        ):
            out[f"{name}.self_s"] = (self.self_s(name), self.calls(name))

        def ratio(part, whole):
            return (part / whole if whole else 0.0, whole)

        out["tree_core.section_word.out_len_max"] = (
            self.out_len_max, self.calls("tree_core.section_word"))
        misses = self.calls("tree_core.root_perm", parent="tree_core.trivial_to_depth")
        out["tree_core.expand.misses"] = (misses, misses)
        out["tree_core.states.kept_ratio"] = ratio(
            self.kept_states, self.calls("tree_core.section_word", parent="tree_core.states"))
        out["gdata_engine.entry.miss_ratio"] = ratio(
            self.entry_misses, self.calls("gdata_engine.entry"))
        out["gdata_engine.cache_key.word_len_mean"] = ratio(
            self.cache_key_letters, self.calls("gdata_engine.cache_key"))
        out["gdata_engine.state_of.new"] = (self.new_states, self.calls("gdata_engine.state_of"))
        return out

    def dump(self) -> dict:
        return {
            "spans": [
                dict(zip(("id", "parent", "op", "name", "start_s", "end_s"), s))
                for s in self.spans
                if s is not None
            ],
            "aggregates": [
                {"parent": p, "name": n, "calls": c, "self_s": t}
                for (p, n), (c, t) in sorted(self.agg.items())
            ],
        }
