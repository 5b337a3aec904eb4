"""Span tracer that times pathdom's layers from outside the package.

``Tracer.install()`` replaces every public function of each layer module
(``pathdom.<layer>``) with a timing wrapper, in every ``pathdom.*``
namespace that imported it, and wraps the entries of
``pathdom.verify.SUITES``.  ``uninstall()`` puts the originals back.
Nothing under ``src/`` is edited.

A span opens when a wrapped function is entered and closes when it
returns or raises.  Spans are aggregated in memory as they close, so
memory stays bounded however many calls a pass makes:

* per layer: calls and self time (span duration minus the time covered
  by its child spans);
* per function: calls and inclusive time of its outermost spans (a
  recursive call is not counted twice);
* per caller -> callee edge: calls, so the span tree can be read back;
* solves: distinct argument tuples passed to ``domination_number`` or
  ``constrained_domination_number`` since the last ``clear_caches``,
  split by whether an ``oracle`` or a ``path_addition`` span was open,
  and charged to the innermost open verification suite.
"""

import functools
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict

LAYERS = (
    "graphs",
    "families",
    "formats",
    "domination",
    "path_addition",
    "oracle",
    "verify",
    "cli",
)

# Bitmask helpers run inside the search kernel's inner loops; wrapping
# them would time the tracer, not the layer.  Generator functions are
# skipped too, since a wrapper would only time the generator's creation.
SKIP = frozenset({"bits", "mask_of", "set_of", "pair_index"})

SOLVE_FUNCTIONS = frozenset({"domination_number", "constrained_domination_number"})


def _solve_key(name, args, kwargs):
    if name == "domination_number":
        return (name, args[0])
    g = args[0]
    include = kwargs.get("include", args[1] if len(args) > 1 else ())
    exclude = kwargs.get("exclude", args[2] if len(args) > 2 else ())
    return (name, g, frozenset(include), frozenset(exclude))


class Tracer:
    def __init__(self):
        self.layer_calls = Counter()
        self.layer_self = defaultdict(float)
        self.fn_calls = Counter()
        self.fn_incl = defaultdict(float)
        self.edges = Counter()
        self.solves = Counter()
        self._seen = set()
        self._open = Counter()
        self._depth = Counter()
        self._suite = None
        # one entry per open span: [layer, name, time covered by children]
        self._stack = [["-", "-", 0.0]]
        self._patched = []

    # -- installation -------------------------------------------------------

    def install(self):
        import pathdom.verify

        originals = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"pathdom.{layer}")
            for name in getattr(mod, "__all__", ()):
                obj = getattr(mod, name, None)
                if (
                    name in SKIP
                    or not callable(obj)
                    or isinstance(obj, type)
                    or getattr(obj, "__module__", None) != mod.__name__
                    or inspect.isgeneratorfunction(inspect.unwrap(obj))
                ):
                    continue
                originals[id(obj)] = (obj, self._wrap(layer, name, obj))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "pathdom" or mod_name.startswith("pathdom.")):
                continue
            for attr, value in list(vars(mod).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, hit[1])
        suites = pathdom.verify.SUITES
        for name, fn in list(suites.items()):
            self._patched.append((suites, name, fn))
            suites[name] = self._wrap("verify", f"suite.{name}", fn)
        return self

    def uninstall(self):
        for target, attr, original in reversed(self._patched):
            if isinstance(target, dict):
                target[attr] = original
            else:
                setattr(target, attr, original)
        self._patched.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # -- the wrapper --------------------------------------------------------

    def _wrap(self, layer, name, fn):
        tracer = self
        fkey = (layer, name)
        solve = layer == "domination" and name in SOLVE_FUNCTIONS
        resets = layer == "domination" and name == "clear_caches"
        suite = name if layer == "verify" and name.startswith("suite.") else None
        stack, depth, opened = self._stack, self._depth, self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if solve:
                tracer._count_solve(name, args, kwargs)
            elif resets:
                tracer._seen.clear()
            parent = stack[-1]
            tracer.edges[(parent[0], parent[1], layer, name)] += 1
            frame = [layer, name, 0.0]
            outer_suite = tracer._suite
            if suite:
                tracer._suite = suite
            stack.append(frame)
            depth[fkey] += 1
            opened[layer] += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                tracer._suite = outer_suite
                opened[layer] -= 1
                depth[fkey] -= 1
                parent[2] += dur
                tracer.layer_calls[layer] += 1
                tracer.layer_self[layer] += dur - frame[2]
                tracer.fn_calls[fkey] += 1
                if not depth[fkey]:
                    tracer.fn_incl[fkey] += dur

        return traced

    def _count_solve(self, name, args, kwargs):
        key = _solve_key(name, args, kwargs)
        if key in self._seen:
            return
        self._seen.add(key)
        self.solves["domination"] += 1
        if self._open["oracle"]:
            self.solves["oracle"] += 1
        if self._open["path_addition"]:
            self.solves["path_addition"] += 1
        if self._suite:
            self.solves[self._suite] += 1

    # -- results ------------------------------------------------------------

    def counts(self):
        """Every deterministic count the tracer keeps, keyed by a stable name."""
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = self.layer_calls[layer]
        for (layer, name), calls in sorted(self.fn_calls.items()):
            out[f"{layer}.{name}.calls"] = calls
        out["domination.solves"] = self.solves["domination"]
        out["oracle.solves"] = self.solves["oracle"]
        out["path_addition.search_solves"] = self.solves["path_addition"]
        for key, solves in sorted(self.solves.items()):
            if key.startswith("suite."):
                out[f"verify.{key}.solves"] = solves
        for (pl, pn, cl, cn), calls in sorted(self.edges.items()):
            out[f"edge:{pl}.{pn}->{cl}.{cn}"] = calls
        return out
