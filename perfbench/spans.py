"""In-process span tracer for the blocklab benchmark.

Wraps every public function and public method of the package's modules,
plus the numpy.linalg calls that do the LAPACK work, in timing wrappers.
A span is named ``<layer>.<function>``; methods drop the class name, so
``CubeSpec.axis_offsets`` is ``lattice.axis_offsets``.  Spans nest on a
stack: a span's self time is its duration minus the durations of the spans
it called.  Spans are aggregated in memory per name (calls, self time,
outermost inclusive time) and per caller -> callee edge.

Counters that need a look at arguments or results (distinct matrices,
bytes written, ...) run in hooks.  Hook time is booked to the pseudo-span
``trace.hooks``, so that the self times of all spans plus the time outside
any span add up to the traced wall time exactly.
"""

import functools
import hashlib
import inspect
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

LAYERS = ("lattice", "disorder", "operators", "spectral", "inequalities",
          "green", "asymptotics", "harness")
KERNEL_LAYER = "kernel"
KERNEL_FUNCTIONS = ("eigvalsh", "eigh", "solve")
HOOK_SPAN = "trace.hooks"
_MARK = "__perfbench_span__"


class TraceError(RuntimeError):
    """A wrapper is missing from a binding site, or was left behind."""


@dataclass
class SpanStats:
    calls: int = 0
    self_s: float = 0.0
    total_s: float = 0.0    # inclusive time of outermost activations only


def _matrix_key(m) -> bytes:
    a = np.ascontiguousarray(m)
    h = hashlib.blake2b(a, digest_size=16)
    h.update(repr((a.shape, a.dtype.str)).encode())
    return h.digest()


class Counters:
    """Argument- and result-level counters taken at layer boundaries."""

    def __init__(self):
        self.fields = set()
        self.draws = 0
        self.matrices = set()
        self.dim_max = 0
        self.flops = 0
        self.resolvents = set()
        self.items = 0
        self.csv_bytes = 0
        self.errors = 0

    def sample_field(self, args, kwargs, result):
        seed = getattr(args[1] if len(args) > 1 else kwargs.get("config"),
                       "master_seed", None)
        self.fields.add((result.cube, seed, result.realization_index))
        self.draws += len(result.V) + len(result.B)

    def eigensolve(self, args, kwargs, result):
        m = (args[0] if args else kwargs["op"]).matrix
        self.matrices.add(_matrix_key(m))
        dim = m.shape[0]
        self.dim_max = max(self.dim_max, dim)
        self.flops += dim ** 3

    def resolvent(self, args, kwargs, result):
        op = args[0] if args else kwargs["op"]
        energy = args[1] if len(args) > 1 else kwargs["energy"]
        self.resolvents.add((_matrix_key(op.matrix), float(energy)))

    def run_realizations(self, args, kwargs, result):
        self.items += len(result)

    def write_csv(self, args, kwargs, result):
        self.csv_bytes += result.stat().st_size

    def hooks(self) -> dict:
        return {"disorder.sample_field": self.sample_field,
                "spectral.eigensolve": self.eigensolve,
                "green.resolvent": self.resolvent,
                "spectral.run_realizations": self.run_realizations,
                "harness.write_csv": self.write_csv}


def _function(raw):
    """The plain function behind a method, static/class method or property."""
    return raw.fget if isinstance(raw, property) else getattr(raw, "__func__", raw)


def _public_callables(module):
    """(owner, attribute, raw object, span name) for every public callable
    defined in the module: functions, and methods, static/class methods and
    property getters of its classes.  Generator functions are skipped: a
    wrapper would time only the creation of the generator."""
    layer = module.__name__.rsplit(".", 1)[-1]
    for name, obj in list(vars(module).items()):
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj):
            yield module, name, obj, f"{layer}.{name}"
        elif inspect.isclass(obj):
            for attr, raw in list(vars(obj).items()):
                if attr.startswith("_"):
                    continue
                fn = _function(raw)
                if inspect.isfunction(fn) and not inspect.isgeneratorfunction(fn):
                    yield obj, attr, raw, f"{layer}.{attr}"


def _rebind(raw, wrap):
    """The descriptor `raw` with its function replaced by wrap(function)."""
    if isinstance(raw, property):
        return property(wrap(raw.fget), raw.fset, raw.fdel, raw.__doc__)
    if isinstance(raw, staticmethod):
        return staticmethod(wrap(raw.__func__))
    if isinstance(raw, classmethod):
        return classmethod(wrap(raw.__func__))
    return wrap(raw)


class Tracer:
    """Install with `install()`, run the workload, then `remove()`.

    The tracer is single-threaded: the traced run must execute inline
    (workers = 1), since pool workers would run the unwrapped code.
    """

    def __init__(self, package: str = "blocklab"):
        self.package = package
        self.stats = defaultdict(SpanStats)
        self.edges = defaultdict(int)
        self.counters = Counters()
        self.covered_s = 0.0        # time inside root-level spans and hooks
        self._stack = []            # [name, child seconds] per open span
        self._active = defaultdict(int)
        self._patched = []          # (owner, attribute, original raw object)
        self._originals = {}        # id -> original function, for the scans

    # -- accounting ------------------------------------------------------

    def _book(self, seconds):
        """Charge time spent outside any span's own work to its caller."""
        if self._stack:
            self._stack[-1][1] += seconds
        else:
            self.covered_s += seconds

    def _run_hook(self, hook, args, kwargs, result):
        t0 = time.perf_counter()
        try:
            hook(args, kwargs, result)
        except Exception:       # a counter must never break the traced run
            self.counters.errors += 1
        dt = time.perf_counter() - t0
        hs = self.stats[HOOK_SPAN]
        hs.calls += 1
        hs.self_s += dt
        hs.total_s += dt
        self._book(dt)

    def _wrap(self, name, fn, hook=None):
        stats = self.stats[name]
        stack, active, edges = self._stack, self._active, self.edges
        clock = time.perf_counter

        def span(*args, **kwargs):
            edges[(stack[-1][0] if stack else None, name)] += 1
            frame = [name, 0.0]
            stack.append(frame)
            active[name] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                active[name] -= 1
                stats.calls += 1
                stats.self_s += dur - frame[1]
                if not active[name]:
                    stats.total_s += dur
                self._book(dur)
            if hook is not None:
                self._run_hook(hook, args, kwargs, result)
            return result

        functools.update_wrapper(span, fn)
        setattr(span, _MARK, name)
        return span

    # -- installation ----------------------------------------------------

    def _modules(self):
        return [m for n, m in sorted(sys.modules.items())
                if m is not None and (n == self.package
                                      or n.startswith(self.package + "."))]

    def _binding_sites(self, target):
        """Every module global and module-level dict slot of the package
        (and numpy.linalg) that holds `target`."""
        import numpy.linalg as la
        for mod in self._modules() + [la]:
            for name, val in list(vars(mod).items()):
                if val is target:
                    yield vars(mod), name
                elif isinstance(val, dict) and mod is not la:
                    for key, item in list(val.items()):
                        if item is target:
                            yield val, key

    def install(self):
        import numpy.linalg as la
        if self._patched:
            raise TraceError("tracer already installed")
        hooks = self.counters.hooks()
        targets = []
        for layer in LAYERS:
            module = sys.modules.get(f"{self.package}.{layer}")
            if module is None:
                raise TraceError(f"{self.package}.{layer} is not imported")
            targets.extend(_public_callables(module))
        for fname in KERNEL_FUNCTIONS:
            targets.append((la, fname, getattr(la, fname),
                            f"{KERNEL_LAYER}.{fname}"))

        for owner, attr, raw, name in targets:
            def wrap(fn, name=name):
                return self._wrap(name, fn, hooks.get(name))
            if isinstance(owner, type):
                fn = _function(raw)
                self._originals[id(fn)] = fn
                setattr(owner, attr, _rebind(raw, wrap))
                self._patched.append((owner, attr, raw))
                continue
            wrapped = wrap(raw)
            self._originals[id(raw)] = raw
            for namespace, key in list(self._binding_sites(raw)):
                namespace[key] = wrapped
                self._patched.append((namespace, key, raw))
        self.check_installed()

    def remove(self):
        for owner, attr, raw in reversed(self._patched):
            if isinstance(owner, type):
                setattr(owner, attr, raw)
            else:
                owner[attr] = raw
        self._patched.clear()
        self.check_removed()

    # -- self-checks -----------------------------------------------------

    def _scan(self):
        """Yield (where, value) for every module global, module-level
        container item and class attribute of the package and numpy.linalg."""
        import numpy.linalg as la
        for mod in self._modules() + [la]:
            for name, val in list(vars(mod).items()):
                where = f"{mod.__name__}.{name}"
                yield where, val
                if isinstance(val, dict):
                    for key, item in list(val.items()):
                        yield f"{where}[{key!r}]", item
                elif isinstance(val, (list, tuple, set, frozenset)):
                    for item in val:
                        yield f"{where}[]", item
                elif inspect.isclass(val) and mod is not la:
                    for attr, raw in list(vars(val).items()):
                        yield f"{where}.{attr}", _function(raw)

    def check_installed(self):
        """No binding site still holds an unwrapped original."""
        left = [w for w, v in self._scan() if id(v) in self._originals
                and v is self._originals[id(v)]]
        if left:
            raise TraceError("unwrapped binding sites: " + ", ".join(left))

    def check_removed(self):
        """No wrapper is left anywhere after removal."""
        left = [w for w, v in self._scan() if hasattr(v, _MARK)]
        if left:
            raise TraceError("wrappers left after removal: " + ", ".join(left))

    # -- results ---------------------------------------------------------

    def layer_self(self) -> dict:
        out = defaultdict(float)
        for name, st in self.stats.items():
            if name != HOOK_SPAN:
                out[name.split(".", 1)[0]] += st.self_s
        return out

    def span(self, name) -> SpanStats:
        return self.stats.get(name, SpanStats())

    def dump(self) -> dict:
        return {
            "spans": {n: vars(s) for n, s in sorted(self.stats.items())},
            "edges": [{"caller": c, "callee": e, "calls": k}
                      for (c, e), k in sorted(self.edges.items(),
                                              key=lambda kv: (kv[0][0] or "", kv[0][1]))],
            "covered_s": self.covered_s,
            "hook_errors": self.counters.errors,
        }
