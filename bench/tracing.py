"""Spans and counters around the public functions of each lckverify layer.

The tracer patches functions from the outside; the program's source is
not touched.  Modules import each other's functions by name, so every
module attribute bound to a wrapped function is replaced, and methods
are replaced on their class (aliases such as ``__radd__`` included).

Each call opens a span on the calling thread's stack.  Busy and self
time are thread CPU seconds: the catalog driver verifies entries on a
thread pool, and wall time there would count the time each thread waits
for the interpreter lock.  Self time is busy time minus the busy time of
wrapped children, aggregated per thread as the run goes and merged when
tracing stops.  Spans of the coarse functions are also kept in memory as
``(id, parent, name, start, end)`` tuples with wall-clock
``start`` and ``end`` and written out at the end; a span opened on an
empty stack in a pool thread takes as parent the innermost span open in
the main thread, the one that started the pool.  The arithmetic spans of
``Scalar`` are too many to keep and are only aggregated.  Counters, like
the statistics, are kept per thread, so no update is lost and counts
repeat exactly.
"""

from __future__ import annotations

import contextlib
import gzip
import itertools
import json
import sys
import threading
import time
from collections import defaultdict

#: span name -> (module, attribute path) of the wrapped callable
SPANS = {
    "cli.run": ("cli", "run"),
    "catalog.load_catalog": ("catalog", "load_catalog"),
    "catalog.verify_catalog": ("catalog", "verify_catalog"),
    "catalog.verify_entry": ("catalog", "verify_entry"),
    "catalog.automorphism": ("catalog", "_verify_automorphism"),
    "catalog.family": ("catalog", "_verify_family"),
    "catalog.nolck": ("catalog", "_verify_no_lck"),
    "catalog.replay": ("catalog", "_verify_replay"),
    "catalog.equivalence": ("catalog", "verify_equivalence"),
    "solver.twisted_closed_space": ("solver", "twisted_closed_space"),
    "solver.lck_space": ("solver", "lck_space"),
    "solver.satisfies_conditions": ("solver", "satisfies_conditions"),
    "constructions.ot_algebra": ("constructions", "ot_algebra"),
    "constructions.cokahler_mapping_torus": ("constructions", "cokahler_mapping_torus"),
    "lck.verify_lck": ("lck", "verify_lck"),
    "lck.lee_form": ("lck", "lee_form"),
    "lck.vaisman_test": ("lck", "vaisman_test"),
    "lck.morse_novikov_betti": ("lck", "morse_novikov_betti"),
    "hermitian.is_complex_structure": ("hermitian", "is_complex_structure"),
    "hermitian.dual_to_primal": ("hermitian", "dual_to_primal"),
    "hermitian.coframe_substitution": ("hermitian", "coframe_substitution"),
    "hermitian.gram_metric": ("hermitian", "gram_metric"),
    "hermitian.is_positive_at": ("hermitian", "is_positive_at"),
    "liealg.ce_d": ("liealg", "LieAlgebra.ce_d"),
    "exterior.wedge": ("exterior", "KForm.wedge"),
    "linalg.rref": ("linalg", "rref"),
    "linalg.mat_mul": ("linalg", "mat_mul"),
    "linalg.det": ("linalg", "det"),
    "scalars.poly_gcd": ("scalars", "poly_gcd"),
    # aggregated only: millions of calls per pass
    "scalars.scalar.normalise": ("scalars", "Scalar.__init__"),
    "scalars.scalar.add": ("scalars", "Scalar.__add__"),
    "scalars.scalar.sub": ("scalars", "Scalar.__sub__"),
    "scalars.scalar.mul": ("scalars", "Scalar.__mul__"),
    "scalars.scalar.div": ("scalars", "Scalar.__truediv__"),
}

#: spans aggregated but not kept
AGGREGATED_ONLY = frozenset(n for n in SPANS if n.startswith("scalars.scalar."))

#: the only wrapped function that calls itself
RECURSIVE = frozenset({"scalars.poly_gcd"})

COUNTERS = ("scalars.scalar.qq", "scalars.scalar.param",
            "scalars.poly_gcd.normalise_calls", "scalars.poly_gcd.useful",
            "linalg.rref.nonconst_pivots")


def _resolve(module, path):
    owner = module
    for part in path.split(".")[:-1]:
        owner = getattr(owner, part)
    return owner, path.split(".")[-1]


class _Thread:
    """Stack and statistics of one thread."""

    __slots__ = ("stack", "stats", "counts")

    def __init__(self):
        self.stack = []  # open frames, see Tracer._wrap
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # calls, busy_s, self_s
        self.counts = defaultdict(int)


class Tracer:
    """Patch with `start`, restore with `stop`; read results after `stop`."""

    def __init__(self, package):
        self.package = package
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_thread = _Thread()
        self._threads = [self._main_thread]
        self._patches = []
        self._on = [False]  # a cell the wrappers read, so pausing is cheap

    # -- installing -------------------------------------------------------

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def start(self):
        if self._patches:
            raise RuntimeError("tracer already started")
        pkg = self.package.__name__
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == pkg or name.startswith(pkg + "."))]
        scalar_init = sys.modules[f"{pkg}.scalars"].Scalar.__init__
        self._normalise_code = scalar_init.__code__
        for name, (mod_name, path) in SPANS.items():
            module = sys.modules[f"{pkg}.{mod_name}"]
            owner, attr = _resolve(module, path)
            original = owner.__dict__[attr]
            wrapper = self._wrap(name, original)
            holders = modules if owner is module else [owner]
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._patch(holder, key, wrapper)
        self._on[0] = True

    def stop(self):
        self._on[0] = False
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside run unrecorded (the benchmark's own checks)."""
        was, self._on[0] = self._on[0], False
        try:
            yield
        finally:
            self._on[0] = was

    # -- wrappers -----------------------------------------------------------

    def _thread(self):
        try:
            return self._local.thread
        except AttributeError:
            if threading.current_thread() is self._main:
                state = self._main_thread
            else:
                state = _Thread()
                self._threads.append(state)
            self._local.thread = state
            return state

    def _wrap(self, name, fn):
        thread_of = self._thread
        main = self._main_thread
        ids = self._ids
        clock = time.perf_counter
        cpu_clock = time.thread_time
        keep = None if name in AGGREGATED_ONLY else self.spans
        recursive = name in RECURSIVE
        hook = self._hook(name)
        on = self._on

        def wrapper(*args, **kwargs):
            if not on[0]:
                return fn(*args, **kwargs)
            state = thread_of()
            stack = state.stack
            outermost = not recursive or all(f[0] != name for f in stack)
            # frame: name, CPU seconds of wrapped children, id of the nearest
            # kept span (itself when kept)
            if keep is not None:
                sid = next(ids)
            else:
                sid = stack[-1][2] if stack else 0
            frame = [name, 0.0, sid]
            stack.append(frame)
            start = clock()
            cpu = cpu_clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                busy = cpu_clock() - cpu
                end = clock()
                stack.pop()
                st = state.stats[name]
                st[0] += 1
                if outermost:
                    st[1] += busy
                st[2] += busy - frame[1]
                if stack:
                    stack[-1][1] += busy
                    parent_id = stack[-1][2]
                elif state is not main and main.stack:
                    parent_id = main.stack[-1][2]
                else:
                    parent_id = 0
                if keep is not None:
                    keep.append((sid, parent_id, name, start, end))
            if hook:
                hook(state.counts, args, result)
            return result

        return wrapper

    def _hook(self, name):
        """Counter updates made after a call, from its arguments and result."""
        if name == "scalars.scalar.normalise":
            def count_scalar(counts, args, result):
                counts["scalars.scalar.param" if args[1].nvars else "scalars.scalar.qq"] += 1
            return count_scalar
        if name == "scalars.poly_gcd":
            normalise = self._normalise_code

            def count_gcd(counts, args, result):
                # frames: count_gcd, wrapper, the caller of poly_gcd
                if sys._getframe(2).f_code is normalise:
                    counts["scalars.poly_gcd.normalise_calls"] += 1
                    if not result.is_constant():
                        counts["scalars.poly_gcd.useful"] += 1
            return count_gcd
        if name == "linalg.rref":
            def count_pivots(counts, args, result):
                counts["linalg.rref.nonconst_pivots"] += len(result[2])
            return count_pivots
        return None

    # -- results --------------------------------------------------------------

    def count(self, name):
        """A counter, summed over threads."""
        return sum(state.counts[name] for state in self._threads)

    def stats(self):
        """Per span name: {"calls", "busy_s", "self_s"}, merged over threads.

        busy_s counts only outermost spans, so recursion is not counted
        twice; self_s is busy time minus the busy time of wrapped children.
        """
        merged = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        for state in self._threads:
            for name, (calls, busy, own) in state.stats.items():
                m = merged[name]
                m["calls"] += calls
                m["busy_s"] += busy
                m["self_s"] += own
        return merged

    def write(self, path):
        """Kept spans and counters as gzipped JSON."""
        doc = {
            "fields": ["id", "parent", "name", "start", "end"],
            "spans": self.spans,
            "counters": {k: self.count(k) for k in COUNTERS},
        }
        with gzip.open(path, "wt") as fh:
            json.dump(doc, fh)

