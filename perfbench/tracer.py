"""Call counts and self time for the public functions of the locpv modules.

The tracer wraps, from outside the package, every function named in a
module's ``__all__``, every public method and classmethod of the classes named
there, and ``Taylor2.__mul__`` (the jet product, split into scalar and batch
calls). Each wrapper is bound at every module attribute that held the
original, so ``locpv.tracker.pv_point`` is counted as well as
``locpv.phasevel.pv_point``. Nothing under ``src/`` changes.

A call's self time is its duration minus the duration of the wrapped calls
made inside it. ``hooks`` add counters computed from a call's arguments and
result (points in a batch, cells in a sweep, bytes in a CSV file), and
``scopes`` count the wrapped calls made while a given function is running.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
import weakref

import numpy as np

MODULES = ("taylor", "field", "phasevel", "tracker", "simulate", "media", "relativity", "cli")
MUL = "taylor.Taylor2.__mul__"


def _mul_key(args):
    a, b = args[0], args[1]
    bc = getattr(b, "coef", None)
    batch = a.coef.ndim > 2 or (np.ndim(b) > 0 if bc is None else bc.ndim > 2)
    return MUL + (":batch" if batch else ":scalar")


class Tracer:
    def __init__(self, scopes=()):
        self.calls = {}        # name -> [calls, self_s, total_s]
        self.counters = {}     # name -> number, from hooks
        self.nested = {s: {} for s in scopes}  # scope -> name -> calls inside it
        self._child = []       # per open call: time spent in wrapped calls inside it
        self._open_scopes = []
        self._patches = []
        self._seen_grids = weakref.WeakKeyDictionary()
        self._hooks = {
            "field.AnalyticField.jet_batch": self._jet_batch,
            "field.SampledField.derivative_grid": self._derivative_grid,
            "phasevel.pv_field": self._pv_field,
            "tracker.track": self._track,
            "simulate.run": self._sim_run,
            "field.save_grid_csv": self._csv_write,
            "field.load_grid_csv": self._csv_read,
        }

    # -- counters from arguments and results ----------------------------------

    def add(self, name, value):
        self.counters[name] = self.counters.get(name, 0) + value

    def _jet_batch(self, args, out):
        self.add("jet_batch_points", int(np.broadcast(np.asarray(args[1]), np.asarray(args[2])).size))

    def _derivative_grid(self, args, out):
        keys = self._seen_grids.setdefault(args[0], set())
        key = (args[1], args[2])
        self.add("derivative_grid_repeats", int(key in keys))
        keys.add(key)

    def _pv_field(self, args, out):
        self.add("pv_field_cells", int(out.mask.size))
        self.add("pv_field_masked", int(out.mask.size - np.count_nonzero(out.mask)))

    def _track(self, args, out):
        self.add("track_steps", len(out.samples) - 1)
        self.add("terminations." + out.terminated_by.value, 1)

    def _sim_run(self, args, out):
        # computed from array sizes: each update reads rows n and n-1 of psi and
        # the a^2 row, and writes row n+1 (caches and temporaries ignored)
        g = out.grid
        self.add("sim_cell_updates", g.nx * (g.nt - 2))
        self.add("sim_bytes_computed", (g.nt - 2) * 4 * g.nx * out.values.itemsize)

    def _csv_write(self, args, out):
        self.add("csv_write_bytes", os.path.getsize(args[0]))

    def _csv_read(self, args, out):
        self.add("csv_read_bytes", os.path.getsize(args[0]))

    # -- wrapping -------------------------------------------------------------

    def _wrap(self, name, fn):
        calls, child, clock = self.calls, self._child, time.perf_counter
        open_scopes, nested = self._open_scopes, self.nested
        hook = self._hooks.get(name)
        key_of = _mul_key if name == MUL else None
        scope = nested.get(name)

        def wrapper(*args, **kwargs):
            key = key_of(args) if key_of else name
            for s in open_scopes:
                s[key] = s.get(key, 0) + 1
            if scope is not None:
                open_scopes.append(scope)
            child.append(0.0)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                inner = child.pop()
                if scope is not None:
                    open_scopes.pop()
                rec = calls.get(key)
                if rec is None:
                    rec = calls[key] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dt - inner
                rec[2] += dt
                if child:
                    child[-1] += dt
            if hook is not None:
                hook(args, out)
            return out

        return functools.update_wrapper(wrapper, fn)

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self):
        """Wrap the public functions and methods of every locpv module."""
        mods = {m: importlib.import_module("locpv." + m) for m in MODULES}
        wrapped = {}  # id(original function) -> wrapper
        for short, mod in mods.items():
            for pub in getattr(mod, "__all__", ()):
                obj = getattr(mod, pub, None)
                if isinstance(obj, type) and obj.__module__ == mod.__name__:
                    for attr, member in list(vars(obj).items()):
                        name = f"{short}.{obj.__qualname__}.{attr}"
                        if attr.startswith("_") and name != MUL:
                            continue
                        if isinstance(member, classmethod):
                            self._set(obj, attr, classmethod(self._wrap(name, member.__func__)))
                        elif callable(member) and not isinstance(member, (type, staticmethod)):
                            self._set(obj, attr, self._wrap(name, member))
                elif callable(obj) and getattr(obj, "__module__", None) == mod.__name__:
                    wrapped[id(obj)] = self._wrap(f"{short}.{obj.__name__}", obj)
        # rebind each wrapped function at every name that held it
        for mod in [sys.modules["locpv"], *mods.values()]:
            for attr, value in list(vars(mod).items()):
                if id(value) in wrapped:
                    self._set(mod, attr, wrapped[id(value)])

    def uninstall(self):
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    def snapshot(self):
        return {"calls": self.calls, "counters": self.counters, "nested": self.nested}
