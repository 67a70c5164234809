"""Per-layer tracing for ``run.py --trace 1``, done from outside qclone.

At start the tracer resolves the functions each layer is made of and
replaces every name bound to one of them, in every qclone module, with a
wrapper that records a span: ``checks.reduced_density`` and
``cloners.reduced_density`` get the same wrapper as
``linalg.reduced_density``, and tuples such as ``checks.ALL_CRITERIA`` are
rebuilt from the wrappers.  Constructors and methods are wrapped on their
class.  A module or name that does not exist is reported as absent, so the
tracer keeps working as the library is reshaped.  :meth:`Tracer.resolve`
finds the targets once; :meth:`Tracer.install` and :meth:`Tracer.uninstall`
then swap the wrappers in and the original bindings back, so that traced and
plain rounds can alternate in one process.

Spans (name, parent, start, end, weight) stay in memory in flat arrays and
are written out when the run ends.  A span's self time is its duration minus
the durations of its children.
"""
from __future__ import annotations

import fnmatch
import importlib
import inspect
import json
import math
import sys
import time
from array import array
from pathlib import Path

import numpy as np

#: (group, module, name patterns) of the functions whose calls become spans;
#: a function matched by two entries belongs to the first
FUNCTIONS = (
    ("eigh", "qclone.linalg", ("_kernel_eigh",)),
    ("eigh", "qclone._kernels", ("eigh", "eigvalsh")),
    ("eigh", "numpy.linalg", ("eigh", "eigvalsh")),
    ("linalg.marginal", "qclone.linalg", ("reduced_density", "partial_trace")),
    ("linalg.functional", "qclone.linalg", (
        "hermitian_eigenvalues", "von_neumann_entropy", "sqrt_fidelity",
        "bures_distance", "partial_transpose", "purity")),
    ("linalg.product", "qclone.linalg", ("outer", "tensor")),
    ("states.ket", "qclone.states", (
        "bloch_ket", "orthogonal_ket", "symmetric_basis_ket", "haar_random_ket",
        "random_bloch", "prep_state")),
    ("states.other", "qclone.states", ("scaled_state",)),
    ("network.gate", "qclone.network", ("apply_rotation", "apply_cnot")),
    ("network.run", "qclone.network", (
        "run_circuit", "clone_via_network", "build_copy_stage", "build_prep_circuit_1")),
    ("cloners.clone", "qclone.cloners", (
        "uqcm_map", "gisin_massar_map", "mdim_clone", "local_register_clone",
        "nonlocal_register_clone", "mdim_coefficients")),
    ("analysis.fit", "qclone.analysis", ("extract_scaling_factor",)),
    ("analysis.quadrature", "qclone.analysis", ("mean_fidelity",)),
    ("analysis.ppt", "qclone.analysis", ("ppt_separable",)),
    ("analysis.bisection", "qclone.analysis", ("inseparability_boundary",)),
    ("analysis.formula", "qclone.analysis", (
        "*_formula", "purity_xi", "mdim_formulas", "rho_a1b1_pt_spectrum",
        "idle_qubit_check", "purity_xi_simulated")),
    ("report.build", "qclone.report", ("report_*", "_qubit_report", "_clone_pair_checks")),
    ("checks.criterion", "qclone.checks", ("criterion_*",)),
    ("checks.other", "qclone.checks", ("run_all",)),
    ("cli", "qclone.cli", ("*",)),
)
#: (group, module, class names) whose construction becomes a span
CONSTRUCTORS = (
    ("linalg.validate", "qclone.linalg", ("StateVector", "DensityOperator", "HermitianMatrix")),
)
#: (group, module, class, method names)
METHODS = (
    ("report.serialize", "qclone.report", "CloneReport", ("to_json", "to_csv", "to_table")),
)

#: eigensolve dimension buckets: (metric suffix, largest dimension)
EIGH_BUCKETS = (("d2-4", 4), ("d8-16", 16), ("d32-plus", math.inf))

_MISSING = object()


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.weight = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.absent: list[str] = []
        self.wrapped: list[str] = []
        #: (owner, attribute, original value or _MISSING, wrapper)
        self._bindings: list[tuple] = []
        self.installed = False

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    # -- spans ---------------------------------------------------------------

    def _span(self, fn, name_of, after=None):
        """Wrap ``fn``; ``name_of(args)`` gives (span name, weight) and
        ``after(result)`` may rename the span or set its weight."""
        t = self

        def wrapper(*args, **kwargs):
            idx = len(t.start)
            nid, w = name_of(args)
            t.name_id.append(nid)
            t.parent.append(t.stack[-1])
            t.weight.append(w)
            t.end.append(0.0)
            t.stack.append(idx)
            t.start.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                t.end[idx] = time.perf_counter()
                t.stack.pop()
            if after is not None:
                after(idx, result)
            return result

        wrapper.__wrapped__ = fn
        for attr in ("__name__", "__qualname__", "__doc__", "__module__"):
            setattr(wrapper, attr, getattr(fn, attr, None))
        return wrapper

    def _function_wrapper(self, group: str, fn, modname: str):
        if group == "eigh":
            def name_of(args):
                shape = np.shape(args[0])
                return self.intern(f"eigh:d{shape[-1]}"), int(np.prod(shape[:-2], dtype=np.int64))
            wrapped = self._span(fn, name_of)
            if modname.startswith("qclone"):
                return wrapped

            def from_qclone_only(*args, **kwargs):
                # numpy calls its own eigensolver too (leggauss), which is
                # not work qclone asked for
                caller = sys._getframe(1).f_globals.get("__name__", "")
                return (wrapped if caller.startswith("qclone") else fn)(*args, **kwargs)
            return from_qclone_only
        nid = self.intern(f"{group}:{fn.__name__}")
        fixed = lambda args: (nid, 1)  # noqa: E731
        if group == "checks.criterion":
            def after(idx, result):
                self.name_id[idx] = self.intern(f"checks.criterion_{result.index:02d}")
                self.weight[idx] = len(result.rows)
            return self._span(fn, fixed, after)
        return self._span(fn, fixed)

    # -- installing ----------------------------------------------------------

    def _module(self, name: str):
        try:
            return importlib.import_module(name)
        except ImportError:
            self.absent.append(name)
            return None

    def _bind(self, owner, attr: str, new) -> None:
        self._bindings.append((owner, attr, vars(owner).get(attr, _MISSING), new))

    def resolve(self) -> None:
        """Find every target and the names bound to it, and make the wrappers."""
        replace: dict[int, object] = {}
        homes = set()
        for group, modname, patterns in FUNCTIONS:
            mod = self._module(modname)
            if mod is None:
                continue
            homes.add(mod)
            for pattern in patterns:
                found = [
                    (name, obj) for name, obj in vars(mod).items()
                    if fnmatch.fnmatchcase(name, pattern) and callable(obj) and not inspect.isclass(obj)
                    and (pattern == name or getattr(obj, "__module__", None) == modname)
                ]
                if not found:
                    self.absent.append(f"{modname}.{pattern}")
                for name, obj in found:
                    if id(obj) not in replace:
                        replace[id(obj)] = self._function_wrapper(group, obj, modname)
                        self.wrapped.append(f"{modname}.{name}")
        modules = [m for n, m in list(sys.modules.items()) if n == "qclone" or n.startswith("qclone.")]
        for mod in set(modules) | homes:
            for name, obj in list(vars(mod).items()):
                if id(obj) in replace:
                    self._bind(mod, name, replace[id(obj)])
                elif isinstance(obj, tuple) and any(id(x) in replace for x in obj):
                    self._bind(mod, name, tuple(replace.get(id(x), x) for x in obj))
        for group, modname, classes in CONSTRUCTORS:
            mod = self._module(modname)
            for cname in classes:
                cls = getattr(mod, cname, None)
                if cls is None:
                    self.absent.append(f"{modname}.{cname}")
                    continue
                nid = self.intern(f"{group}:{cname}")
                self._bind(cls, "__init__", self._span(cls.__init__, lambda args, nid=nid: (nid, 1)))
                self.wrapped.append(f"{modname}.{cname}")
        for group, modname, cname, methods in METHODS:
            cls = getattr(self._module(modname), cname, None)
            for meth in methods:
                fn = getattr(cls, meth, None)
                if fn is None:
                    self.absent.append(f"{modname}.{cname}.{meth}")
                    continue
                nid = self.intern(f"{group}:{meth}")
                self._bind(cls, meth, self._span(fn, lambda args, nid=nid: (nid, 1), self._count_bytes))
                self.wrapped.append(f"{modname}.{cname}.{meth}")

    def install(self) -> None:
        """Put the wrappers in place of the names they wrap."""
        if self.installed:
            return
        self.installed = True
        for owner, attr, _, new in self._bindings:
            setattr(owner, attr, new)

    def uninstall(self) -> None:
        """Restore every name :meth:`install` replaced."""
        if not self.installed:
            return
        self.installed = False
        for owner, attr, old, _ in reversed(self._bindings):
            if old is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)

    def _count_bytes(self, idx: int, text: str) -> None:
        self.weight[idx] = len(text.encode())

    # -- results -------------------------------------------------------------

    def table(self) -> dict[str, dict]:
        """Per span name: spans, summed weight, self and inclusive seconds."""
        name_id = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        weight = np.frombuffer(self.weight, dtype=np.int64)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        has_parent = parent >= 0
        children = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_time = dur - children
        k = len(self.names)
        return {
            name: {"spans": int(spans), "weight": int(w), "self_s": float(st), "incl_s": float(it)}
            for name, spans, w, st, it in zip(
                self.names,
                np.bincount(name_id, minlength=k),
                np.bincount(name_id, weights=weight, minlength=k),
                np.bincount(name_id, weights=self_time, minlength=k),
                np.bincount(name_id, weights=dur, minlength=k),
            )
        }

    def eigensolves(self) -> dict[str, float]:
        """Eigensolves not nested in another one, by dimension bucket, and
        those a DensityOperator construction asked for."""
        name_id = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        weight = np.frombuffer(self.weight, dtype=np.int64)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        is_eigh = np.array([n.startswith("eigh:") for n in self.names] + [False], dtype=bool)
        dims = np.array([int(n[6:]) if n.startswith("eigh:") else 0 for n in self.names] + [0])
        parent_name = np.where(parent >= 0, name_id[parent], len(self.names))
        outer = is_eigh[name_id] & ~is_eigh[parent_name]
        density = self._ids.get("linalg.validate:DensityOperator", -2)
        positivity = outer & (parent_name == density)
        out = {
            "calls": int(weight[outer].sum()),
            "s": float(dur[outer].sum()),
            "positivity_calls": int(weight[positivity].sum()),
            "positivity_s": float(dur[positivity].sum()),
        }
        low = 0
        d = dims[name_id]
        for suffix, high in EIGH_BUCKETS:
            sel = outer & (d > low) & (d <= high)
            out[f"calls.{suffix}"] = int(weight[sel].sum())
            out[f"s.{suffix}"] = float(dur[sel].sum())
            low = high
        return out

    def write(self, path: Path, extra: dict) -> None:
        """Write the spans and the per-name table next to each other."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path.with_suffix(".npz"),
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            weight=np.frombuffer(self.weight, dtype=np.int64),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
        )
        summary = dict(extra, absent=self.absent, wrapped=self.wrapped, spans=self.table())
        path.with_suffix(".json").write_text(json.dumps(summary, indent=1) + "\n")
