"""Span tracing of `aq` from outside the program.

`Tracer.install()` replaces each traced function with a timing wrapper in
every loaded `aq` module namespace that bound it (modules bind helpers
with `from .x import y`, so patching only the defining module would miss
those call sites), replaces the criteria in `acceptance.CRITERIA`, and
replaces traced methods on their class.
`uninstall()` restores the originals.  Spans are kept in memory as
(name, start_ns, end_ns, parent, job) and written out by `dump()`.

Per name the tracer keeps `calls`, `busy_s` (wall time inside the
outermost span of that name) and `self_s` (span time minus the time its
direct child spans cover), plus size counters computed from arguments
and results.
"""

from __future__ import annotations

import functools
import importlib
import json
import pkgutil
import sys
import time


def _cells(mat):
    return len(mat) * (len(mat[0]) if mat else 0)


def _nnz(mat):
    return sum(1 for row in mat for x in row if x)


def _snf_sizes(args, kwargs, out):
    mat = args[0] if args else kwargs["mat"]
    return {"cells_in": _cells(mat), "nnz_in": _nnz(mat)}


def _subquotient_sizes(args, kwargs, out):
    # Subquotient.__init__(self, ambient, basis_cols, rel_vectors)
    ambient = args[1] if len(args) > 1 else kwargs["ambient"]
    rels = args[3] if len(args) > 3 else kwargs["rel_vectors"]
    return {"rel_vectors_in": len(rels), "ambient": ambient}


def _abelianized_sizes(args, kwargs, out):
    _, ranks, ring = out
    return {"zrank_out": sum(ranks) * ring.zrank()}


# (module, function or Class.method).  Layers are the repo's modules; the
# list fixes the per-layer metrics named in BENCHMARK.json.
TARGETS = [
    ("snf", "smith_normal_form"),
    ("snf", "IntegerSolver.solve"),
    ("snf", "kernel_basis"),
    ("snf", "lattice_basis"),
    ("snf", "smith_diagonal_naive"),
    ("presented", "Subquotient.__init__"),
    ("presented", "homology_of_complex"),
    ("resolutions", "loop_group_resolution"),
    ("resolutions", "abelianized_complex"),
    ("resolutions", "check_certificate"),
    ("resolutions", "resolve_module"),
    ("resolutions", "factor_set_cohomology"),
    ("resolutions", "bar_resolution_group"),
    ("invariants", "cohomology"),
    ("invariants", "cohomology_via_em"),
    ("invariants", "homology"),
    ("invariants", "homology_with_coeffs"),
    ("invariants", "der_cochain"),
    ("simplicial", "dold_kan"),
    ("simplicial", "cohomotopy"),
    ("simplicial", "moore_homotopy"),
    ("rings", "free_resolution"),
    ("rings", "ext_groups"),
    ("rings", "tor_groups"),
    ("spectral", "uct_e2"),
    ("spectral", "tor_e2"),
    ("spectral", "reverse_adams_e2"),
    ("spectral", "bicomplex_checks"),
    ("beck", "derivations"),
    ("beck", "brute_force_group_objects"),
    ("beck", "formula_group_objects"),
    *[("acceptance", f"criterion_{i}") for i in range(1, 9)],
    ("algebras", "realize_presentation"),
    ("algebras", "enumerate_homs"),
    ("fixtures", "load_algebra"),
    ("fixtures", "load_xmodule"),
    ("fixtures", "parse_module_presentation"),
    ("cli", "main"),
]

# span name -> (size counters from (args, kwargs, result), their keys)
SIZES = {
    "snf.smith_normal_form": (_snf_sizes, ("cells_in", "nnz_in")),
    "presented.Subquotient": (_subquotient_sizes, ("rel_vectors_in", "ambient")),
    "resolutions.abelianized_complex": (_abelianized_sizes, ("zrank_out",)),
}

JOB_SPAN = "cli.main"


def span_name(module, qualname):
    """`presented.Subquotient` for a constructor, `snf.kernel_basis` else."""
    return f"{module}.{qualname.removesuffix('.__init__')}"


def metric_keys():
    """(span name, statistic, unit) of every per-layer metric."""
    out = []
    for module, qualname in TARGETS:
        name = span_name(module, qualname)
        if module == "acceptance":
            out.append((name, "busy_s", "s"))
            continue
        out += [(name, "calls", "count"), (name, "busy_s", "s"),
                (name, "self_s", "s")]
        out += [(name, key, "count") for key in SIZES.get(name, ((), ()))[1]]
    return out


def _aq_modules():
    import aq

    for info in pkgutil.iter_modules(aq.__path__):
        importlib.import_module(f"aq.{info.name}")
    return [m for name, m in sorted(sys.modules.items())
            if name == "aq" or name.startswith("aq.")]


class Tracer:
    def __init__(self):
        self.spans = []
        self.stats = {}
        self._stack = []  # [name, start_ns, child_ns, span index]
        self._depth = {}  # open spans per name, for busy_s of recursion
        self._job = 0
        self._undo = []

    # -- recording ------------------------------------------------------

    def _enter(self, name):
        if name == JOB_SPAN:
            self._job += 1
        self._depth[name] = self._depth.get(name, 0) + 1
        self._stack.append([name, time.perf_counter_ns(), 0, len(self.spans)])
        self.spans.append(None)

    def _exit(self, name, sizes):
        end = time.perf_counter_ns()
        _, start, child_ns, idx = self._stack.pop()
        dur = end - start
        parent = self._stack[-1][3] if self._stack else -1
        if self._stack:
            self._stack[-1][2] += dur
        self.spans[idx] = (name, start, end, parent, self._job)
        depth = self._depth[name] - 1
        self._depth[name] = depth
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
        st["calls"] += 1
        st["self_s"] += (dur - child_ns) / 1e9
        if depth == 0:
            st["busy_s"] += dur / 1e9
        for key, val in (sizes or {}).items():
            st[key] = st.get(key, 0) + val

    def _wrap(self, name, fn, size_fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer._enter(name)
            sizes = None
            try:
                out = fn(*args, **kwargs)
                if size_fn is not None:
                    sizes = size_fn(args, kwargs, out)
                return out
            finally:
                tracer._exit(name, sizes)

        return traced

    # -- patching -------------------------------------------------------

    def install(self):
        modules = _aq_modules()
        by_name = {m.__name__: m for m in modules}
        for mod_name, qualname in TARGETS:
            owner = by_name[f"aq.{mod_name}"]
            name = span_name(mod_name, qualname)
            size_fn = SIZES.get(name, (None,))[0]
            if "." in qualname:
                cls_name, meth = qualname.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                self._set(cls, meth, self._wrap(name, orig, size_fn))
                continue
            orig = getattr(owner, qualname)
            wrapped = self._wrap(name, orig, size_fn)
            for m in modules:
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        self._set(m, attr, wrapped)
            if mod_name == "acceptance":
                # `run_all` calls the criteria through this table
                for i, (label, fn) in enumerate(owner.CRITERIA):
                    if fn is orig:
                        self._set_item(owner.CRITERIA, i, (label, wrapped))

    def _set(self, obj, attr, value):
        old = getattr(obj, attr)
        self._undo.append(lambda: setattr(obj, attr, old))
        setattr(obj, attr, value)

    def _set_item(self, seq, i, value):
        old = seq[i]
        self._undo.append(lambda: seq.__setitem__(i, old))
        seq[i] = value

    def uninstall(self):
        while self._undo:
            self._undo.pop()()

    # -- output ---------------------------------------------------------

    def dump(self, path):
        """Write every span as one JSON object per line."""
        with open(path, "w") as fh:
            for name, start, end, parent, job in self.spans:
                fh.write(json.dumps({"name": name, "start_ns": start,
                                     "end_ns": end, "parent": parent,
                                     "job": job}) + "\n")
