"""Outside-in tracer for metriclie, and the per-layer metrics drawn from it.

The tracer wraps every public function of the layer modules below at every
module that binds its name: ``complexstruct``, ``lab`` and ``cli`` bind
``decompose`` by ``from .centroid import``, and the package re-exports most
names, so patching the defining module alone would miss their calls.
Modules are reached through ``importlib.import_module`` because the package
attribute ``metriclie.centroid`` is the function ``centroid``, not the
module.  Each call inside a job records a span (name, parent, start, end);
spans stay in memory and are written out when the run ends.

Run as a script, it is the traced CLI child of the ``cli-cold`` workload:
``python -X importtime tracer.py SPANS.json [metriclie CLI arguments]``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import sys
import time

LAYERS = ("core", "linalg", "centroid", "complexstruct", "lab", "docio", "cli")
# A per-entry predicate, called 76k-210k times per job: a span each would
# cost more than the work it measures.
SKIP = {"linalg.is_zero"}
# Private steps of the centroid recursion that the per-layer metrics count.
PRIVATE = {"centroid._random_generic_element": "centroid.draw",
           "centroid._eigenprojections": "centroid.split"}
# Third-party calls made by centroid, patched on the library module.
THIRD_PARTY = (("sympy", "roots", "centroid.roots"),
               ("numpy.linalg", "eigvals", "centroid.eig_numeric"))
RENDER = ("docio.render_document", "docio.decomposition_document",
          "docio.enumeration_document", "docio.dumps")
FAILED = "raised"


def _rows_cols_nullity(args, kwargs, out):
    return (len(args[0]), args[1], len(out))


def _cells(args, kwargs, out):
    rows = args[0]
    return len(rows) * len(rows[0]) if len(rows) else 0


INFO = {
    "linalg.nullspace_sparse": _rows_cols_nullity,
    "linalg.rref": _cells,
    "linalg.minimal_polynomial": lambda a, k, out: len(out) - 1,
    "centroid.decompose": lambda a, k, out: out.k,
}


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.spans = []  # [name id, parent index or -1, start, end, info]
        self.stack = [-1]
        self.active = False
        self._patched = []

    def name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def record(self, name, start, end, info=None):
        self.spans.append([self.name_id(name), self.stack[-1], start, end, info])

    def _wrap(self, name, fn):
        nid = self.name_id(name)
        info = INFO.get(name)
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            rec = [nid, stack[-1], 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                rec[4] = FAILED
                raise
            finally:
                rec[3] = time.perf_counter()
                stack.pop()
            if info is not None:
                rec[4] = info(args, kwargs, out)
            return out

        return traced

    def install(self):
        """Patch every binding of the traced functions in metriclie's modules."""
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"metriclie.{layer}")
            for attr, obj in vars(mod).items():
                name = f"{layer}.{attr}"
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_") and name not in SKIP):
                    wrappers[id(obj)] = (obj, self._wrap(name, obj))
        for qual, name in PRIVATE.items():
            layer, attr = qual.split(".")
            obj = getattr(importlib.import_module(f"metriclie.{layer}"), attr)
            wrappers[id(obj)] = (obj, self._wrap(name, obj))
        for modname, mod in list(sys.modules.items()):
            if modname != "metriclie" and not modname.startswith("metriclie."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, obj))
        for modname, attr, name in THIRD_PARTY:
            mod = sys.modules.get(modname)
            if mod is not None:
                obj = getattr(mod, attr)
                setattr(mod, attr, self._wrap(name, obj))
                self._patched.append((mod, attr, obj))

    def uninstall(self):
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()

    def begin_job(self):
        self.stack.append(len(self.spans))
        self.spans.append([self.name_id("job"), -1, time.perf_counter(), 0.0, None])
        self.active = True

    def end_job(self):
        self.active = False
        self.spans[self.stack.pop()][3] = time.perf_counter()

    def merge(self, names, spans):
        """Append spans recorded by a child process under the open span."""
        base, parent = len(self.spans), self.stack[-1]
        for nid, par, start, end, info in spans:
            self.spans.append([self.name_id(names[nid]), parent if par < 0 else base + par,
                               start, end, info])

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": self.spans}, fh, separators=(",", ":"))


def layer_metrics(tracer, extra):
    """Per-layer figures of a traced run, every count and time per job.

    ``extra`` holds figures measured outside the spans (the traced job
    median and the CLI import times).  Returns (metrics, self-time residual):
    the residual is the largest gap, over jobs, between a job's wall time
    and the sum of the self times of the spans under it.
    """
    names, spans = tracer.names, tracer.spans
    nspans = len(spans)
    dur = [s[3] - s[2] for s in spans]
    child = [0.0] * nspans
    for i, s in enumerate(spans):
        if s[1] >= 0:
            child[s[1]] += dur[i]
    self_t = [d - c for d, c in zip(dur, child)]
    # ancestor name sets, as bit masks over name ids
    anc = [0] * nspans
    for i, s in enumerate(spans):
        p = s[1]
        if p >= 0:
            anc[i] = anc[p] | (1 << spans[p][0])
    job_id = tracer.name_id("job")
    jobs = [i for i, s in enumerate(spans) if s[0] == job_id]
    njobs = len(jobs) or 1

    residual = 0.0
    bounds = jobs + [nspans]
    for a, b in zip(bounds, bounds[1:]):
        residual = max(residual, abs(sum(self_t[a:b]) - dur[a]), -min(self_t[a:b]))

    by_name = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[0], []).append(i)

    def nid(name):
        return tracer.name_id(name)

    def idx(name):
        return by_name.get(nid(name), [])

    def bit(*group):
        m = 0
        for g in group:
            m |= 1 << nid(g)
        return m

    def calls(name):
        return len(idx(name)) / njobs

    def inclusive(*group):
        """Time in the outermost spans of the group, per job."""
        g = bit(*group)
        return sum(dur[i] for name in group for i in idx(name) if not anc[i] & g) / njobs

    def self_s(name):
        return sum(self_t[i] for i in idx(name)) / njobs

    def mean_info(name, pos=None):
        vals = [spans[i][4] if pos is None else spans[i][4][pos]
                for i in idx(name) if spans[i][4] not in (None, FAILED)]
        return statistics.fmean(vals) if vals else 0.0

    def under(name, ancestor):
        a = bit(ancestor)
        return [i for i in idx(name) if anc[i] & a]

    lab_mask = 0
    for n in list(names):
        if n.startswith("lab."):
            lab_mask |= bit(n)
    draws = len(idx("centroid.draw"))
    sampled = len(under("lab.random_gram", "lab.make_irreducible_metric"))
    accepted = sum(1 for i in idx("lab.make_irreducible_metric") if spans[i][4] != FAILED)
    decompose = nid("centroid.decompose")

    m = {
        "linalg.nullspace_sparse.calls": calls("linalg.nullspace_sparse"),
        "linalg.nullspace_sparse.self_s": self_s("linalg.nullspace_sparse"),
        "linalg.nullspace_sparse.rows": mean_info("linalg.nullspace_sparse", 0),
        "linalg.nullspace_sparse.cols": mean_info("linalg.nullspace_sparse", 1),
        "linalg.nullspace_sparse.nullity": mean_info("linalg.nullspace_sparse", 2),
        "linalg.nullspace_sparse.backsub_s": sum(
            dur[i] for i in under("linalg.rref", "linalg.nullspace_sparse")
            if not anc[i] & bit("linalg.rref")) / njobs,
        "linalg.rref.calls": calls("linalg.rref"),
        "linalg.rref.self_s": self_s("linalg.rref"),
        "linalg.rref.cells": sum(spans[i][4] or 0 for i in idx("linalg.rref")
                                 if spans[i][4] != FAILED) / njobs,
        "linalg.minimal_polynomial.calls": calls("linalg.minimal_polynomial"),
        "linalg.minimal_polynomial.s": inclusive("linalg.minimal_polynomial"),
        "linalg.minimal_polynomial.degree": mean_info("linalg.minimal_polynomial"),
        "linalg.mat_mul.calls": calls("linalg.mat_mul"),
        "linalg.mat_mul.self_s": self_s("linalg.mat_mul"),
        "centroid.symmetric_centroid.calls": calls("centroid.symmetric_centroid"),
        "centroid.symmetric_centroid.s": inclusive("centroid.symmetric_centroid"),
        "centroid.skew_centroid.calls": calls("centroid.skew_centroid"),
        "centroid.skew_centroid.s": inclusive("centroid.skew_centroid"),
        "centroid.decompose.calls": calls("centroid.decompose"),
        "centroid.decompose.s": inclusive("centroid.decompose"),
        "centroid.decompose.factors": mean_info("centroid.decompose"),
        "centroid.is_orthogonal_projection.calls": calls("centroid.is_orthogonal_projection"),
        "centroid.is_orthogonal_projection.s": inclusive("centroid.is_orthogonal_projection"),
        "centroid.roots.calls": calls("centroid.roots"),
        "centroid.roots.s": inclusive("centroid.roots"),
        "centroid.eig_numeric.s": inclusive("centroid.eig_numeric"),
        "centroid.draws": draws / njobs,
        "centroid.split_draw_ratio": len(idx("centroid.split")) / draws if draws else 0.0,
        "centroid.numeric_fallbacks": sum(
            1 for i in idx("core.to_numeric") if spans[spans[i][1]][0] == decompose) / njobs,
        "core.restrict.calls": calls("core.restrict"),
        "core.restrict.s": inclusive("core.restrict"),
        "core.make_algebra.calls": calls("core.make_algebra"),
        "core.make_algebra.s": inclusive("core.make_algebra"),
        "core.has_abelian_factor.calls": calls("core.has_abelian_factor"),
        "core.has_abelian_factor.s": inclusive("core.has_abelian_factor"),
        "complexstruct.enumerate_complex_structures.self_s":
            self_s("complexstruct.enumerate_complex_structures"),
        "complexstruct.verify_complex_structure.calls":
            calls("complexstruct.verify_complex_structure"),
        "complexstruct.verify_complex_structure.s":
            inclusive("complexstruct.verify_complex_structure"),
        "lab.random_gram.calls": calls("lab.random_gram"),
        "lab.random_gram.s": inclusive("lab.random_gram"),
        "lab.decompose_per_job": sum(1 for i in idx("centroid.decompose")
                                     if anc[i] & lab_mask) / njobs,
        "lab.metric_accept_ratio": accepted / sampled if sampled else 0.0,
        "docio.parse_document.s": inclusive("docio.parse_document"),
        "docio.render_s": inclusive(*RENDER),
        "cli.import_s": inclusive("cli.import"),
        "cli.compute_s": inclusive("cli.main"),
        "trace.spans": (nspans - len(jobs)) / njobs,
    }
    m.update(extra)
    return m, residual


def sympy_import_s(importtime_lines):
    """Cumulative import time of the sympy package from -X importtime."""
    for line in importtime_lines:
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() == "sympy":
            return int(parts[1]) / 1e6
    return 0.0


def cli_child(spans_path, argv):
    """Traced CLI run: import metriclie.cli, trace cli.main, write the spans."""
    tracer = Tracer()
    start = time.perf_counter()
    cli = importlib.import_module("metriclie.cli")
    tracer.record("cli.import", start, time.perf_counter())
    tracer.install()
    tracer.active = True
    try:
        code = cli.main(argv)
    finally:
        tracer.active = False
        tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(cli_child(sys.argv[1], sys.argv[2:]))
