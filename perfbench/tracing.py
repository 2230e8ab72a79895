"""In-memory span tracer for the groupwave benchmark.

The tracer wraps public functions of the ``groupwave`` modules from the
outside: the library itself is not modified.  Because the library imports
names with ``from .states import translate``, patching one module is not
enough; :meth:`Tracer.install` rebinds the wrapper at every ``groupwave.*``
module attribute (and every module-level dict value, e.g. the verify suite
table) that refers to the original function.  It also wraps
``UnitaryRepSpec.act`` and the ``fast_coefficients``/``fast_adjoint``
closures of the specs returned by the representation factories.

A span is ``[name, start, end, parent, outermost, attrs]``; spans are kept
in memory and written out once, at the end of a run.  ``outermost`` is false
for a span nested inside a span of the same name (a projective ``act`` that
forwards to the underlying ``act``), so calls and total time are not counted
twice.  Self time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import json
import os
import sys
import time
from collections import defaultdict

PACKAGE = "groupwave"
MODULES = (
    "states", "representations", "transforms", "groups", "configs",
    "multipliers", "measures", "induced", "verify", "cli",
)

# module -> traced functions; None means every public function defined there
TARGETS = {
    "states": ["translate", "modulate", "axis_resample", "fourier_plancherel",
               "inverse_fourier_plancherel", "inner", "save_state_csv", "load_state_csv"],
    "representations": ["coefficient"],
    "transforms": ["analyze", "synthesize", "duflo_moore", "calibrate_affine_dm",
                   "orthogonality_check", "reproduce_check", "admissibility",
                   "semi_invariance_check", "mod_K_equiv_check", "save_result_csv",
                   "load_result_csv"],
    "groups": None,
    "multipliers": None,
    "configs": ["gabor_setup", "affine_setup", "exotic_setup", "affine_nested_grids"],
    "measures": ["center_divergence_probe", "decompose_check", "rho_validate",
                 "integrate_mod_K"],
    "induced": ["intertwine_defect", "left_reg_m", "R_chi_s"],
    "verify": ["gabor_suite", "affine_suite", "exotic_suite"],
    "cli": ["cmd_analyze", "cmd_synthesize", "cmd_verify"],
}
REP_FACTORIES = ("wh_rep", "affine_rep", "exotic_rep")
STATE_KERNELS = ("translate", "modulate", "axis_resample", "fourier_plancherel",
                 "inverse_fourier_plancherel", "inner")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs.get(name)


def _file_bytes(*paths) -> int:
    return sum(os.path.getsize(p) for p in paths if os.path.exists(p))


def _state_bytes(args, kwargs, out):
    """Bytes of the sample arrays read and written by a states kernel
    (computed from array sizes, not measured)."""
    total = sum(a.samples.nbytes for a in args if hasattr(a, "samples"))
    return {"bytes": total + (out.samples.nbytes if hasattr(out, "samples") else 0)}


class Tracer:
    """Records spans while ``active``; wrappers pass straight through
    otherwise, so one installed tracer serves traced and untraced passes."""

    def __init__(self):
        self.spans: list = []
        self.active = False
        self._stack: list = []
        self._depth: dict = defaultdict(int)
        self._seen_psi_grid: set = set()

    # -- recording ---------------------------------------------------------

    def wrap(self, name, fn, attrs=None):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack, depth = tracer._stack, tracer._depth
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, depth[name] == 0, None]
            stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            depth[name] += 1
            rec[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
                depth[name] -= 1
            if attrs is not None:
                rec[5] = attrs(args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside one span called ``name``."""
        return self.wrap(name, fn)(*args, **kwargs)

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = {m: importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES}
        wrappers = {}
        for mod_name, names in TARGETS.items():
            mod = modules[mod_name]
            if names is None:
                names = [n for n, v in vars(mod).items()
                         if callable(v) and not n.startswith("_") and not isinstance(v, type)
                         and getattr(v, "__module__", None) == mod.__name__]
            for n in names:
                fn = getattr(mod, n)
                wrappers[id(fn)] = self.wrap(f"{mod_name}.{n}", fn, self._attrs_for(mod_name, n))
        for n in REP_FACTORIES:
            fn = getattr(modules["representations"], n)
            wrappers[id(fn)] = self._wrap_factory(fn)

        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers:
                    setattr(mod, attr, wrappers[id(value)])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if id(item) in wrappers:
                            value[key] = wrappers[id(item)]

        spec = modules["representations"].UnitaryRepSpec
        spec.act = self.wrap("representations.act", spec.act)

    def _wrap_factory(self, factory):
        tracer = self

        def make(*args, **kwargs):
            spec = factory(*args, **kwargs)
            fast = {
                f: tracer.wrap(f"representations.{f}", getattr(spec, f))
                for f in ("fast_coefficients", "fast_adjoint")
                if getattr(spec, f) is not None
            }
            return dataclasses.replace(spec, **fast)

        make.__wrapped__ = factory
        return make

    def _attrs_for(self, mod_name, name):
        if mod_name == "states" and name in STATE_KERNELS:
            return _state_bytes
        if name == "analyze":
            return self._analyze_attrs
        if name == "synthesize":
            return lambda a, k, out: {"nodes": _arg(a, k, 0, "result").grid.n_nodes}
        if name == "haar_grid":
            return lambda a, k, out: {"nodes": out.n_nodes}
        if name == "save_result_csv":
            return lambda a, k, out: {"bytes": _file_bytes(*out)}
        if name == "load_result_csv":
            return lambda a, k, out: {"bytes": _file_bytes(
                f"{_arg(a, k, 0, 'path_prefix')}.csv", f"{_arg(a, k, 0, 'path_prefix')}.json")}
        if name == "save_state_csv":
            return lambda a, k, out: {"bytes": _file_bytes(_arg(a, k, 0, "path"))}
        if name == "load_state_csv":
            return lambda a, k, out: {"bytes": _file_bytes(_arg(a, k, 0, "path"))}
        return None

    def _analyze_attrs(self, args, kwargs, out):
        psi = _arg(args, kwargs, 1, "psi")
        grid = _arg(args, kwargs, 3, "grid")
        key = (
            hashlib.blake2b(psi.samples.tobytes(), digest_size=16).digest(),
            psi.grid, grid.group.name, grid.box, grid.resolution, grid.log_axes,
        )
        repeat = key in self._seen_psi_grid
        self._seen_psi_grid.add(key)
        return {"nodes": out.grid.n_nodes, "clipped": bool(out.meta.get("clipped")),
                "repeat": repeat}

    # -- output ------------------------------------------------------------

    def dump(self, path, extra=None) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, **(extra or {})}, fh)


# ---------------------------------------------------------------------------
# Spans -> per-module metrics
# ---------------------------------------------------------------------------


def summarize(span_lists) -> dict:
    """Aggregate span lists (one per process) into per-name totals."""
    agg = defaultdict(lambda: defaultdict(float))
    for spans in span_lists:
        child = [0.0] * len(spans)
        for name, start, end, parent, outer, attrs in spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, parent, outer, attrs) in enumerate(spans):
            a = agg[name]
            dur = end - start
            a["self_s"] += dur - child[i]
            if outer:
                a["calls"] += 1
                a["total_s"] += dur
            for key, value in (attrs or {}).items():
                a[key] += float(value)
        _per_node_calls(spans, agg)
    return agg


def _per_node_calls(spans, agg) -> None:
    """Nodes that analyze/synthesize evaluated through ``rep.act``: the
    ``coefficient`` calls made directly by analyze, and the ``act`` calls
    made directly by synthesize."""
    for name, start, end, parent, outer, attrs in spans:
        if parent < 0 or not outer:
            continue
        pname = spans[parent][0]
        if (name, pname) in (("representations.coefficient", "transforms.analyze"),
                             ("representations.act", "transforms.synthesize")):
            agg["transforms.per_node"]["nodes"] += 1


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def per_module_metrics(agg, extra) -> dict:
    """The named per-module metrics, as {name: value}.  ``extra`` carries the
    values measured outside spans (verify check counts, CLI start-up time,
    tracing overhead)."""
    m = {}

    def get(name, key):
        return agg[name][key] if name in agg else 0.0

    def module_self(prefix):
        return sum(v["self_s"] for k, v in agg.items() if k.startswith(prefix + "."))

    for fn in STATE_KERNELS:
        m[f"states.{fn}.calls"] = get(f"states.{fn}", "calls")
        m[f"states.{fn}.self_s"] = get(f"states.{fn}", "self_s")
    m["states.bytes_computed"] = sum(get(f"states.{fn}", "bytes") for fn in STATE_KERNELS)

    for fn in ("act", "coefficient", "fast_coefficients", "fast_adjoint"):
        m[f"representations.{fn}.calls"] = get(f"representations.{fn}", "calls")
        m[f"representations.{fn}.self_s"] = get(f"representations.{fn}", "self_s")

    all_nodes = 0.0
    for fn in ("analyze", "synthesize"):
        name = f"transforms.{fn}"
        for key in ("calls", "total_s", "self_s", "nodes"):
            m[f"{name}.{key}"] = get(name, key)
        m[f"{name}.nodes_per_s"] = _ratio(get(name, "nodes"), get(name, "total_s"))
        all_nodes += get(name, "nodes")
    m["transforms.per_node_share"] = _ratio(get("transforms.per_node", "nodes"), all_nodes)
    m["transforms.repeat_psi_grid_ratio"] = _ratio(
        get("transforms.analyze", "repeat"), get("transforms.analyze", "calls"))
    m["transforms.analyze.clipped_share"] = _ratio(
        get("transforms.analyze", "clipped"), get("transforms.analyze", "calls"))
    for fn in ("duflo_moore", "calibrate_affine_dm"):
        m[f"transforms.{fn}.calls"] = get(f"transforms.{fn}", "calls")
        m[f"transforms.{fn}.total_s"] = get(f"transforms.{fn}", "total_s")
    for fn in ("orthogonality_check", "reproduce_check", "admissibility",
               "semi_invariance_check", "mod_K_equiv_check"):
        m[f"transforms.{fn}.total_s"] = get(f"transforms.{fn}", "total_s")
    for fn in ("save_result_csv", "load_result_csv"):
        m[f"transforms.{fn}.total_s"] = get(f"transforms.{fn}", "total_s")
        m[f"transforms.{fn}.bytes"] = get(f"transforms.{fn}", "bytes")
    for fn in ("save_state_csv", "load_state_csv"):
        m[f"states.{fn}.total_s"] = get(f"states.{fn}", "total_s")

    m["groups.haar_grid.calls"] = get("groups.haar_grid", "calls")
    m["groups.haar_grid.total_s"] = get("groups.haar_grid", "total_s")
    m["groups.haar_grid.nodes"] = get("groups.haar_grid", "nodes")
    m["groups.self_s"] = module_self("groups")
    m["multipliers.self_s"] = module_self("multipliers")
    for fn in ("gabor_setup", "affine_setup", "exotic_setup", "affine_nested_grids"):
        m[f"configs.{fn}.calls"] = get(f"configs.{fn}", "calls")
        m[f"configs.{fn}.total_s"] = get(f"configs.{fn}", "total_s")

    for fn in ("center_divergence_probe", "decompose_check", "rho_validate", "integrate_mod_K"):
        m[f"measures.{fn}.total_s"] = get(f"measures.{fn}", "total_s")
    for fn in ("intertwine_defect", "left_reg_m", "R_chi_s"):
        m[f"induced.{fn}.calls"] = get(f"induced.{fn}", "calls")
        m[f"induced.{fn}.total_s"] = get(f"induced.{fn}", "total_s")

    for fn in ("gabor_suite", "affine_suite", "exotic_suite"):
        m[f"verify.{fn}.total_s"] = get(f"verify.{fn}", "total_s")
    m["verify.checks"] = extra.get("verify.checks", 0.0)
    m["verify.checks_failed"] = extra.get("verify.checks_failed", 0.0)

    m["cli.startup_s"] = extra.get("cli.startup_s", 0.0)
    for fn in ("cmd_analyze", "cmd_synthesize", "cmd_verify"):
        m[f"cli.{fn}.total_s"] = get(f"cli.{fn}", "total_s")
    m["cli.csv_bytes_written"] = get("transforms.save_result_csv", "bytes") + get(
        "states.save_state_csv", "bytes")
    m["cli.csv_bytes_read"] = get("transforms.load_result_csv", "bytes") + get(
        "states.load_state_csv", "bytes")

    m["trace.overhead_ratio"] = extra.get("trace.overhead_ratio", 0.0)
    return m
