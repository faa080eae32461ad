"""Spans around calls into the hdrpcal package, for the traced run.

The tracer wraps public functions from outside the package: it replaces
every module-level binding of a target function (``from X import f`` copies
the binding, so each importing module holds its own) and patches
``CubeTonemap.apply`` on the class.  A span records its name, parent,
start, end and a few counts.  Spans stay in memory until the run ends.

The package is synchronous and single-threaded, so spans nest strictly and
no span ever waits on another; self time is a span's duration minus the
part of it covered by its children.
"""

from __future__ import annotations

import functools
import os
import sys
import time
import weakref

import numpy as np


def _file_size(source) -> int:
    """Size in bytes of a text source: an open file or an in-memory string."""
    if isinstance(source, str):
        return len(source.encode())
    try:
        return os.fstat(source.fileno()).st_size
    except (AttributeError, OSError):
        return len(source.getvalue().encode())


def _points(u) -> int:
    return 1 if np.ndim(u) == 1 else int(np.shape(u)[0])


# (module, attribute, counts(args, kwargs, result, before) -> dict, before(args))
# Counts are computed from arguments, results and file sizes, never from
# inside the package.
TARGETS = [
    ("harness", "generate_samples",
     lambda a, k, r, b: {"rows": len(r)}, None),
    ("harness", "save_samples",
     lambda a, k, r, b: {"bytes": a[1].tell() - b}, lambda a: a[1].tell()),
    ("harness", "load_samples",
     lambda a, k, r, b: {"rows": len(r), "bytes": _file_size(a[0])}, None),
    ("harness", "validate_model", None, None),
    ("harness", "predict_unprocessed",
     lambda a, k, r, b: {"rows": len(r)}, None),
    ("scene", "lambertian_unprocessed_arrays",
     lambda a, k, r, b: {"rows": len(r)}, None),
    ("colorspace", "srgb_encode3",
     lambda a, k, r, b: {"calls": 1, "elements": int(np.size(r))}, None),
    ("colorspace", "srgb_decode3", None, None),
    ("colorspace", "quantize_8bit", None, None),
    ("cubelut", "parse_cube",
     lambda a, k, r, b: {"bytes": _file_size(a[0])}, None),
    ("cubelut", "serialize_cube",
     lambda a, k, r, b: {"bytes": len(r.encode())}, None),
    ("cubelut", "make_delta_cube", None, None),
    ("calibrate", "estimate_scale_constant", None, None),
    ("calibrate", "estimate_knots_delta", None, None),
    ("calibrate", "estimate_knots_optimize",
     lambda a, k, r, b: {"evaluations": r[1].n_evaluations,
                         "converged": int(r[1].converged), "fits": 1}, None),
    ("calibrate", "build_correction_cube", None, None),
    ("display", "fit_achromatic", None, None),
    ("display", "fit_chromatic", None, None),
    ("svgplot", "scatter_panels", None, None),
]

# Bindings the traced run must reach; install() fails if one is missed.
REQUIRED_BINDINGS = [
    ("cli", name) for name in (
        "generate_samples", "load_samples", "save_samples", "validate_model",
        "parse_cube", "serialize_cube", "make_delta_cube",
        "estimate_scale_constant", "estimate_knots_delta",
        "estimate_knots_optimize", "fit_achromatic", "fit_chromatic",
        "build_correction_cube")
] + [
    ("calibrate", "srgb_encode3"), ("calibrate", "srgb_decode3"),
    ("calibrate", "predict_unprocessed"),
    ("harness", "srgb_encode3"), ("harness", "quantize_8bit"),
    ("harness", "lambertian_unprocessed_arrays"),
]


class Tracer:
    """Records nested spans while ``active``; inert otherwise."""

    def __init__(self):
        self.spans: list[dict] = []
        self.active = False
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._separable = weakref.WeakKeyDictionary()

    def _wrap(self, fn, label, counts=None, before=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            name = label(args) if callable(label) else label
            pre = before(args) if before is not None else None
            span = {"id": len(self.spans),
                    "parent": self._stack[-1] if self._stack else None,
                    "name": name}
            self.spans.append(span)
            self._stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if counts is not None:
                span["counts"] = counts(args, kwargs, result, pre)
            return result
        wrapper.__wrapped_by_tracer__ = True
        return wrapper

    def _apply_label(self, args) -> str:
        lut = args[0].lut
        if lut not in self._separable:
            self._separable[lut] = lut.separable_channels() is not None
        kind = "separable" if self._separable[lut] else "general"
        return f"cubelut.CubeTonemap.apply.{kind}"

    @staticmethod
    def _cli_label(args) -> str:
        argv = args[0] if args else []
        sub = next((a for a in argv if not a.startswith("-")), "none")
        return f"cli.{sub}"

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> dict[str, int]:
        """Patch every binding of every target; return bindings per target."""
        import hdrpcal  # noqa: F401  (loads every submodule)
        from hdrpcal import cli, cubelut

        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "hdrpcal"
                                         or name.startswith("hdrpcal."))]
        bound: dict[str, int] = {}
        for mod_name, attr, counts, before in TARGETS:
            original = getattr(sys.modules[f"hdrpcal.{mod_name}"], attr)
            wrapper = self._wrap(original, f"{mod_name}.{attr}", counts, before)
            label = f"{mod_name}.{attr}"
            bound[label] = 0
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)
                        bound[label] += 1
        self._patch(cubelut.CubeTonemap, "apply",
                    self._wrap(cubelut.CubeTonemap.apply, self._apply_label,
                               lambda a, k, r, b: {"points": _points(a[1])}))
        self._patch(cli, "main", self._wrap(cli.main, self._cli_label))

        missed = [f"{mod}.{name}" for mod, name in REQUIRED_BINDINGS
                  if not getattr(getattr(sys.modules[f"hdrpcal.{mod}"], name),
                                 "__wrapped_by_tracer__", False)]
        if missed:
            self.uninstall()
            raise RuntimeError(f"tracer missed bindings: {missed}")
        return bound

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        self.active = False


def self_times(spans: list[dict]) -> list[float]:
    """Duration of each span minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = []
    for s in spans:
        covered, reach = 0.0, s["start"]
        for lo, hi in sorted(children.get(s["id"], [])):
            lo, hi = max(lo, reach, s["start"]), min(hi, s["end"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s["end"] - s["start"] - covered)
    return out


def nesting_problems(spans: list[dict]) -> list[str]:
    """Spans whose children do not fit inside them (should be none)."""
    by_id = {s["id"]: s for s in spans}
    child_total: dict[int, float] = {}
    problems = []
    for s in spans:
        if s["parent"] is None:
            continue
        parent = by_id[s["parent"]]
        if s["start"] < parent["start"] or s["end"] > parent["end"]:
            problems.append(f"span {s['id']} ({s['name']}) leaves its parent")
        child_total[s["parent"]] = (child_total.get(s["parent"], 0.0)
                                    + s["end"] - s["start"])
    for pid, total in child_total.items():
        parent = by_id[pid]
        if total > parent["end"] - parent["start"] + 1e-9:
            problems.append(f"children of span {pid} ({parent['name']}) "
                            "outlast it")
    return problems


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer totals: ``<name>.self_s`` and ``<name>.<count>`` for every
    span name, ``cli.<subcommand>.wall_s`` and ``cli.self_s``."""
    out: dict[str, float] = {}
    for s, own in zip(spans, self_times(spans)):
        name = s["name"]
        if name.startswith("cli."):
            out[f"{name}.wall_s"] = out.get(f"{name}.wall_s", 0.0) + s["end"] - s["start"]
            out["cli.self_s"] = out.get("cli.self_s", 0.0) + own
        else:
            out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + own
        for key, value in s.get("counts", {}).items():
            out[f"{name}.{key}"] = out.get(f"{name}.{key}", 0) + value
    return out
