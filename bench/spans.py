"""Layer spans recorded from outside the package.

:class:`Recorder` wraps every public function of each ``cstar_frames``
module, and the constructors of the main value classes, then rebinds the
wrapper in every package namespace that holds the original (the modules
import each other's names with ``from .x import y``).  The package source
is not touched, and :meth:`Recorder.installed` restores every binding.

A span is recorded when a call crosses into another layer.  A call that
stays inside its caller's layer passes straight through, except for the
counted boundaries in ``ALWAYS`` (the eigensolver and the class
constructors), which are recorded wherever they are called from.  Spans
are kept in memory and summarized or written out at the end.
"""

from __future__ import annotations

import contextlib
import inspect
import json
import os
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

PACKAGE = "cstar_frames"
LAYERS = ("linalg", "module_space", "frames", "decomposition", "constructors",
          "weaving", "frame_io", "cli")
CLASSES = {
    "frames": ("FrameSystem",),
    "module_space": ("ModuleVector", "ModuleOperator"),
    "constructors": ("CompactTightCert",),
}
EIGEN = "linalg.hermitian_eigen"
ALWAYS = {EIGEN} | {f"{layer}.{name}" for layer, names in CLASSES.items() for name in names}

# Per-span detail, computed after the call returns from its positional arguments.
DETAIL = {
    EIGEN: lambda args: int(np.shape(args[0])[0]),
    "frame_io.load_frame": lambda args: os.path.getsize(args[0]),
    "frame_io.save_frame": lambda args: os.path.getsize(args[0]),
    "frames.FrameSystem": lambda args: len(args[0]),
    "cli.main": lambda args: args[0][0],
}

# Span fields.
NAME, LAYER, PARENT, START, END, INFO = range(6)


class Recorder:
    """Spans in call order: [name, layer, parent index or -1, start, end, detail]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _wrap(self, name: str, layer: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        always = name in ALWAYS
        detail = DETAIL.get(name)

        def wrapper(*args, **kwargs):
            if stack and not always and spans[stack[-1]][LAYER] == layer:
                return fn(*args, **kwargs)
            span = [name, layer, stack[-1] if stack else -1, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if detail is not None:
                span[INFO] = detail(args)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Bind the wrappers everywhere the originals are bound; restore on exit."""
        restore = []
        wrappers = {}
        try:
            for layer in LAYERS:
                module = sys.modules[f"{PACKAGE}.{layer}"]
                for attr, obj in vars(module).items():
                    if inspect.isfunction(obj) and obj.__module__ == module.__name__ \
                            and not attr.startswith("_"):
                        wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", layer, obj))
                for cls_name in CLASSES.get(layer, ()):
                    cls = getattr(module, cls_name)
                    restore.append((cls, "__init__", cls.__init__))
                    cls.__init__ = self._wrap(f"{layer}.{cls_name}", layer, cls.__init__)
            namespaces = [m for name, m in sys.modules.items()
                          if name == PACKAGE or name.startswith(PACKAGE + ".")]
            for module in namespaces:
                for attr, obj in list(vars(module).items()):
                    hit = wrappers.get(id(obj))
                    if hit is not None and hit[0] is obj:
                        restore.append((module, attr, obj))
                        setattr(module, attr, hit[1])
            yield self
        finally:
            for target, attr, original in reversed(restore):
                setattr(target, attr, original)

    def write(self, path: Path) -> None:
        """Write the spans as JSON: times in microseconds from the first span."""
        origin = self.spans[0][START] if self.spans else 0.0
        rows = [[s[NAME], s[PARENT], round((s[START] - origin) * 1e6, 3),
                 round((s[END] - origin) * 1e6, 3), s[INFO]] for s in self.spans]
        path.write_text(json.dumps({"fields": ["name", "parent", "start_us", "end_us", "info"],
                                    "spans": rows}))


def eigen_calls_per_command(spans: list[list]) -> dict[str, set[int]]:
    """For each CLI command, the set of distinct eigensolve counts seen per call."""
    root = [0] * len(spans)
    per_call = Counter()
    for i, span in enumerate(spans):
        root[i] = i if span[PARENT] < 0 else root[span[PARENT]]
        if span[NAME] == EIGEN:
            per_call[root[i]] += 1
    seen = defaultdict(set)
    for i, span in enumerate(spans):
        if span[NAME] == "cli.main":
            seen[span[INFO]].add(per_call[i])
    return dict(seen)


def layer_metrics(spans: list[list], cycles: int, partitions: int) -> dict[str, float]:
    """Per-layer figures per closed-loop cycle.

    Self time is a span's duration minus that of its child spans.  An
    eigensolve counts toward the layer of its nearest caller outside linalg.
    """
    duration = [s[END] - s[START] for s in spans]
    self_time = list(duration)
    owner = [""] * len(spans)    # nearest layer at or above the span that is not linalg
    for i, span in enumerate(spans):
        parent = span[PARENT]
        if parent >= 0:
            self_time[parent] -= duration[i]
        if span[LAYER] != "linalg":
            owner[i] = span[LAYER]
        else:
            owner[i] = owner[parent] if parent >= 0 else "linalg"

    layer_self = defaultdict(float)
    name_self = defaultdict(float)
    name_calls = Counter()
    name_info = defaultdict(int)
    eigen_owner = Counter()
    eigen_m3 = 0
    sweep_s = 0.0
    for i, span in enumerate(spans):
        name = span[NAME]
        layer_self[span[LAYER]] += self_time[i]
        name_self[name] += self_time[i]
        name_calls[name] += 1
        if span[INFO] is not None and name != "cli.main":
            name_info[name] += span[INFO]
        if name == EIGEN:
            eigen_owner[owner[span[PARENT]] if span[PARENT] >= 0 else "linalg"] += 1
            eigen_m3 += span[INFO] ** 3
        elif span[LAYER] == "weaving" and name != "weaving.universal_bounds":
            sweep_s += duration[i]

    def ratio(num, den):
        return num / den if den else 0.0

    eigen_calls = name_calls[EIGEN]
    load_mb = name_info["frame_io.load_frame"] / 1e6
    save_mb = name_info["frame_io.save_frame"] / 1e6
    per_cycle = {
        "linalg.eigen_calls": eigen_calls,
        "linalg.eigen_s": name_self[EIGEN],
        "linalg.eigen_m3": eigen_m3,
        "frame_io.load_calls": name_calls["frame_io.load_frame"],
        "frame_io.load_s": name_self["frame_io.load_frame"],
        "frame_io.load_mb": load_mb,
        "frame_io.save_calls": name_calls["frame_io.save_frame"],
        "frame_io.save_s": name_self["frame_io.save_frame"],
        "frame_io.save_mb": save_mb,
        "frames.gram_calls": name_calls["frames.FrameSystem"],
        "frames.gram_vectors": name_info["frames.FrameSystem"],
        "frames.gram_s": name_self["frames.FrameSystem"],
        "frames.self_s": layer_self["frames"],
        "frames.eigen_calls": eigen_owner["frames"],
        "module_space.vector_calls": name_calls["module_space.ModuleVector"],
        "module_space.self_s": layer_self["module_space"],
        "decomposition.self_s": layer_self["decomposition"],
        "decomposition.eigen_calls": eigen_owner["decomposition"],
        "constructors.calls": sum(n for k, n in name_calls.items() if k.startswith("constructors.")),
        "constructors.self_s": layer_self["constructors"],
        "weaving.partitions": partitions,
        "weaving.enum_s": name_self["weaving.universal_bounds"],
        "weaving.sweep_s": sweep_s,
        "cli.self_s": layer_self["cli"],
        "cli.eigen_calls": eigen_owner["cli"],
    }
    out = {key: value / cycles for key, value in per_cycle.items()}
    out["linalg.eigen_us_per_call"] = ratio(name_self[EIGEN], eigen_calls) * 1e6
    out["frame_io.load_mb_per_s"] = ratio(load_mb, name_self["frame_io.load_frame"])
    out["frame_io.save_mb_per_s"] = ratio(save_mb, name_self["frame_io.save_frame"])
    out["weaving.enum_us_per_partition"] = ratio(name_self["weaving.universal_bounds"], partitions) * 1e6
    out["weaving.eigen_calls_per_partition"] = ratio(eigen_owner["weaving"], partitions)
    return out
