"""Span tracing of geonlf layers from outside the package.

`Tracer.installed()` wraps the public calls in `TARGETS` for the duration of
a `with` block and restores the originals on exit. Every wrapped call
records one `Span` in memory; `layer_metrics` turns a list of spans into the
per-layer numbers the benchmark reports. Nothing under `src/` is modified.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict
from dataclasses import asdict, dataclass


@dataclass
class Span:
    name: str            # "<module>.<qualified function name>"
    start: float         # time.perf_counter() at entry
    end: float           # time.perf_counter() at exit
    parent: int          # index of the enclosing span, -1 for a root span
    run: str             # the set-up or operation the span belongs to
    counts: tuple        # work counts of the call, see TARGETS


def _encode_forward_counts(a) -> tuple:
    """(points, table bytes gathered): 8 hashed corners per hash level and
    4 bilinear corners on each of the 3 planes, per point."""
    n = a["x"].shape[0]
    tables, planes = a["tables"], a["planes"]
    per_point = (tables.shape[0] * 8 * tables.shape[2] * tables.itemsize
                 + 3 * 4 * planes.shape[3] * planes.itemsize)
    return n, n * per_point


def _render_counts(a) -> tuple:
    rays = len(a["origins"])
    return rays, rays * a["num_samples"]


# (module, attribute, work counter over the bound arguments or None)
TARGETS = (
    ("geonlf.encoding", "encode_forward", _encode_forward_counts),
    ("geonlf.encoding", "encode_backward", lambda a: (a["upstream"].shape[0],)),
    ("geonlf.field", "render_rays", _render_counts),
    ("geonlf.field", "backward", None),
    ("geonlf.trainer", "train", None),
    ("geonlf.trainer", "cd_loss_3d", None),
    ("geonlf.trainer", "normal_loss", None),
    ("geonlf.optim", "Adam.step", None),
    ("geonlf.spatial", "KdTree.__init__", None),
    ("geonlf.spatial", "KdTree.query_many", lambda a: (len(a["queries"]),)),
    ("geonlf.spatial", "estimate_normals", None),
    ("geonlf.spatial", "voxel_downsample", None),
    ("geonlf.rcd", "GeoSession.step", lambda a: (len(a["self"].graph.edges),)),
    ("geonlf.icp", "icp_pairwise", None),
    ("geonlf.scene", "lidar_scan", None),
)


class Tracer:
    """In-memory span recorder for single-threaded code."""

    def __init__(self):
        self.spans: list[Span] = []
        self.run = ""
        self._stack: list[int] = []

    def _wrap(self, name: str, fn, counter):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts = ()
            if counter is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                counts = counter(bound.arguments)
            span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                        self.run, counts)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target while the block runs.

        A function is replaced in every loaded geonlf module that holds it
        (callers import functions by name); a method is replaced on its
        class. All originals are put back on exit, also on an exception.
        """
        restore = []
        try:
            for modname, attr, counter in TARGETS:
                module = importlib.import_module(modname)
                owner_name, _, leaf = attr.rpartition(".")
                name = modname.split(".")[-1] + "." + attr
                if owner_name:
                    owner = getattr(module, owner_name)
                    original = owner.__dict__[leaf]
                    restore.append((owner, leaf, original))
                    setattr(owner, leaf, self._wrap(name, original, counter))
                    continue
                original = getattr(module, leaf)
                wrapper = self._wrap(name, original, counter)
                for mod in list(sys.modules.values()):
                    if (getattr(mod, "__name__", "").startswith("geonlf")
                            and getattr(mod, leaf, None) is original):
                        restore.append((mod, leaf, original))
                        setattr(mod, leaf, wrapper)
            yield self
        finally:
            for owner, leaf, original in reversed(restore):
                setattr(owner, leaf, original)

    def dump(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval that its direct
    child spans cover (overlapping children are counted once)."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        reach = s.start
        for lo, hi in sorted((spans[c].start, spans[c].end) for c in children[i]):
            lo, hi = max(lo, reach), min(hi, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((s.end - s.start) - covered)
    return out


def _per(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span], run_prefix: str, runs: int) -> dict[str, float]:
    """Per-layer totals of the spans whose run starts with `run_prefix`,
    divided by the number of `runs` they cover. Times are seconds;
    `*_ns_per_point` and `icp.queries_per_pair` are ratios of totals."""
    selfs = self_times(spans)
    total = defaultdict(float)
    own = defaultdict(float)
    calls = defaultdict(int)
    work = defaultdict(lambda: [0, 0])
    icp_queries = 0
    for s, self_s in zip(spans, selfs):
        if not s.run.startswith(run_prefix):
            continue
        total[s.name] += s.end - s.start
        own[s.name] += self_s
        calls[s.name] += 1
        for k, c in enumerate(s.counts):
            work[s.name][k] += c
        if (s.name == "spatial.KdTree.query_many" and s.parent >= 0
                and spans[s.parent].name == "icp.icp_pairwise"):
            icp_queries += 1

    fwd, bwd = "encoding.encode_forward", "encoding.encode_backward"
    query = "spatial.KdTree.query_many"
    m = {
        "encoding.fwd_s": total[fwd],
        "encoding.fwd_points": work[fwd][0],
        "encoding.fwd_ns_per_point": 1e9 * _per(total[fwd], work[fwd][0]),
        "encoding.fwd_bytes_computed": work[fwd][1],
        "encoding.bwd_s": total[bwd],
        "encoding.bwd_points": work[bwd][0],
        "encoding.bwd_ns_per_point": 1e9 * _per(total[bwd], work[bwd][0]),
        "field.render_self_s": own["field.render_rays"],
        "field.render_calls": calls["field.render_rays"],
        "field.rays": work["field.render_rays"][0],
        "field.samples": work["field.render_rays"][1],
        "field.backward_self_s": own["field.backward"],
        "trainer.cd_s": total["trainer.cd_loss_3d"] + total["trainer.normal_loss"],
        "trainer.cd_calls": calls["trainer.cd_loss_3d"] + calls["trainer.normal_loss"],
        "trainer.self_s": own["trainer.train"],
        "optim.adam_s": total["optim.Adam.step"],
        "optim.adam_calls": calls["optim.Adam.step"],
        "spatial.query_s": total[query],
        "spatial.query_calls": calls[query],
        "spatial.query_points": work[query][0],
        "spatial.query_ns_per_point": 1e9 * _per(total[query], work[query][0]),
        "spatial.build_s": total["spatial.KdTree.__init__"],
        "spatial.build_calls": calls["spatial.KdTree.__init__"],
        "spatial.normals_s": total["spatial.estimate_normals"],
        "spatial.downsample_s": total["spatial.voxel_downsample"],
        "rcd.step_s": total["rcd.GeoSession.step"],
        "rcd.step_self_s": own["rcd.GeoSession.step"],
        "rcd.step_calls": calls["rcd.GeoSession.step"],
        "rcd.edge_evals": work["rcd.GeoSession.step"][0],
        "icp.pair_s": total["icp.icp_pairwise"],
        "icp.pairs": calls["icp.icp_pairwise"],
        "icp.queries_per_pair": _per(icp_queries, calls["icp.icp_pairwise"]),
        "scene.scan_s": total["scene.lidar_scan"],
        "scene.scan_calls": calls["scene.lidar_scan"],
    }
    ratios = {"encoding.fwd_ns_per_point", "encoding.bwd_ns_per_point",
              "spatial.query_ns_per_point", "icp.queries_per_pair"}
    return {k: (v if k in ratios else _per(v, runs)) for k, v in m.items()}
