"""Outside-in tracing of one benchmark pass.

The tracer wraps public functions of each gyrokit module from the outside
(it edits no file of the package) and records one span per call: name,
start, end, parent span and invocation id. Spans stay in memory; the
per-layer metrics are computed from them after the pass, and the spans
are written out once the pass has ended.

A span name is ``<layer>:<function>``; the layers are the package's
modules plus ``cli`` for the whole invocation.
"""

from __future__ import annotations

import functools
import json
import sys
import time

from workloads import SUITE_CHECKS, WORKLOADS

# per-layer metrics, in the order BENCHMARK.json lists them: (name, unit, better)
LAYER_METRICS = [
    ("sampling.busy_s", "s", "lower"),
    ("sampling.calls", "count", "lower"),
    ("sampling.points", "count", "lower"),
    ("models.busy_s", "s", "lower"),
    ("models.oplus_calls", "count", "lower"),
    ("models.gyr_calls", "count", "lower"),
    ("core.law_checks", "count", "lower"),
    ("core.samples", "count", "lower"),
    ("core.self_s", "s", "lower"),
    ("core.trace_s", "s", "lower"),
    ("core.max_residual", "1", "lower"),
    ("ddarith.busy_s", "s", "lower"),
    ("ddarith.stressed_samples", "count", "lower"),
    ("ddarith.stress_ratio", "ratio", "lower"),
]


def check_key(suite, check):
    """Metric-name form of a check: '=' is not allowed in metric names."""
    return f"ddarith.stressed.{suite}.{check.replace('=', '')}"


LAYER_METRICS += [
    (check_key(suite, check), "count", "lower")
    for suite, names in SUITE_CHECKS.items() for check in names
]
LAYER_METRICS += [
    ("prenorm.eval_s", "s", "lower"),
    ("prenorm.eval_points", "count", "lower"),
    ("prenorm.oracle_s", "s", "lower"),
    ("prenorm.oracle_points", "count", "lower"),
    ("prenorm.build_s", "s", "lower"),
    ("tables.gyr_tensor_calls", "count", "lower"),
    ("tables.gyr_tensor_s", "s", "lower"),
    ("tables.search_s", "s", "lower"),
    ("tables.validate_s", "s", "lower"),
    ("tables.enumerate_s", "s", "lower"),
    ("tables.model_build_s", "s", "lower"),
    ("report.serialize_s", "s", "lower"),
    ("report.bytes", "B", "lower"),
    ("cli.invocations", "count", "lower"),
    ("cli.self_s", "s", "lower"),
]
SUITES = sorted({op.suite for ops in WORKLOADS.values() for op in ops})
LAYER_METRICS += [(f"cli.suite_s.{s}", "s", "lower") for s in SUITES]
LAYER_METRICS += [
    ("trace.untraced_wall_s", "s", "lower"),
    ("trace.traced_wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
]

# counts that must repeat exactly across same-seed passes
EXACT_COUNTS = ("core.samples", "ddarith.stressed_samples",
                "prenorm.oracle_points", "tables.gyr_tensor_calls")

# layers whose busy time is shown as a share of the traced pass
SHARE_METRICS = ("sampling.busy_s", "models.busy_s", "core.self_s", "core.trace_s",
                 "ddarith.busy_s", "prenorm.eval_s", "prenorm.oracle_s",
                 "tables.gyr_tensor_s", "report.serialize_s", "cli.self_s")


def _rows(out):
    if isinstance(out, (list, tuple)):
        return sum(_rows(o) for o in out)
    shape = getattr(out, "shape", None)
    return int(shape[0]) if shape else 0


def _size(out):
    return int(getattr(out, "size", 0))


class Tracer:
    """Records spans around gyrokit functions it wraps for the rest of the
    process; the worker runs one pass per process, so nothing is unwrapped."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent, invocation, data]
        self.invocation = -1
        self._stack = []
        self._law_depth = 0

    # -- recording --

    def _wrap(self, name, fn, note=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, self.invocation, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
                if note is not None:
                    rec[5] = note(args, kwargs, out)
                return out
            finally:
                rec[2] = clock()
                stack.pop()

        return wrapper

    def call(self, name, fn, *args):
        """Run ``fn(*args)`` as one span; used for the cli invocation."""
        self.invocation += 1
        return self._wrap(name, fn)(*args)

    # -- installing --

    @staticmethod
    def _rebind(fn, wrapper):
        """Replace ``fn`` under every name a gyrokit module binds it to."""
        for mod in _gyrokit_modules():
            for key, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, key, wrapper)

    def wrap_function(self, name, module, attr, note=None):
        fn = getattr(module, attr)
        self._rebind(fn, self._wrap(name, fn, note))

    def wrap_method(self, name, cls, attr, note=None):
        setattr(cls, attr, self._wrap(name, getattr(cls, attr), note))

    def _wrap_law_check(self, fn):
        wrapped = self._wrap("core:run_law_check", fn, _law_note)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._law_depth += 1
            try:
                return wrapped(*args, **kwargs)
            finally:
                self._law_depth -= 1

        return wrapper

    def _wrap_norm_fraction(self, fn):
        # only the boundary tracing inside a law check counts as trace time
        wrapped = self._wrap("core:norm_fraction", fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._law_depth:
                return wrapped(*args, **kwargs)
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        from gyrokit import core, ddarith, models, prenorm, report, sampling, tables

        points = lambda a, k, out: _rows(out)  # noqa: E731
        self.wrap_method("sampling:stream", sampling.Sampler, "stream")
        for attr in ("sample_operands", "ball_points", "directions"):
            self.wrap_function(f"sampling:{attr}", sampling, attr, points)
        self.wrap_function("sampling:_rapidity_ball", prenorm, "_rapidity_ball", points)

        for cls in (models.MobiusModel, models.EinsteinModel):
            self.wrap_method("models:oplus", cls, "oplus")
            self.wrap_method("models:gyr", cls, "gyr")

        self._rebind(core.run_law_check, self._wrap_law_check(core.run_law_check))
        core.GyrogroupModel.norm_fraction = self._wrap_norm_fraction(
            core.GyrogroupModel.norm_fraction)

        for cls in (type(models.MobiusModel().extended()),
                    type(models.EinsteinModel().extended())):
            for attr in ("lift", "lower", "zero_like", "neg", "oplus", "gyr", "gyr_derived"):
                if attr in cls.__dict__:
                    self.wrap_method(f"ddarith:{attr}", cls, attr)
        self.wrap_function("ddarith:lift_vector", ddarith, "lift_vector",
                           lambda a, k, out: _rows(a[0]))
        self.wrap_function("ddarith:lower_vector", ddarith, "lower_vector")

        sized = lambda a, k, out: _size(out)  # noqa: E731
        self.wrap_function("prenorm:eval", prenorm, "prenorm_eval", sized)
        self.wrap_method("prenorm:oracle", prenorm.DyadicFamily, "index_of_rapidity", sized)
        self.wrap_function("prenorm:build", prenorm, "build_dyadic")

        self.wrap_function("tables:gyr_tensor", tables, "gyr_tensor")
        self.wrap_function("tables:search", tables, "search_gyrogroups")
        self.wrap_function("tables:validate", tables, "validate_table")
        self.wrap_function("tables:enumerate", tables, "enumerate_subgyrogroups")
        self.wrap_method("tables:model_build", tables.TableModel, "__init__")

        self.wrap_function("report:serialize", report, "canonical_json",
                           lambda a, k, out: len(out.encode()))

    # -- results --

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, inv, _ in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "invocation": inv}) + "\n")

    def metrics(self, suites):
        """Per-layer metrics of the recorded pass; ``suites[i]`` names
        the suite of invocation i."""
        spans = self.spans
        m = {name: 0 for name, _, _ in LAYER_METRICS if not name.startswith("trace.")}
        dur = [s[2] - s[1] for s in spans]
        child = [0.0] * len(spans)
        for i, s in enumerate(spans):
            if s[3] >= 0:
                child[s[3]] += dur[i]

        def layer(i):
            return spans[i][0].split(":", 1)[0]

        def outermost(i):
            lay, p = layer(i), spans[i][3]
            while p >= 0:
                if layer(p) == lay:
                    return False
                p = spans[p][3]
            return True

        def law_parent(i):
            p = spans[i][3]
            while p >= 0 and spans[p][0] != "core:run_law_check":
                p = spans[p][3]
            return p

        lifted = {}
        for i, (name, _, _, _, inv, data) in enumerate(spans):
            lay, func = name.split(":", 1)
            top = outermost(i)
            if lay == "sampling":
                m["sampling.calls"] += 1
                if top:
                    m["sampling.busy_s"] += dur[i]
                    m["sampling.points"] += data or 0
            elif lay == "models":
                m[f"models.{func}_calls"] += 1
                if top:
                    m["models.busy_s"] += dur[i]
            elif name == "core:run_law_check":
                _, _, samples, residual = data
                m["core.law_checks"] += 1
                m["core.samples"] += samples
                m["core.self_s"] += dur[i] - child[i]
                m["core.max_residual"] = max(m["core.max_residual"], residual)
            elif name == "core:norm_fraction":
                m["core.trace_s"] += dur[i]
            elif lay == "ddarith":
                if top:
                    m["ddarith.busy_s"] += dur[i]
                if func == "lift_vector":
                    p = law_parent(i)
                    lifted[p] = lifted.get(p, 0) + data
            elif lay == "prenorm":
                m[f"prenorm.{func}_s"] += dur[i]
                if data is not None:
                    m[f"prenorm.{func}_points"] += data
            elif lay == "tables":
                if func == "gyr_tensor":
                    m["tables.gyr_tensor_calls"] += 1
                m[f"tables.{func}_s"] += dur[i]
            elif lay == "report":
                m["report.serialize_s"] += dur[i]
                m["report.bytes"] += data or 0
            elif lay == "cli":
                m["cli.invocations"] += 1
                m["cli.self_s"] += dur[i] - child[i]
                m[f"cli.suite_s.{suites[inv]}"] += dur[i]

        for p, rows in lifted.items():
            if p < 0:
                continue
            check, n_streams, _, _ = spans[p][5]
            stressed = rows // n_streams
            m["ddarith.stressed_samples"] += stressed
            key = check_key(suites[spans[p][4]], check)
            if key in m:
                m[key] += stressed
        m["ddarith.stress_ratio"] = (
            m["ddarith.stressed_samples"] / m["core.samples"] if m["core.samples"] else 0.0
        )
        m["trace.spans"] = len(spans)
        return m


def _law_note(args, kwargs, result):
    name = args[1] if len(args) > 1 else kwargs["name"]
    streams = args[3] if len(args) > 3 else kwargs["streams"]
    return (name, len(streams), _rows(streams[0]), float(result.max_residual))


def _gyrokit_modules():
    return [mod for key, mod in list(sys.modules.items())
            if mod is not None and (key == "gyrokit" or key.startswith("gyrokit."))]
