"""Traced runs: timing shims around the public functions of each eee module.

The shims live here, not in the program: `Tracer.install` wraps every public
function defined in the listed modules and puts the wrapper at every
`eee.*` module attribute that refers to the original (so names imported
with `from .x import f` are covered too); `uninstall` puts the originals
back. Spans (name, start, end, parent, op) stay in memory until the run
writes them out; their clock is the main thread's CPU time, since the
program is single-threaded and never waits (in a measured run, without
the speed sampler's snippets). Self time is a span's duration minus the
part of it its child spans cover, so the self times of one op's spans sum
to the op's duration.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import sys
import time
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

MODULES = ("cli", "game_model", "learning", "chain_analysis", "coupling_bounds", "empirical")
ROOT = "bench.op"


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    op: str
    error: bool = False
    extra: dict | None = None


def self_times(spans: list[Span]) -> dict[int, float]:
    """Per span id: duration minus the union of its children's intervals."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for c in sorted(children.get(s.sid, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.sid] = (s.end - s.start) - covered
    return out


def _spec_key(spec) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    h.update(np.ascontiguousarray(spec.env_kernels).tobytes())
    for ag in spec.agents:
        for arr in (ag.signal_kernel, ag.local_kernels, ag.memory_rule):
            h.update(np.ascontiguousarray(arr).tobytes())
    return h.digest()


def _sigma_key(sigma) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    for p in getattr(sigma, "probs", sigma):
        h.update(np.ascontiguousarray(p, dtype=float).tobytes())
    return h.digest()


@dataclass
class Tracer:
    clock: Callable[[], float] = time.thread_time
    spans: list[Span] = field(default_factory=list)
    op: str = ""
    _stack: list[int] = field(default_factory=list)
    _next: int = 0
    _patched: list = field(default_factory=list)
    _build_keys: set = field(default_factory=set)
    missing: list[str] = field(default_factory=list)

    # -- spans -------------------------------------------------------------

    def begin_op(self, op_id: str) -> None:
        self.op = op_id
        self._build_keys = set()

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span; extras are recorded for a few layers."""
        sid, self._next = self._next, self._next + 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        error = False
        start = self.clock()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            error = True
            raise
        finally:
            end = self.clock()
            self._stack.pop()
            span = Span(sid, name, start, end, parent, self.op, error)
            self.spans.append(span)
        span.extra = self._extra(name, args, kwargs, result)
        return result

    def _extra(self, name, args, kwargs, result):
        if name == "chain_analysis.build_joint_transition":
            key = _spec_key(args[0]) + _sigma_key(args[1] if len(args) > 1 else kwargs["sigma"])
            repeat = key in self._build_keys
            self._build_keys.add(key)
            n = result.matrix.shape[0]
            return {"bytes": n * n * 8, "repeat": repeat}
        if name == "chain_analysis.stationary_distribution":
            return {"power": result.method == "power", "residual": result.residual}
        if name == "empirical.simulate":
            return {"steps": result.horizon}
        if name == "learning.q_value_iteration":
            return {"iterations": len(result[0].dq_history)}
        return None

    # -- shims -------------------------------------------------------------

    def install(self, required: dict[str, tuple[str, ...]] | None = None) -> None:
        """Wrap every public function of MODULES at every eee.* reference.

        `required` names functions per module that metrics depend on; any
        that no longer exist are listed in self.missing.
        """
        wrappers = {}
        for modname in MODULES:
            mod = sys.modules[f"eee.{modname}"]
            for attr, fn in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                wrappers[id(fn)] = (fn, self._wrap(f"{modname}.{attr}", fn))
            self.missing += [f"{modname}.{f}" for f in (required or {}).get(modname, ())
                             if not inspect.isfunction(getattr(mod, f, None))]
        for name, mod in list(sys.modules.items()):
            if name != "eee" and not name.startswith("eee."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, value))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def shim(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)
        return shim


# ---------------------------------------------------------------------------
# per-layer metrics

# metric -> the functions whose self time it sums ("module." sums the module)
SELF_TIME = {
    "chain_analysis.build_joint_transition.self_s": ("chain_analysis.build_joint_transition",),
    "chain_analysis.agent_step_factors.self_s": ("chain_analysis.agent_step_factors",),
    "chain_analysis.stationary_distribution.self_s": ("chain_analysis.stationary_distribution",),
    "chain_analysis.model_from_stationary.self_s": ("chain_analysis.model_from_stationary",),
    "chain_analysis.chain_diagnostics.self_s": ("chain_analysis.chain_diagnostics",),
    "chain_analysis.meyer_condition_number.self_s": ("chain_analysis.meyer_condition_number",),
    "learning.q_value_iteration.self_s": ("learning.q_value_iteration",),
    "learning.policy.self_s": ("learning.greedy_policy", "learning.softmax_policy"),
    "learning.bellman_update.self_s": ("learning.bellman_update",),
    "learning.solve_q_fixed_point.self_s": ("learning.solve_q_fixed_point",),
    "game_model.load_game.self_s": ("game_model.load_game",),
    "game_model.validate_spec.self_s": ("game_model.validate_spec",),
    "game_model.interpolate.self_s": ("game_model.interpolate",),
    "cli.main.self_s": ("cli.main",),
    "coupling_bounds.self_s": ("coupling_bounds.",),
    "empirical.simulate.self_s": ("empirical.simulate",),
    "empirical.compare.self_s": ("empirical.empirical_model", "empirical.compare_models"),
}
CALLS = (
    "chain_analysis.build_joint_transition",
    "chain_analysis.agent_step_factors",
    "chain_analysis.stationary_distribution",
    "chain_analysis.meyer_condition_number",
    "learning.bellman_update",
    "game_model.validate_spec",
    "cli.main",
    "empirical.simulate",
)


def required_functions() -> dict[str, tuple[str, ...]]:
    """Per module, the functions the per-layer metrics read."""
    names = {n for fns in SELF_TIME.values() for n in fns if not n.endswith(".")} | set(CALLS)
    out: dict[str, list[str]] = {}
    for n in sorted(names):
        mod, fn = n.split(".")
        out.setdefault(mod, []).append(fn)
    return {m: tuple(f) for m, f in out.items()}


def layer_metrics(spans: list[Span], n_passes: int, missing=(),
                  factors: dict[str, float] | None = None) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as (value, unit); counts and times are per traced pass.

    Self times are scaled by their op's speed factor from `factors`, if
    given. Metrics that read a function listed in `missing` are left out.
    """
    selfs = self_times(spans)
    if factors:
        selfs = {s.sid: selfs[s.sid] * factors.get(s.op, 1.0) for s in spans}
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def self_sum(prefixes):
        return sum(selfs[s.sid] for name, group in by_name.items()
                   if any(name == p or (p.endswith(".") and name.startswith(p)) for p in prefixes)
                   for s in group)

    def extras(name, key):
        return [s.extra[key] for s in by_name.get(name, ()) if s.extra]

    out: dict[str, tuple[float, str]] = {}
    for metric, fns in SELF_TIME.items():
        if not set(fns) & set(missing):
            out[metric] = (self_sum(fns) / n_passes, "s")
    for fn in CALLS:
        if fn not in missing:
            out[f"{fn}.calls"] = (len(by_name.get(fn, ())) / n_passes, "count")
    build = "chain_analysis.build_joint_transition"
    if build not in missing:
        repeats = extras(build, "repeat")
        out[f"{build}.bytes"] = (sum(extras(build, "bytes")) / n_passes, "B")
        out[f"{build}.repeat_share"] = (sum(repeats) / len(repeats) if repeats else 0.0, "share")
    solve = "chain_analysis.stationary_distribution"
    if solve not in missing:
        out[f"{solve}.power_fallbacks"] = (sum(extras(solve, "power")) / n_passes, "count")
        out[f"{solve}.max_residual"] = (max(extras(solve, "residual"), default=0.0), "1")
    if "learning.q_value_iteration" not in missing:
        out["learning.iterations"] = (
            sum(extras("learning.q_value_iteration", "iterations")) / n_passes, "count")
    sim = "empirical.simulate"
    if sim not in missing:
        steps = sum(extras(sim, "steps"))
        out[f"{sim}.steps"] = (steps / n_passes, "count")
        out[f"{sim}.us_per_step"] = (
            self_sum((sim,)) / steps * 1e6 if steps else 0.0, "us")
    for mod in MODULES:
        errors = sum(s.error for s in spans if s.name.startswith(mod + "."))
        out[f"{mod}.errors"] = (errors / n_passes, "count")
    return out


def op_self_time_gaps(spans: list[Span]) -> dict[str, float]:
    """Per op: |sum of its spans' self times - its root span's duration|."""
    selfs = self_times(spans)
    total: dict[str, float] = {}
    root: dict[str, float] = {}
    for s in spans:
        total[s.op] = total.get(s.op, 0.0) + selfs[s.sid]
        if s.name == ROOT:
            root[s.op] = s.end - s.start
    return {op: abs(total[op] - duration) for op, duration in root.items()}
