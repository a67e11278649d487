"""
Span tracer for the traced benchmark run.

Wraps the program's public functions from outside: every module attribute
that holds a traced function (its defining module and every module that
imported it by name, e.g. ``sweeps.solve_lyapunov``) is replaced by a
wrapper that records a span (function, start, end, parent span) in memory.
Nothing inside the program changes.  A traced function that no longer
exists is skipped and reports 0 calls.
"""

from __future__ import annotations

import functools
import sys
import time

TRACED = {
    "linalg": ("solve_lyapunov", "solve_riccati_biased", "stability_margin"),
    "cascaded": ("build_system", "steady_state", "occupations",
                 "closed_form_occupations", "disconnected_baseline"),
    "optomech": ("map_to_cascaded",),
    "counting": ("bias_matrices", "biased_covariance", "large_deviation",
                 "flow_first_moment", "flow_cumulant"),
    "sweeps": ("parse_config", "run_sweep", "emit"),
    "cli": ("main", "build_parser"),
}
KEYS = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns)


class Tracer:
    """Installs span-recording wrappers and aggregates the recorded spans."""

    def __init__(self, package: str = "noisecascade"):
        self.package = package
        self.spans: list[tuple[int, float, float, int]] = []  # key id, start, end, parent
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, key_id: int, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append((key_id, 0.0, 0.0, parent))
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (key_id, start, end, parent)

        return wrapper

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == self.package
                                         or name.startswith(self.package + "."))]
        for key_id, key in enumerate(KEYS):
            mod_name, fn_name = key.split(".")
            home = sys.modules.get(f"{self.package}.{mod_name}")
            original = getattr(home, fn_name, None)
            if original is None:
                continue
            wrapper = self._wrap(key_id, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def summary(self, passes: int) -> dict[str, float]:
        """Per-pass calls and self time of every traced function, plus ratios."""
        n = len(self.spans)
        child_time = [0.0] * n
        for key_id, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls = [0] * len(KEYS)
        self_s = [0.0] * len(KEYS)
        for idx, (key_id, start, end, _) in enumerate(self.spans):
            calls[key_id] += 1
            self_s[key_id] += end - start - child_time[idx]
        out: dict[str, float] = {}
        for key_id, key in enumerate(KEYS):
            out[f"{key}.calls"] = calls[key_id] / passes
            out[f"{key}.self_s"] = self_s[key_id] / passes
        out["trace.self_total_s"] = sum(self_s) / passes
        lyap, ricc = KEYS.index("linalg.solve_lyapunov"), KEYS.index("linalg.solve_riccati_biased")
        theta, cum = KEYS.index("counting.large_deviation"), KEYS.index("counting.flow_cumulant")
        out["linalg.lyapunov_per_riccati"] = _ratio(self._count_under(lyap, ricc), calls[ricc])
        out["counting.riccati_per_theta"] = _ratio(self._count_under(ricc, theta), calls[theta])
        out["counting.theta_per_cumulant"] = _ratio(self._count_under(theta, cum), calls[cum])
        return out

    def _count_under(self, key_id: int, ancestor_id: int) -> int:
        """Number of spans of ``key_id`` that have a span of ``ancestor_id`` above them."""
        spans, count = self.spans, 0
        for kid, _, _, parent in spans:
            if kid != key_id:
                continue
            while parent >= 0:
                if spans[parent][0] == ancestor_id:
                    count += 1
                    break
                parent = spans[parent][3]
        return count


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0
