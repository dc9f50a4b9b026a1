"""Spans around spinpath's public functions, recorded from outside the package.

``Tracer.install`` replaces every binding of each target function in
every loaded ``spinpath`` module (``validate_density_matrix`` alone is
bound in seven) with a wrapper that records a span: id, name, start,
end, parent span and job id.  Self time is a span's duration minus the
durations of its direct child spans.  ``uninstall`` puts every original
object back and reports any binding that is not its original again.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter_ns

import numpy as np


def _states_returned(stats, args, result):
    stats["states"] += result.shape[0] if np.ndim(result) == 3 else 1


def _rk4_steps(stats, args, result):
    full, remainder = divmod(args["t"], args["dt"])
    stats["steps"] += int(full) + (remainder > 1e-12 * args["dt"])


def _trotter_steps(stats, args, result):
    stats["steps"] += int(args["n"])


def _shots(stats, args, result):
    block = getattr(sys.modules["spinpath.interferometer"], "_BLOCK_SIZE", 8192)
    stats["shots"] += int(args["samples"])
    stats["blocks"] += -(-int(args["samples"]) // block)


def _ratio_max(stats, args, result):
    stats["max"] = max(stats["max"], float(result))


def _clipped(stats, args, result):
    stats["changed"] += bool(np.linalg.norm(result - np.asarray(args["m"])) > 1e-12)


def _monte_carlo_name(args):
    return f"interferometer.monte_carlo_{args['setup'].mode}"


# (module, function, span name or function of the bound arguments, extra counters)
TARGETS = (
    ("cli", "main", "cli.main", None),
    ("states", "validate_density_matrix", "states.validate_density_matrix", None),
    ("lindblad", "evolve", "lindblad.evolve", _states_returned),
    ("lindblad", "integrate_master", "lindblad.integrate_master", _rk4_steps),
    ("kraus", "trotter_evolve", "kraus.trotter_evolve", _trotter_steps),
    ("kraus", "lindblad_generators_from_kraus", "kraus.lindblad_generators_from_kraus", None),
    ("interferometer", "ensemble_average_monte_carlo", _monte_carlo_name, _shots),
    ("interferometer", "ensemble_average_analytic", "interferometer.ensemble_average_analytic", None),
    ("interferometer", "consistency_ratio", "interferometer.consistency_ratio", _ratio_max),
    ("measures", "measure_report", "measures.measure_report", None),
    ("tomography", "simulate_counts", "tomography.simulate_counts", None),
    ("tomography", "exact_records", "tomography.exact_records", None),
    ("tomography", "reconstruct_linear", "tomography.reconstruct_linear", None),
    ("tomography", "project_psd", "tomography.project_psd", _clipped),
)


def _spinpath_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "spinpath" or name.startswith("spinpath."))]


class Tracer:
    def __init__(self):
        self.stats: dict[str, Counter] = defaultdict(Counter)
        self.spans: list[tuple] = []
        self.record = False
        self.job_id = -1
        self.missing: list[str] = []
        self._stack: list[list[int]] = []
        self._next_id = 0
        self._bindings: list[tuple] = []

    def _wrap(self, original, name, extra):
        tracer = self
        signature = inspect.signature(original)
        needs_args = extra is not None or callable(name)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            bound = None
            if needs_args:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                bound = bound.arguments
            span = name(bound) if callable(name) else name
            stack = tracer._stack
            frame = [tracer._next_id, 0]
            tracer._next_id += 1
            parent = stack[-1][0] if stack else -1
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = original(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                stats = tracer.stats[span]
                stats["calls"] += 1
                stats["self_ns"] += end - start - frame[1]
                if stack:
                    stack[-1][1] += end - start
                if tracer.record:
                    tracer.spans.append((frame[0], span, start, end, parent, tracer.job_id))
            if extra is not None:
                # Counter upkeep is charged to no span.
                begin = perf_counter_ns()
                extra(stats, bound, result)
                if stack:
                    stack[-1][1] += perf_counter_ns() - begin
            return result

        wrapper.bench_traced = True
        return wrapper

    def install(self) -> None:
        modules = _spinpath_modules()
        self.missing = []
        for module_name, function, name, extra in TARGETS:
            original = getattr(sys.modules.get(f"spinpath.{module_name}"), function, None)
            if original is None:
                self.missing.append(f"{module_name}.{function}")
                continue
            wrapper = self._wrap(original, name, extra)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._bindings.append((module, attr, original))

    def uninstall(self) -> list[str]:
        """Restore every binding; return the ones that are not restored."""
        for module, attr, original in self._bindings:
            setattr(module, attr, original)
        problems = [f"{module.__name__}.{attr} not restored"
                    for module, attr, original in self._bindings
                    if getattr(module, attr) is not original]
        problems += [f"{module.__name__}.{attr} still traced"
                     for module in _spinpath_modules()
                     for attr, value in vars(module).items()
                     if getattr(value, "bench_traced", False)]
        self._bindings = []
        return problems

    def take(self) -> dict[str, Counter]:
        """Counters since the last call."""
        stats, self.stats = self.stats, defaultdict(Counter)
        return stats

    def bindings_of(self, function: str) -> int:
        return sum(1 for _, attr, original in self._bindings if original.__name__ == function)
