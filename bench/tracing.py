"""Spans and counters around the public functions of each starkspec layer.

The wrappers are installed from outside the package, on the names that
callers look up at run time (a module attribute, a class attribute, or
the ``q`` callable of the campaign's Potential), and removed again when
the traced campaign ends. Spans are aggregated in memory by call path,
so a span's self time is its duration minus the time its child spans
cover, and the self times of all spans add up to the campaign.
"""
from __future__ import annotations

import dataclasses
import functools
import time
from collections import Counter

import numpy as np

ROOT_SPAN = "cli.main"
WORKSPACE = "volterra.Workspace.__init__"
PICARD = "volterra.Workspace.picard"
SOLVES = ("volterra.solve_psi", "volterra.solve_theta", "volterra.solve_sc")
LOCATE = "spectrum.locate_eigenvalue"
SHOOT = "spectrum.shooting_value"
GRADIENTS = ("spectrum.lambda_directional_derivative",
             "spectrum.kappa_directional_derivative")
LAMBDA_PRED = "asymptotics.lambda_prediction"
KAPPA_PRED = "asymptotics.kappa_prediction"
REPORT = "asymptotics.build_report"
ORACLE = ("oracle.extrapolated_spectrum", "oracle.extrapolated_norming",
          "oracle.eigh_tridiagonal")
EIGH = "oracle.eigh_tridiagonal"
AIRY_ZERO = "airy.airy_zero"
Q = "potentials.q"


class Tracer:
    """Span aggregates by call path plus named work counters."""

    def __init__(self):
        self._stack = [[(), 0.0]]
        self.spans = {}          # path tuple -> [calls, total_s, self_s]
        self.counts = Counter()

    def wrap(self, name, fn, count=None):
        """``fn`` recorded as span ``name``; ``count(counts, args, result)``
        runs after each successful call."""
        stack, spans, counts, clock = self._stack, self.spans, self.counts, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [stack[-1][0] + (name,), 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                stack[-1][1] += dur
                acc = spans.get(frame[0])
                if acc is None:
                    acc = spans[frame[0]] = [0, 0.0, 0.0]
                acc[0] += 1
                acc[1] += dur
                acc[2] += dur - frame[1]
            if count is not None:
                count(counts, args, result)
            return result

        return traced

    def tally(self, key, fn):
        """``fn`` counted under ``key``, without a span."""
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def by_name(self):
        """Calls and self seconds per span name."""
        calls, self_s = Counter(), Counter()
        for path, (n, _, own) in self.spans.items():
            calls[path[-1]] += n
            self_s[path[-1]] += own
        return calls, self_s

    def outermost_s(self, names):
        """Total seconds of the spans named in ``names`` that no other such
        span encloses."""
        names = set(names)
        return sum(total for path, (_, total, _) in self.spans.items()
                   if path[-1] in names and not names.intersection(path[:-1]))


class _ModuleView:
    """A module seen through a namespace whose attributes can be replaced."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, attr):
        return getattr(self._module, attr)


def _count_airy_points(counts, args, _result):
    grid = args[0].grid
    counts["volterra.airy_points"] += grid.gauss_x.size + grid.nodes.size


def _count_sweeps(counts, _args, result):
    counts["volterra.picard_sweeps"] += result[1]


def _count_rows(counts, args, _result):
    counts["oracle.matrix_rows"] += len(args[0])


def _count_q_points(counts, args, _result):
    counts["potentials.q_points"] += np.size(args[0])


def install(tracer: Tracer):
    """Wrap the campaign path's lookups; returns a function that undoes it."""
    from starkspec import asymptotics, cli, oracle, spectrum, volterra

    saved = []

    def patch(owner, attr, new):
        saved.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                      else getattr(owner, attr)))
        setattr(owner, attr, new)

    def span(owner, attr, name, count=None):
        patch(owner, attr, tracer.wrap(name, getattr(owner, attr), count))

    span(volterra.Workspace, "__init__", WORKSPACE, _count_airy_points)
    span(volterra.Workspace, "picard", PICARD, _count_sweeps)
    span(spectrum, "locate_eigenvalue", LOCATE)
    span(spectrum, "shooting_value", SHOOT)
    for attr in ("lambda_directional_derivative", "kappa_directional_derivative"):
        span(spectrum, attr, f"spectrum.{attr}")
    span(spectrum, "solve_psi", "volterra.solve_psi")
    span(spectrum, "solve_sc", "volterra.solve_sc")
    span(cli, "solve_theta", "volterra.solve_theta")
    span(cli, "solve_sc", "volterra.solve_sc")
    span(spectrum, "lambda_prediction", LAMBDA_PRED)
    span(asymptotics, "lambda_prediction", LAMBDA_PRED)
    span(asymptotics, "kappa_prediction", KAPPA_PRED)
    span(asymptotics, "build_report", REPORT)
    span(oracle, "extrapolated_spectrum", "oracle.extrapolated_spectrum")
    span(oracle, "extrapolated_norming", "oracle.extrapolated_norming")
    span(oracle, "eigh_tridiagonal", EIGH, _count_rows)
    for module in (cli, spectrum, asymptotics):
        span(module, "airy_zero", AIRY_ZERO)
    patch(asymptotics, "special", _ModuleView(
        asymptotics.special,
        airy=tracer.tally("asymptotics.airy_calls", asymptotics.special.airy)))

    build = cli.make_potential

    def make_potential(spec):
        pot = build(spec)
        return dataclasses.replace(pot, q=tracer.wrap(Q, pot.q, _count_q_points))

    patch(cli, "make_potential", make_potential)

    def uninstall():
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return uninstall


def layer_metrics(tracer: Tracer, indices: int) -> dict:
    """The benchmark's per-layer metrics from one traced campaign.

    ``*_s`` metrics are self times, except ``spectrum.gradient_s``, which
    is the total time of the outermost directional-derivative calls.
    """
    calls, self_s = tracer.by_name()
    counts = tracer.counts
    lam_calls, kap_calls = calls[LAMBDA_PRED], calls[KAPPA_PRED]
    return {
        "volterra.workspace_builds": (calls[WORKSPACE], "count"),
        "volterra.airy_points": (counts["volterra.airy_points"], "count"),
        "volterra.workspace_s": (self_s[WORKSPACE], "s"),
        "volterra.picard_sweeps": (counts["volterra.picard_sweeps"], "count"),
        "volterra.picard_s": (self_s[PICARD], "s"),
        "volterra.solve_calls": (sum(calls[s] for s in SOLVES), "count"),
        "volterra.solve_s": (sum(self_s[s] for s in SOLVES), "s"),
        "spectrum.locate_calls": (calls[LOCATE], "count"),
        "spectrum.shoot_evals": (calls[SHOOT], "count"),
        "spectrum.shoot_evals_per_index": (calls[SHOOT] / indices, "1/index"),
        "spectrum.locate_s": (self_s[LOCATE] + self_s[SHOOT], "s"),
        "spectrum.gradient_s": (tracer.outermost_s(GRADIENTS), "s"),
        "asymptotics.lambda_pred_calls": (lam_calls, "count"),
        "asymptotics.kappa_pred_calls": (kap_calls, "count"),
        "asymptotics.pred_calls_per_index": ((lam_calls + kap_calls) / indices, "1/index"),
        "asymptotics.airy_calls": (counts["asymptotics.airy_calls"], "count"),
        "asymptotics.pred_s": (self_s[LAMBDA_PRED] + self_s[KAPPA_PRED], "s"),
        "asymptotics.fit_s": (self_s[REPORT], "s"),
        "oracle.eigh_calls": (calls[EIGH], "count"),
        "oracle.matrix_rows": (counts["oracle.matrix_rows"], "count"),
        "oracle.s": (sum(self_s[o] for o in ORACLE), "s"),
        "airy.zero_calls": (calls[AIRY_ZERO], "count"),
        "airy.zero_s": (self_s[AIRY_ZERO], "s"),
        "potentials.q_points": (counts["potentials.q_points"], "count"),
        "potentials.q_s": (self_s[Q], "s"),
        "cli.self_s": (self_s[ROOT_SPAN], "s"),
    }
