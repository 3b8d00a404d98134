"""Spans around the program's layer boundaries, recorded from outside it.

Each wrapper replaces a public function of the ``khessian`` package at every
module attribute that holds it, i.e. at the name its caller looks up (for
example ``khessian.iterate.eval_G`` and ``khessian.pde.eval_G``).  Spans
(id, parent, name, start, end, counts) are kept in memory and written out
when the run ends; per-layer figures are computed from them afterwards.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time


def _khessian_modules():
    return [mod for name, mod in sorted(sys.modules.items())
            if (name == "khessian" or name.startswith("khessian.")) and mod is not None]


def patch_everywhere(orig, replacement, skip_module: str | None = None) -> None:
    """Rebind every khessian module attribute that holds ``orig``.

    Bindings inside ``skip_module`` are left alone, so that a layer's calls
    to itself are not counted as calls into it.
    """
    for mod in _khessian_modules():
        if mod.__name__ == skip_module:
            continue
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, replacement)


def _newton_counts(result, args, kwargs) -> dict:
    _, report = result
    done = len(report.iterations) + sum(len(a["iterations"])
                                        for a in report.aborted_attempts)
    return {"iterations": done, "retunes": len(report.aborted_attempts)}


def _csv_bytes(result, args, kwargs) -> dict:
    return {"bytes": os.path.getsize(args[0])}


def layer_table():
    """(span name, owner, attribute, counter) for every wrapped callable.

    ``owner`` is a module, a class or the verify suite table; ``counter``
    maps (result, args, kwargs) to the counts the span carries."""
    from khessian import cli, cone, grids, iterate, pde, rhs, seeds, symfun, verify

    table = [
        ("cli.run_solve", cli, "run_solve", None),
        ("cli.main", cli, "main", None),
        ("seeds.seed_for_constant", seeds, "seed_for_constant", None),
        ("seeds.sample_p2_points", seeds, "sample_p2_points", None),
        ("iterate.tune_epsilon", iterate, "tune_epsilon", None),
        ("iterate.newton_loop", iterate, "newton_loop", _newton_counts),
        ("iterate.assemble_solution", iterate, "assemble_solution", None),
        ("iterate.certify_convexity", iterate, "certify_convexity", None),
        ("pde.eval_G", pde, "eval_G", None),
        ("pde.assemble_linearized", pde, "assemble_linearized",
         lambda res, a, kw: {"nnz": int(res.matrix.nnz)}),
        ("pde.solve_dirichlet_info", pde, "solve_dirichlet_info",
         lambda res, a, kw: {"unknowns": int(a[0].size)}),
        ("pde.sk_of_matrix", pde, "sk_of_matrix", None),
        ("pde.sk_gradient", pde, "sk_gradient", None),
        ("grids.hessian_of", grids, "hessian_of", None),
        ("grids.holder_quotient", grids, "holder_quotient", None),
        ("grids.calpha_surrogate", grids, "calpha_surrogate", None),
        ("grids.c2alpha_surrogate", grids, "c2alpha_surrogate", None),
        ("grids.write_grid_csv", grids, "write_grid_csv", _csv_bytes),
        ("rhs.value", rhs.RhsSpec, "value", None),
        ("rhs.derivs", rhs.RhsSpec, "du", None),
        ("rhs.derivs", rhs.RhsSpec, "dp", None),
        ("cone.classify_boundary", cone, "classify_boundary", None),
    ]
    for fn in ("in_gamma_k", "in_gamma_tilde", "in_garding_cone_sampled",
               "garding_slack"):
        table.append(("cone.batched", cone, fn, None))
    for fn in ("as_spectrum", "binom", "sigma_all", "elem_sym", "elem_sym_deleted",
               "shift_coefficient", "shift_expand", "maclaurin_mean", "sigma_km1_row"):
        table.append(("symfun", symfun, fn, None))
    for suite in verify.SUITES:
        table.append((f"verify.{suite}", verify.SUITES, suite,
                      lambda res, a, kw: {"checked": int(res.checked)}))
    return table


class Tracer:
    """Records a span for every call through the wrapped layers."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _wrap(self, name, fn, counter):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [len(spans), stack[-1] if stack else -1, name, clock(), 0.0, None]
            spans.append(span)
            stack.append(span[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
            if counter is not None:
                span[5] = counter(result, args, kwargs)
            return result

        return traced

    def install(self) -> None:
        """Wrap every layer for the rest of the process's life."""
        for name, owner, attr, counter in layer_table():
            if isinstance(owner, dict):
                owner[attr] = self._wrap(name, owner[attr], counter)
            elif isinstance(owner, type):
                setattr(owner, attr, self._wrap(name, vars(owner)[attr], counter))
            else:
                orig = getattr(owner, attr)
                skip = owner.__name__ if name == "symfun" else None
                patch_everywhere(orig, self._wrap(name, orig, counter), skip_module=skip)

    def dump(self, path: str) -> None:
        """Write the spans as JSON lines: [id, parent, name, start, end, counts]."""
        with open(path, "w", encoding="ascii") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def load_spans(path: str) -> list[list]:
    with open(path, encoding="ascii") as fh:
        return [json.loads(line) for line in fh]


def layer_totals(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: calls, self_s (duration less child spans), total_s and
    summed counts.  ``candidates`` counts eval_G calls made by tune_epsilon."""
    child_time = [0.0] * len(spans)
    for sid, parent, _, start, end, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals: dict[str, dict[str, float]] = {}
    for sid, parent, name, start, end, counts in spans:
        row = totals.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        row["calls"] += 1
        row["self_s"] += (end - start) - child_time[sid]
        row["total_s"] += end - start
        for key, value in (counts or {}).items():
            row[key] = row.get(key, 0) + value
        if name == "pde.eval_G" and parent >= 0 and spans[parent][2] == "iterate.tune_epsilon":
            tune = totals.setdefault("iterate.tune_epsilon",
                                     {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            tune["candidates"] = tune.get("candidates", 0) + 1
    return totals
