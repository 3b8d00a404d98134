"""The benchmark's tracer and sweep checks find every name they wrap, and
the tracer's counters read what the wrapped calls return.

``perfbench/spans.py`` and ``perfbench/checks.py`` look names up in the
package at run time; a renamed or deleted name, or a result of another
shape, would only show as an error in a traced benchmark run.  They are
imported here as they are, from the repository root.
"""

import importlib.util
import os
import pathlib

import pytest

from khessian import verify
from khessian.grids import axis_coords, write_grid_csv
from khessian.iterate import newton_loop, tune_epsilon
from khessian.pde import assemble_linearized, eval_G, solve_dirichlet_info
from khessian.rhs import RhsSpec, RhsTerm
from khessian.seeds import seed_for_zero

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def layer_table():
    return _load("spans").layer_table()


def test_every_traced_layer_resolves(layer_table):
    assert layer_table
    for name, owner, attr, _ in layer_table:
        if isinstance(owner, dict):
            assert attr in owner, name
        elif isinstance(owner, type):
            assert attr in vars(owner), name
        else:
            assert callable(getattr(owner, attr, None)), name


def test_every_tapped_name_is_in_verify():
    tapped = _load("checks").TAPPED
    assert tapped
    for name in tapped:
        assert callable(getattr(verify, name, None)), name


def test_every_counter_reads_a_real_result(layer_table, tmp_path):
    # (result, args, kwargs) of one real call per counted layer
    f = RhsSpec(n=3, terms=[RhsTerm(1.0, (1, 0, 0)), RhsTerm(1.0, (0, 1, 0))])
    seed, _, _ = tune_epsilon(seed_for_zero(2, 3, 0.5), f, 9)
    loop = newton_loop(seed, f, 9)
    w, report = loop
    g = eval_G(w, seed, f)
    system = assemble_linearized(g, seed)
    path, axes = str(tmp_path / "w.csv"), [axis_coords(9)] * 3
    calls = {
        "iterate.newton_loop": (loop, (seed, f, 9), {}),
        "pde.assemble_linearized": (system, (g, seed), {}),
        "pde.solve_dirichlet_info": (solve_dirichlet_info(system), (system,), {}),
        "grids.write_grid_csv": (write_grid_csv(path, w.values, axes),
                                 (path, w.values, axes), {}),
    }
    for suite, sweep in verify.SUITES.items():
        calls[f"verify.{suite}"] = (sweep(samples=20, seed=1), (), {"samples": 20, "seed": 1})
    counts = {name: counter(*calls[name])
              for name, _, _, counter in layer_table if counter is not None}
    assert counts.keys() == calls.keys()
    # tuning's refused eps are not the loop's: a converged loop counts none
    assert report.converged
    assert counts["iterate.newton_loop"] == {"iterations": len(report.iterations),
                                             "retunes": 0}
    assert counts["pde.assemble_linearized"] == {"nnz": 19 * 7**3}
    assert counts["pde.solve_dirichlet_info"] == {"unknowns": 7**3}
    assert counts["grids.write_grid_csv"] == {"bytes": os.path.getsize(path)}
    assert os.path.getsize(path) > 0
    for suite in verify.SUITES:
        assert counts[f"verify.{suite}"]["checked"] > 0, suite


def test_sweep_spot_checks_pass():
    # the benchmark's check (e): tapped sweep calls recomputed by subset products
    checks = _load("checks")
    tap = checks.SweepTap(verify, seed=3)
    try:
        for suite, sweep in verify.SUITES.items():
            tap.suite = suite
            assert sweep(samples=200, seed=3).passed, suite
    finally:
        tap.close()
    checked, errors = checks.check_sweeps(tap, list(verify.SUITES))
    assert errors == []
    assert checked.keys() == verify.SUITES.keys()
    for suite, count in checked.items():
        assert count > 0, suite
