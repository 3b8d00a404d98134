"""Command line interface: ``cone classify``, ``seed``, ``solve``, ``verify``.

Machine-readable JSON goes to stdout; human summaries go to stderr, with
the wall time of each solve phase and of each verify suite.  Exit codes:
classify returns 0 for any cone/boundary verdict, 1 for Outside, 2 for
argument errors (more than ``_N_CAP`` eigenvalues, or minor sums that
overflow among them); seed returns 2 for ``--n`` above ``_N_CAP``, an
out-of-range ``--l`` or an ``--l`` with c <= 0, and 3 on construction
failure, among them a c whose seed's minor sums leave the normal floats;
solve returns 0 only when the iteration converged (2 for config errors and
for output files that cannot be written, which leave no file of the run,
and a run that writes leaves no earlier run's output file beside its
report; 4 when the loop stops unconverged or the solve raises one of
the errors ``run_solve`` names, with a report that keeps the error's type,
tuning's refused candidates and the loop's records); verify returns 1 when
any property fails and 2 for ``--samples`` above ``_SAMPLES_CAP``.  Every
argument error exits 2 with the one stderr line ``prog: error: message``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

from .config import ProblemConfig
from .cone import Region, classify_boundary
from .errors import ConstructionError, DomainError, TuningError
from .grids import ScalarGrid, axis_coords, write_grid_csv, write_json
from .iterate import (
    IterationReport,
    assemble_solution,
    newton_loop,
    tune_epsilon,
)
from .presets import PRESETS, preset_config
from .seeds import certify_seed, require_level_applies, seed_for_constant
from .verify import SUITES


def _emit(doc: dict) -> None:
    print(json.dumps(doc, sort_keys=True))


def _note(message: str) -> None:
    print(message, file=sys.stderr)


SOLVE_PHASES = ("tuning", "loop", "assembly", "output")
# every file a solve may leave in its output directory
_OUTPUT_NAMES = ("w.csv", "w.json", "u.csv", "u.json", "report.json")
# verify's largest --samples, a time cap: every suite draws and checks a
# block of rows at a time, so none grows in memory with the count.  At this
# count `khessian verify --suite S --seed 3`, one BLAS thread on a shared
# 2-core machine, takes (wall time, peak RSS): cone-equivalence 1.4 s,
# 39.2 MB; garding-inequality 1.9 s, 40.5 MB; maclaurin 1.5 s, 39.4 MB;
# identities 12.0 s, 40.8 MB; p2-ellipticity 0.6 s, 41.0 MB
_SAMPLES_CAP = 1_000_000
# seed's largest --n and cone classify's longest --lambda, a time cap: both
# run O(n^2 k) Python-level recurrences (sigma_km1_row, one deleted
# recurrence per entry).  On a shared 2-core machine the slowest n = 64
# seed (--k 62 --c -1) takes 0.5-1.0 s, and seed --k 2 --c 0 takes 1.4 s at
# n = 512 and 14 s at n = 1,600
_N_CAP = 64


def _reuse_freed_arrays() -> None:
    """Keep freed blocks of up to 16 MB in glibc's heap, and trim its top only
    past 32 MB.  A solve frees and reallocates grid-sized arrays at every
    layer, and the verify sweeps block-sized ones; by default glibc maps each
    block above 128 kB afresh, so an n = 3, m = 33 solve page-faults 22,000
    times instead of 5.  Where the C library has no ``mallopt``, nothing is
    set."""
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-3, 16 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 32 << 20)  # M_TRIM_THRESHOLD


@dataclass
class SolveArtifacts:
    """A finished solve: its report and the wall time of each of
    ``SOLVE_PHASES`` in seconds (never written to a file)."""

    report: IterationReport
    seconds: dict[str, float]


def run_solve(config: ProblemConfig, out_dir: str) -> SolveArtifacts:
    """Full pipeline: seed, tune, iterate and certify, assemble, write files.

    The loop starts from tuning's iteration 0 at the accepted eps and, when
    it converges, certifies its solution itself; u is assembled from the
    converged w alone.  The configuration was checked when it was built,
    and its right-hand side ``config.f`` with it.  Raises TuningError when
    no eps is admissible, DomainError when the loop's (u, p) leave the
    right-hand side's box (then with the loop's records as its
    ``iterations`` and tuning's refusals as its ``diagnostics``), and
    ConstructionError when the seed cannot be built; a refused Newton step
    ends the loop instead of raising; an OSError from writing propagates,
    and then no file of this solve is left in ``out_dir``.
    """
    _reuse_freed_arrays()
    c = config.f.value_at_origin()
    seed = seed_for_constant(config.k, config.n, c, alpha=config.alpha, l=config.l)
    marks = [time.perf_counter()]  # the start of each phase, then the end
    seed, refused, start = tune_epsilon(seed, config.f, config.m,
                                        tol_newton=config.tol_newton, tol_lin=config.tol_lin)
    marks.append(time.perf_counter())
    try:
        w, report = newton_loop(
            seed, config.f, config.m,
            tol_newton=config.tol_newton,
            max_iter=config.max_iter,
            tol_lin=config.tol_lin,
            start=start,
        )
    except DomainError as err:  # a box exit after tuning keeps tuning's refusals
        err.diagnostics = refused
        raise
    report.aborted_attempts = refused
    marks.append(time.perf_counter())
    u = assemble_solution(w, seed) if report.converged else None
    marks.append(time.perf_counter())

    os.makedirs(out_dir, exist_ok=True)
    _write_outputs(out_dir, config, seed, w, report, u)
    marks.append(time.perf_counter())
    seconds = {phase: end - begin for phase, begin, end in zip(SOLVE_PHASES, marks, marks[1:])}
    return SolveArtifacts(report=report, seconds=seconds)


def _write_outputs(target: str, config: ProblemConfig, seed, w: ScalarGrid,
                   report: IterationReport, u: np.ndarray | None) -> None:
    """w on [-1,1]^n and, when given, u on the cube of side 2*eps^2, with the
    report, through ``_write_staged``."""
    m, eps = config.m, seed.eps
    sidecar = {"n": config.n, "m": m, "seed": seed.to_dict()}
    writes = [("w.csv", write_grid_csv, (w.values, [axis_coords(m)] * config.n)),
              ("w.json", write_json, (sidecar | {"h": w.h},))]
    if u is not None:
        writes += [("u.csv", write_grid_csv, (u, [eps**2 * axis_coords(m)] * config.n)),
                   ("u.json", write_json, (sidecar | {"h": eps**2 * 2.0 / (m - 1)},))]
    writes.append(("report.json", write_json,
                   (report.to_dict() | {"config": config.to_dict()},)))
    _write_staged(target, writes)


def _write_staged(target: str, writes: list[tuple]) -> None:
    """Write each (name, writer, args) of ``writes``, ``report.json`` last,
    into ``target``, as a solve leaves its files.

    Every file is written under a temporary name in ``target`` first, and
    only then moved into place by ``os.replace``, in order.  Once this
    run's files are in place, the names of ``_OUTPUT_NAMES`` it did not
    write are removed, so no file of an earlier run stays beside its
    report.  On an OSError the temporaries and the files already moved are
    removed, so a failed write leaves no file of this run, and the error
    propagates with the name of the output file it hit.
    """
    staged, placed = [], []
    try:
        for name, write, args in writes:
            path = os.path.join(target, name)
            staged.append(os.path.join(target, f".{name}.{os.getpid()}.tmp"))
            write(staged[-1], *args)
        for temporary, (name, _, _) in zip(staged, writes):
            path = os.path.join(target, name)
            os.replace(temporary, path)
            placed.append(path)
        written = [name for name, _, _ in writes]
        for name in _OUTPUT_NAMES:
            if name not in written:
                path = os.path.join(target, name)
                with contextlib.suppress(FileNotFoundError):
                    os.remove(path)
    except OSError as err:
        for leftover in staged + placed:
            with contextlib.suppress(OSError):  # a moved temporary is gone already
                os.remove(leftover)
        raise OSError(err.errno, err.strerror, path) from err


def _cmd_cone_classify(args) -> int:
    try:
        lam = np.array([float(v) for v in args.lam.split(",")])
    except ValueError:
        _note(f"could not parse eigenvalue list {args.lam!r}")
        return 2
    if lam.size > _N_CAP:
        _note(f"--lambda may have at most {_N_CAP} entries, got {lam.size}")
        return 2
    try:
        verdict = classify_boundary(lam, args.k, tol=args.tol)
    except DomainError as err:
        _note(str(err))
        return 2
    _emit(verdict.to_dict())
    _note(f"classified as {verdict.kind.value} (margin {verdict.margin:.3e})")
    return 1 if verdict.kind is Region.OUTSIDE else 0


def _cmd_seed(args) -> int:
    if args.n > _N_CAP:
        _note(f"--n must be at most {_N_CAP}, got {args.n}")
        return 2
    top = args.n - args.k + 1  # l = top is the fully convex seed; k >= n has none
    try:
        require_level_applies(args.c, args.l)
    except DomainError as err:
        _note(str(err))
        return 2
    if isinstance(args.l, int) and 1 < top < args.l:
        _note(f"--l must be in 1..{top} or 'full' for n={args.n}, k={args.k}, "
              f"got {args.l}")
        return 2
    try:
        seed = seed_for_constant(args.k, args.n, args.c, l=args.l)
    except (DomainError, ConstructionError) as err:
        _note(f"seed construction failed: {err}")
        return 3
    cert = certify_seed(seed)
    doc = seed.to_dict()
    doc["certificate"] = cert.to_dict()
    _emit(doc)
    _note(
        f"seed for c={args.c}: class {cert.convexity_class}, "
        f"ellipticity margin {cert.ellipticity_margin:.3e}"
    )
    return 0


def _error_fields(err: Exception) -> dict:
    """The failure report's record of a solve's error: its type and, for a
    TuningError or a DomainError raised after tuning, tuning's refused
    candidates as ``diagnostics``; for a DomainError the Newton loop raised,
    its records so far as ``iterations``."""
    fields = {"error_type": type(err).__name__}
    for name in ("diagnostics", "iterations"):
        if getattr(err, name, None) is not None:
            fields[name] = getattr(err, name)
    return fields


def _cmd_solve(args) -> int:
    try:
        if args.preset:
            config = preset_config(args.preset)
        else:
            config = ProblemConfig.from_json_file(args.config)
    except (ValueError, OSError) as err:  # DomainError and the decoders' errors among them
        _note(f"invalid configuration: {err}")
        return 2
    target = args.output if args.output is not None else config.out_dir
    try:  # made before the solve, so an unusable path costs no solve
        os.makedirs(target, exist_ok=True)
    except OSError as err:
        _note(f"cannot use output directory {target!r}: {err}")
        return 2
    try:
        try:
            artifacts = run_solve(config, out_dir=target)
        except (TuningError, DomainError, ConstructionError) as err:
            _write_staged(target, [(
                "report.json", write_json,
                ({"status": "Failed", "error": str(err), "config": config.to_dict()}
                 | _error_fields(err),))])
            _note(f"solver failed: {err}")
            return 4
    except OSError as err:  # the outputs, or the failure report, cannot be written
        _note(f"cannot write the solve's files in {target!r}: {err}")
        return 2
    _emit(artifacts.report.to_dict() | {"config": config.to_dict()})
    _note(
        f"status {artifacts.report.status} after "
        f"{len(artifacts.report.iterations)} iterations; wrote {target}"
    )
    _note(", ".join(f"{phase} {s:.2f} s" for phase, s in artifacts.seconds.items()))
    return 0 if artifacts.report.converged else 4


def _cmd_verify(args) -> int:
    _reuse_freed_arrays()
    names = list(SUITES) if args.suite == "all" else [args.suite]
    all_ok = True
    results = {}
    for name in names:
        start = time.perf_counter()
        res = SUITES[name](samples=args.samples, seed=args.seed)
        seconds = time.perf_counter() - start
        results[name] = res.to_dict()
        _note(
            f"{name}: checked {res.checked}, excluded {res.excluded}, "
            f"failures {res.failures} ({seconds:.2f} s)"
        )
        all_ok &= res.passed
    _emit(results)
    return 0 if all_ok else 1


def _sample_count(text: str) -> int:
    if not (text.isdecimal() and int(text) >= 1):
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    if int(text) > _SAMPLES_CAP:
        raise argparse.ArgumentTypeError(f"expected at most {_SAMPLES_CAP}, got {text!r}")
    return int(text)


def _nonnegative_int(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan  # reported below, with the non-finite values
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _convexity_level(text: str) -> int | str:
    if text == "full":
        return text
    if not (text.isdecimal() and int(text) >= 1):
        raise argparse.ArgumentTypeError(
            f"expected 'full' or a positive integer, got {text!r}")
    return int(text)


class _Parser(argparse.ArgumentParser):
    """Reports an argument error as the one line ``prog: error: message``,
    without argparse's usage lines, and exits 2.  Subparsers take this
    class from their parent."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="khessian",
        description="Construct and certify local solutions of k-Hessian equations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    cone_p = sub.add_parser("cone", help="cone membership and classification")
    cone_sub = cone_p.add_subparsers(dest="cone_command", required=True)
    classify_p = cone_sub.add_parser("classify", help="classify an eigenvalue vector")
    classify_p.add_argument("--lambda", dest="lam", required=True,
                            help="comma-separated eigenvalues; use "
                                 "--lambda=-1,2,... when the first is negative")
    classify_p.add_argument("--k", type=int, required=True)
    classify_p.add_argument("--tol", type=_finite_float, default=1e-9)
    classify_p.set_defaults(func=_cmd_cone_classify)

    seed_p = sub.add_parser("seed", help="construct a quadratic seed")
    seed_p.add_argument("--k", type=int, required=True)
    seed_p.add_argument("--n", type=int, required=True)
    seed_p.add_argument("--c", type=_finite_float, required=True)
    seed_p.add_argument("--l", type=_convexity_level, default=None,
                        help="target convexity offset for c > 0, or 'full'")
    seed_p.set_defaults(func=_cmd_seed)

    solve_p = sub.add_parser("solve", help="run the full solve pipeline")
    group = solve_p.add_mutually_exclusive_group(required=True)
    group.add_argument("--config", help="path to a JSON problem configuration")
    group.add_argument("--preset", help=f"built-in preset: {sorted(PRESETS)}")
    solve_p.add_argument("--output", default=None,
                         help="override the output directory")
    solve_p.set_defaults(func=_cmd_solve)

    verify_p = sub.add_parser("verify", help="run randomized property sweeps")
    verify_p.add_argument("--suite", default="all",
                          choices=["all", *SUITES])
    verify_p.add_argument("--samples", type=_sample_count, default=10000)
    verify_p.add_argument("--seed", type=_nonnegative_int, default=7)
    verify_p.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
