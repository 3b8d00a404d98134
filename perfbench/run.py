#!/usr/bin/env python3
"""Benchmark of certified k-Hessian solves and the randomized verify sweeps.

Usage (from the repository root)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the named workload through the package's public entry points
(``khessian.cli.run_solve`` and the ``khessian verify`` command) in a worker
process of its own, checks every output with ``checks.py``, and prints the
metrics listed in BENCHMARK.json, the last line being one JSON object.
With ``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
runs one untraced round and then traced rounds, and reports the per-layer
metrics.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import io
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

# One BLAS thread: every workload is a single Python thread, sized for 2 cores.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}
SETUP_REPEATS = 5

ITER0_RHS = (("zero", None), ("const-three", "full"), ("const-three", 1),
             ("const-neg-one", None))
# Samples per suite: the scalar identities sweep costs ~10 ms a sample, the
# batched sweeps microseconds, so these counts give each a comparable share.
VERIFY_COUNTS = {
    "cone-equivalence": 200000,
    "garding-inequality": 100000,
    "maclaurin": 200000,
    "identities": 300,
    "p2-ellipticity": 1000,
}
WORKLOADS = ("fzero-n3-m33", "fzero-n4-m17", "iter0-n4-m17", "verify-sweeps")


def solve_config(n: int, m: int, k: int, rhs: str, l=None) -> dict:
    from khessian.presets import PRESETS

    doc = copy.deepcopy(PRESETS["fzero-linear"])
    doc.update(n=n, k=k, rhs=rhs, l=l)
    doc["grid"]["m"] = m
    return doc


def workload_ops(name: str, seed: int) -> list[dict]:
    """One round of the workload: the same operations in every round.  The
    solves are deterministic; the seed orders them and seeds the sweeps."""
    if name == "verify-sweeps":
        return [{"kind": "verify", "suite": suite,
                 "argv": ["verify", "--suite", suite, "--samples", str(count),
                          "--seed", str(seed)]}
                for suite, count in VERIFY_COUNTS.items()]
    if name == "fzero-n3-m33":
        configs = [solve_config(3, 33, 2, "linear-y1-plus-y2")]
    elif name == "fzero-n4-m17":
        configs = [solve_config(4, 17, k, "linear-y1-plus-y2") for k in (2, 3)]
    else:
        configs = [solve_config(4, 17, k, rhs, l)
                   for k in (2, 3) for rhs, l in ITER0_RHS]
    random.Random(seed).shuffle(configs)
    return [{"kind": "solve", "config": c} for c in configs]


def setup_seconds() -> float:
    """Median wall time of a fresh interpreter importing khessian.cli."""
    code = f"import sys; sys.path.insert(0, {SRC!r}); import khessian.cli"
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class Worker:
    """The worker process and its line protocol (see worker.py)."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py"), SRC],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=ROOT)

    def call(self, op: dict) -> dict:
        self.proc.stdin.write(json.dumps(op) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker ended during {op['kind']} "
                               f"(exit code {self.proc.wait()})")
        return json.loads(line)

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()


def spot_check_sweeps(ops: list[dict], seed: int) -> tuple[dict, list[str]]:
    """Run the round's sweeps once, untimed, with their calls tapped, and
    recompute a subsample apart (check (e)).  Returns the number of values
    checked per suite and the errors."""
    import checks
    import khessian.cli as cli
    import khessian.verify as verify

    tap = checks.SweepTap(verify, seed)
    errors = []
    try:
        for op in ops:
            tap.suite = op["suite"]
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(op["argv"])
            if code != 0:
                errors.append(f"{op['suite']}: khessian verify exited {code}")
            errors += checks.check_sweep_output(op["suite"], out.getvalue())
    finally:
        tap.close()
    checked, spot_errors = checks.check_sweeps(tap, [op["suite"] for op in ops])
    return checked, errors + spot_errors


def layer_metrics(spec: list[dict], totals: dict, rounds: int,
                  traced_s: float, untraced_s: float) -> dict:
    """Per-layer metrics named in BENCHMARK.json, as means per traced round."""
    out = {}
    for item in spec:
        layer, field = item["name"].rsplit(".", 1)
        if layer == "trace":
            value = {"wall_s": traced_s, "overhead_s": traced_s - untraced_s,
                     "self_sum_s": sum(r["self_s"] for r in totals.values()) / rounds}[field]
        elif field == "s_per_unknown":
            row = totals.get(layer, {})
            value = row.get("self_s", 0.0) / row["unknowns"] if row.get("unknowns") else 0.0
        else:
            row = totals.get(layer, {})
            value = row.get("total_s" if field == "s" else field, 0) / rounds
        out[item["name"]] = {"value": value, "unit": item["unit"]}
    return out


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    # Imported here, not at the top: numpy must load after BLAS_ENV is set.
    import checks
    import spans

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    setup_s = None if trace else setup_seconds()
    ops = workload_ops(workload, seed)
    spot_checked, errors = ({}, [])
    if workload == "verify-sweeps":
        spot_checked, errors = spot_check_sweeps(ops, seed)
    iteration_zero = workload == "iter0-n4-m17"

    os.makedirs(OUT, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT)
    spans_path = os.path.join(OUT, f"spans-{workload}-seed{seed}.jsonl")
    worker = Worker()
    attempted = failed = 0
    solve_times: list[float] = []
    round_times: list[float] = []
    failures: dict[str, str] = {}
    margins: list[float] = []
    self_tested = False
    try:
        start = time.perf_counter()
        while True:
            traced = trace and bool(round_times)
            program_s = 0.0
            for i, op in enumerate(ops):
                op = dict(op, trace=traced)
                if op["kind"] == "solve":
                    op["out_dir"] = os.path.join(scratch, f"op{i}")
                reply = worker.call(op)
                attempted += 1
                program_s += reply["seconds"]
                label = op.get("suite") or "{rhs} k={k} l={l}".format(**op["config"])
                if not reply["ok"]:
                    failed += 1
                    failures[label] = reply["error"]
                elif op["kind"] == "verify":
                    errors += checks.check_sweep_output(op["suite"], reply["stdout"])
                else:
                    if not traced:
                        solve_times.append(reply["seconds"])
                    errs, margin = checks.check_solve(op["out_dir"], iteration_zero)
                    errors += [f"{label}: {e}" for e in errs]
                    margins.append(margin)
                    if not self_tested:
                        errors += checks.self_test(op["out_dir"], scratch, iteration_zero)
                        self_tested = True
                if op["kind"] == "solve":
                    shutil.rmtree(op["out_dir"], ignore_errors=True)
            round_times.append(program_s)
            elapsed = time.perf_counter() - start
            if trace and len(round_times) < 2:
                continue
            if elapsed + elapsed / len(round_times) > seconds:
                break
        final = worker.call({"kind": "exit", "spans_path": spans_path})
    finally:
        worker.close()
        shutil.rmtree(scratch, ignore_errors=True)

    if workload != "verify-sweeps" and not self_tested:
        errors.append("no converged solve to run the check self-test on")
    if trace:
        totals = spans.layer_totals(spans.load_spans(spans_path))
        traced = round_times[1:]
        metrics = layer_metrics(bench["per_layer"], totals, len(traced),
                                statistics.mean(traced), round_times[0])
    else:
        op_times = round_times if workload == "verify-sweeps" else solve_times
        if not op_times:
            raise RuntimeError(f"no operation of {workload} succeeded: {failures}")
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "op_s": {"value": statistics.median(op_times), "unit": "s"},
            "peak_rss_mb": {"value": final["peak_rss_kb"] / 1024.0, "unit": "MB"},
        }
        missing = {m["name"] for m in bench["end_to_end"]} - set(metrics)
        if missing:
            raise RuntimeError(f"end-to-end metrics not measured: {sorted(missing)}")

    print(f"workload {workload}  seed {seed}  rounds {len(round_times)}"
          f"{' (first untraced)' if trace else ''}  attempted {attempted}  failed {failed}")
    for label, error in sorted(failures.items()):
        print(f"  failed: {label}: {error}")
    if spot_checked:
        print("  check (e) values spot-checked: " +
              ", ".join(f"{k} {v}" for k, v in spot_checked.items()))
    if margins:
        print(f"  check (b) margin, bound / max |S_k[u] - f|: min {min(margins):.3g}")
    for error in errors:
        print(f"  CHECK FAILED: {error}")
    alias = "verify_s" if workload == "verify-sweeps" else "solve_s"
    for name, m in metrics.items():
        shown = f"{name} ({alias})" if name == "op_s" else name
        print(f"  {shown:44s} {m['value']:.6g} {m['unit']}")
    return {"correct": not errors, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "khessian", "cli.py")):
        print(f"khessian sources not found under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(BLAS_ENV)
    sys.path.insert(0, SRC)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
