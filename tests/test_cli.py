import json
import pathlib
import platform
import re
import subprocess
import sys

import numpy as np
import pytest

from khessian import verify
from khessian.cli import build_parser, main
from khessian.config import ProblemConfig
from khessian.errors import DomainError, TuningError
from khessian.iterate import tune_epsilon
from khessian.presets import PRESETS, named_rhs, preset_config
from khessian.rhs import RhsSpec
from khessian.seeds import seed_for_zero


def _repeating(after: str, extra: str, **update):
    """A config edit that applies ``update`` and returns the document's JSON
    text with ``extra``, which repeats a key, written after ``after``."""
    def edit(doc):
        doc.update(update)
        text = json.dumps(doc)
        assert after in text
        return text.replace(after, after + extra, 1)
    return edit


class TestConeCommand:
    def test_boundary_example(self, capsys):
        code = main([
            "cone", "classify",
            "--lambda", "1,1.618033988749895,-0.6180339887498949",
            "--k", "2",
        ])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["kind"] == "BoundaryP2"
        assert abs(doc["sigmas"][3] + 1.0) < 1e-12

    def test_interior(self, capsys):
        assert main(["cone", "classify", "--lambda", "1,1,1", "--k", "2"]) == 0
        assert json.loads(capsys.readouterr().out)["kind"] == "Interior"

    def test_outside_exit_one(self, capsys):
        assert main(["cone", "classify", "--lambda=-5,1,1", "--k", "2"]) == 1

    def test_k_equal_n_rejected(self):
        assert main(["cone", "classify", "--lambda", "1,1", "--k", "2"]) == 2

    def test_parse_error(self):
        assert main(["cone", "classify", "--lambda", "a,b,c", "--k", "2"]) == 2

    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "1e400", "tiny"])
    def test_nonfinite_tol_exit_two(self, capsys, tol):
        # an interior point: a NaN tol used to read as Outside with exit 1
        with pytest.raises(SystemExit) as info:
            main(["cone", "classify", "--lambda=1,2,3", "--k", "2", f"--tol={tol}"])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert f"expected a finite number, got '{tol}'" in captured.err
        assert captured.out == ""

    def test_negative_tol_exit_two(self, capsys):
        assert main(["cone", "classify", "--lambda=1,2,3", "--k", "2",
                     "--tol=-1e-9"]) == 2
        captured = capsys.readouterr()
        assert "tol must be finite and nonnegative" in captured.err
        assert captured.out == ""


class TestSeedCommand:
    def test_zero_seed(self, capsys):
        assert main(["seed", "--k", "2", "--n", "3", "--c", "0"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["tau"][0] == 1.0
        assert (doc["eps"], doc["alpha"]) == (0.5, 0.5)  # tuning's first candidate
        assert doc["certificate"]["convexity_class"] == 1
        assert doc["certificate"]["not_class"] == 3

    def test_full_positive_seed(self, capsys):
        assert main(["seed", "--k", "2", "--n", "3", "--c", "3", "--l", "full"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["tau"] == [1.0, 1.0, 1.0]

    def test_empty_boundary_exit_three(self):
        assert main(["seed", "--k", "2", "--n", "2", "--c", "0"]) == 3

    @pytest.mark.parametrize("c", ["nan", "inf", "-inf", "1e400", "three"])
    def test_nonfinite_constant_exit_two(self, capsys, c):
        # used to exit 3 as a construction failure
        with pytest.raises(SystemExit) as info:
            main(["seed", "--k", "2", "--n", "3", f"--c={c}"])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert f"expected a finite number, got '{c}'" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("level", ["abc", "0", "-1", "1.5"])
    def test_bad_level_exit_two(self, capsys, level):
        with pytest.raises(SystemExit) as info:
            main(["seed", "--k", "2", "--n", "4", "--c", "1", "--l", level])
        assert info.value.code == 2
        assert f"expected 'full' or a positive integer, got '{level}'" in capsys.readouterr().err

    @pytest.mark.parametrize("level", ["4", "5"])
    def test_level_out_of_range_exit_two(self, capsys, level):
        assert main(["seed", "--k", "2", "--n", "4", "--c", "1", "--l", level]) == 2
        err = capsys.readouterr().err
        assert f"--l must be in 1..3 or 'full' for n=4, k=2, got {level}" in err

    @pytest.mark.parametrize("c, level, shown", [("0", "1", "1"), ("-1", "full", "'full'")])
    def test_level_without_positive_constant_exit_two(self, capsys, c, level, shown):
        # the c <= 0 seeds have no convexity level to choose; --l is refused,
        # not ignored
        assert main(["seed", "--k", "2", "--n", "3", f"--c={c}", "--l", level]) == 2
        captured = capsys.readouterr()
        assert (f"l applies only when c = f(0,0,0) > 0, got l={shown} with c={float(c)}"
                in captured.err)
        assert captured.out == ""

    def test_level_accepted(self, capsys):
        assert main(["seed", "--k", "2", "--n", "4", "--c", "1", "--l", "2"]) == 0
        assert json.loads(capsys.readouterr().out)["certificate"]["convexity_class"] == 3

    def test_deterministic(self, capsys):
        main(["seed", "--k", "3", "--n", "5", "--c", "-2"])
        first = capsys.readouterr().out
        main(["seed", "--k", "3", "--n", "5", "--c", "-2"])
        second = capsys.readouterr().out
        assert first == second


class TestConfig:
    def test_round_trip_identity(self):
        cfg = preset_config("fzero-linear")
        doc = cfg.to_dict()
        again = ProblemConfig.from_dict(doc)
        assert again.to_dict() == doc

    def test_invalid_k_rejected(self):
        doc = PRESETS["fzero-linear"] | {"k": 3}
        with pytest.raises(DomainError):
            ProblemConfig.from_dict(doc)

    def test_invalid_tolerance_rejected(self):
        doc = json.loads(json.dumps(PRESETS["fzero-linear"]))
        doc["solver"]["tol_newton"] = -1.0
        with pytest.raises(DomainError):
            ProblemConfig.from_dict(doc)

    @pytest.mark.parametrize("n, m, ok", [(5, 17, True), (5, 19, False),
                                          (6, 9, False), (4, 33, True), (4, 35, False)])
    def test_shape_caps(self, n, m, ok):
        doc = PRESETS["fzero-linear"] | {"n": n, "grid": {"m": m}}
        if ok:
            assert ProblemConfig.from_dict(doc).m == m
        else:
            with pytest.raises(DomainError, match="need 2 <= n <= 5|exceeds the cap"):
                ProblemConfig.from_dict(doc)

    def test_inline_rhs(self):
        doc = json.loads(json.dumps(PRESETS["fzero-linear"]))
        doc["rhs"] = {"terms": [{"coeff": 2.0, "y": [0, 0, 1]}]}
        cfg = ProblemConfig.from_dict(doc)
        f = cfg.build_rhs()
        assert isinstance(f, RhsSpec)
        assert f.value(np.array([0.0, 0.0, 0.5]), 0.0, np.zeros(3)) == 1.0

    def test_named_rhs_unknown(self):
        with pytest.raises(DomainError):
            named_rhs("no-such-rhs", 3)

    def test_preset_files_match_builtins(self):
        # presets/*.json mirror PRESETS: the same names and equal documents
        root = pathlib.Path(__file__).resolve().parents[1] / "presets"
        assert sorted(path.stem for path in root.glob("*.json")) == sorted(PRESETS)
        for name, doc in PRESETS.items():
            on_disk = json.loads((root / f"{name}.json").read_text())
            assert on_disk == doc


class TestSolveCommand:
    def test_instant_preset(self, tmp_path, capsys):
        code = main([
            "solve", "--preset", "fconst-match", "--output", str(tmp_path),
        ])
        assert code == 0
        captured = capsys.readouterr()
        doc = json.loads(captured.out)
        assert doc["status"] == "Converged"
        assert len(doc["iterations"]) == 1
        assert (tmp_path / "u.csv").exists()
        assert (tmp_path / "w.csv").exists()
        assert (tmp_path / "report.json").exists()
        # each phase's wall time goes to stderr, never into the JSON
        assert re.fullmatch(r"tuning \d+\.\d\d s, loop \d+\.\d\d s, assembly "
                            r"\d+\.\d\d s, output \d+\.\d\d s",
                            captured.err.splitlines()[-1])

    def test_config_file(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        doc = json.loads(json.dumps(PRESETS["fconst-neg"]))
        doc["output"]["directory"] = str(tmp_path / "run")
        cfg_path.write_text(json.dumps(doc))
        assert main(["solve", "--config", str(cfg_path)]) == 0
        report = json.loads((tmp_path / "run" / "report.json").read_text())
        assert report["convexity"]["flags"]["2"] is False

    def test_bad_config_exit_two(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text("{not json")
        assert main(["solve", "--config", str(cfg_path)]) == 2
        # a file that is not UTF-8 is refused the same way, without a traceback
        cfg_path.write_bytes(b'{"n": 3, "k": 2\xff}')
        capsys.readouterr()
        assert main(["solve", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid configuration: 'utf-8' codec can't decode byte 0xff")
        assert err.count("\n") == 1
        # so is nesting too deep for the parser
        cfg_path.write_text("[" * 100_000 + "]" * 100_000)
        assert main(["solve", "--config", str(cfg_path)]) == 2
        assert capsys.readouterr().err == (
            "invalid configuration: the configuration is nested too deeply\n")

    def test_unknown_preset_exit_two(self):
        assert main(["solve", "--preset", "nope"]) == 2

    @pytest.mark.parametrize("edit, message", [
        (lambda d: d.update(solvr=d.pop("solver")), "unknown key 'solvr' in the configuration"),
        (lambda d: d["grid"].update(mm=17), "unknown key 'mm' in section 'grid'"),
        (lambda d: d.update(n=3.7), "n must be of type int"),
        (lambda d: d.update(k=True), "k must be of type int"),
        (lambda d: d["grid"].update(m=9.9), "grid.m must be of type int"),
        (lambda d: d["solver"].update(max_iter=2.5), "solver.max_iter must be of type int"),
        (lambda d: d["solver"].update(tol_newton=float("nan")),
         "solver.tol_newton must be a finite number"),
        (lambda d: d.update(alpha=float("inf")), "alpha must be a finite number"),
        (lambda d: d.update(l=True), "invalid convexity level request l=True"),
        (lambda d: d["output"].update(emit_plots_csv="yes"),
         "unknown key 'emit_plots_csv' in section 'output'"),
        (lambda d: d.update(rhs={"terms": [{"coeff": "abc"}]}),
         "rhs.terms[0].coeff must be a finite number"),
        (lambda d: d.update(rhs=5), "section 'rhs' must be a JSON object, got 5"),
        (lambda d: d.update(rhs={"terms": [{"coeff": 1.0, "y": [5, 0, 0]}]}),
         "rhs.terms: term 0: total degree in y exceeds 4"),
        (lambda d: d.update(rhs={"termz": []}), "unknown key 'termz' in section 'rhs'"),
        (lambda d: d.pop("n"), "invalid configuration: n is required\n"),
        (lambda d: d.pop("k"), "invalid configuration: k is required\n"),
        (lambda d: d.update(l="full"),
         "l applies only when c = f(0,0,0) > 0, got l='full' with c=0.0"),
        (lambda d: d.update(l=1, rhs="const-neg-one"),
         "l applies only when c = f(0,0,0) > 0, got l=1 with c=-1.0"),
        (_repeating('"k": 2', ', "n": 4'), "repeated key 'n' in the configuration"),
        (_repeating('"m": 17', ', "m": 9'), "repeated key 'm' in the configuration"),
        (_repeating('"coeff": 1.0', ', "coeff": 2.0', rhs={"terms": [{"coeff": 1.0}]}),
         "repeated key 'coeff' in the configuration"),
    ], ids=["solvr", "grid-key", "n-float", "k-bool", "m-float", "max-iter-float",
            "tol-nan", "alpha-inf", "l-bool", "emit-str", "rhs-coeff-str", "rhs-int",
            "rhs-y-degree", "rhs-key", "n-missing", "k-missing", "l-c-zero", "l-c-negative",
            "n-repeated", "grid-m-repeated", "rhs-coeff-repeated"])
    def test_strict_config_exit_two(self, tmp_path, capsys, edit, message):
        doc = json.loads(json.dumps(PRESETS["fzero-linear"]))
        doc["output"]["directory"] = str(tmp_path / "run")
        text = edit(doc)  # the file's text, when the edit writes it
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(text if isinstance(text, str) else json.dumps(doc))
        assert main(["solve", "--config", str(cfg_path)]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("below", ["", "sub"])
    def test_output_not_a_directory_exit_two(self, tmp_path, capsys, monkeypatch, below):
        # refused before the solve, with one line and no traceback
        def no_solve(*args, **kwargs):
            raise AssertionError("solved into an unusable output path")

        monkeypatch.setattr("khessian.cli.run_solve", no_solve)
        blocker = tmp_path / "taken"
        blocker.write_text("keep")
        target = blocker / below if below else blocker
        assert main(["solve", "--preset", "fconst-match", "--output", str(target)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"cannot use output directory {str(target)!r}: ")
        assert captured.err.count("\n") == 1 and captured.out == ""
        assert blocker.read_text() == "keep"

    @pytest.mark.parametrize("blocked", ["w.csv", "u.csv", "report.json"])
    def test_unwritable_output_file_exit_two(self, tmp_path, capsys, blocked):
        # a directory where a file goes: the converged solve's w.csv or
        # u.csv, or the failure report of a solve whose (u, p) leave a box
        # of 1e-12 at every eps; one line and exit 2, never a traceback, and
        # no file of the run is left: no w.csv or w.json staged before
        # u.csv, no temporary
        failing = blocked == "report.json"
        doc = json.loads(json.dumps(PRESETS["fzero-linear" if failing else "fconst-match"]))
        if failing:
            doc["rhs"] = {"terms": [{"coeff": 1.0, "y": [1, 0, 0]}], "box": 1e-12}
            doc["grid"]["m"] = 9
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        target = tmp_path / "run"
        (target / blocked).mkdir(parents=True)
        assert main(["solve", "--config", str(cfg_path), "--output", str(target)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"cannot write the solve's files in {str(target)!r}: ")
        assert captured.err.endswith(f"Is a directory: {str(target / blocked)!r}\n")
        assert captured.err.count("\n") == 1 and captured.out == ""
        assert [p.name for p in target.iterdir()] == [blocked]

    def test_construction_failure_exit_four(self, tmp_path, capsys):
        doc = json.loads(json.dumps(PRESETS["fzero-linear"]))
        doc["rhs"] = {"terms": [{"coeff": 1e-300}]}
        doc["output"]["directory"] = str(tmp_path / "run")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        assert main(["solve", "--config", str(cfg_path)]) == 4
        assert "positive seed has class 0" in capsys.readouterr().err
        report = json.loads((tmp_path / "run" / "report.json").read_text())
        assert report["status"] == "Failed"
        assert report["config"]["rhs"] == doc["rhs"]

    def test_solver_failure_exit_four(self, tmp_path, capsys):
        # a linear tolerance below roundoff cannot be met
        doc = json.loads(json.dumps(PRESETS["fzero-linear"]))
        doc["grid"]["m"] = 9
        doc["solver"]["tol_lin"] = 1e-300
        doc["output"]["directory"] = str(tmp_path / "run")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        assert main(["solve", "--config", str(cfg_path)]) == 4
        assert "Richardson iteration stalled" in capsys.readouterr().err
        report = json.loads((tmp_path / "run" / "report.json").read_text())
        assert report["status"] == "Failed"
        assert report["error"].endswith(" operator applications")
        assert "(residual stopped shrinking)" in report["error"]

    def test_tuning_failure_report_keeps_diagnostics(self, tmp_path):
        # with a box of 1e-12, (u, p) leave it at every eps down to 1e-4
        doc = json.loads(json.dumps(PRESETS["fzero-linear"]))
        doc["rhs"] = {"terms": [{"coeff": 1.0, "y": [1, 0, 0]}], "box": 1e-12}
        doc["grid"]["m"] = 9
        doc["output"]["directory"] = str(tmp_path / "run")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        assert main(["solve", "--config", str(cfg_path)]) == 4
        report = json.loads((tmp_path / "run" / "report.json").read_text())
        assert report["status"] == "Failed"
        assert report["error_type"] == "TuningError"
        assert report["error"].startswith("no admissible eps above 0.0001")
        diagnostics = report["diagnostics"]
        assert [d["eps"] for d in diagnostics] == [0.5 * 0.5**i for i in range(13)]
        for d in diagnostics:
            assert d["reason"].startswith("(u, p) arguments leave the declared box")
            assert d["iterations"] == []

    def test_tuning_failure_on_a_finer_grid_keeps_both_grids(self, tmp_path):
        # at m = 17 the coarsest grid refuses every eps first, then the
        # solve's grid does; each record names the grid that refused it
        doc = json.loads(json.dumps(PRESETS["fzero-linear"]))
        doc["rhs"] = {"terms": [{"coeff": 1.0, "y": [1, 0, 0]}], "box": 1e-12}
        doc["output"]["directory"] = str(tmp_path / "run")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        assert main(["solve", "--config", str(cfg_path)]) == 4
        report = json.loads((tmp_path / "run" / "report.json").read_text())
        assert report["error_type"] == "TuningError"
        eps = [0.5 * 0.5**i for i in range(13)]
        assert [(d["eps"], d["m"]) for d in report["diagnostics"]] == (
            [(e, 9) for e in eps] + [(e, 17) for e in eps])
        assert set(report["diagnostics"][0]) == {"eps", "m", "reason", "iterations"}
        assert report["error"].endswith(report["diagnostics"][-1]["reason"])

    def test_krylov_stall_report_keeps_diagnostics(self, tmp_path):
        # every candidate's linear solve stalls; tuning records each refusal
        doc = json.loads(json.dumps(PRESETS["fzero-linear"]))
        doc["grid"]["m"] = 9
        doc["solver"]["tol_lin"] = 1e-300
        doc["output"]["directory"] = str(tmp_path / "run")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        assert main(["solve", "--config", str(cfg_path)]) == 4
        report = json.loads((tmp_path / "run" / "report.json").read_text())
        assert report["error_type"] == "TuningError"
        diagnostics = report["diagnostics"]
        assert len(diagnostics) == 13
        for d in diagnostics:
            assert d["reason"].startswith("linear solve failed: Richardson iteration stalled")
            (record,) = d["iterations"]
            assert record["rho_c2alpha"] is None
            # the stalled solve's count of operator applications is kept as a number
            assert record["lin_steps"] >= 1
            assert d["reason"].endswith(
                f" after {record['lin_steps']} operator applications")
        assert report["error"].endswith(diagnostics[-1]["reason"])

    @pytest.mark.parametrize("err, fields", [
        (TuningError("no eps",
                     diagnostics=[{"eps": 0.5, "m": 9, "reason": "r", "iterations": []}]),
         {"error_type": "TuningError",
          "diagnostics": [{"eps": 0.5, "m": 9, "reason": "r", "iterations": []}]}),
        (DomainError("left the box"), {"error_type": "DomainError"}),
    ], ids=["tuning", "domain"])
    def test_failure_report_keeps_error_data(self, tmp_path, monkeypatch, err, fields):
        def fail(config, out_dir=None):
            raise err

        monkeypatch.setattr("khessian.cli.run_solve", fail)
        assert main(["solve", "--preset", "fzero-linear",
                     "--output", str(tmp_path / "run")]) == 4
        report = json.loads((tmp_path / "run" / "report.json").read_text())
        assert report == {"status": "Failed", "error": str(err),
                          "config": preset_config("fzero-linear").to_dict()} | fields

    def test_box_exit_after_tuning_exit_four(self, tmp_path, capsys):
        # tuning refuses eps 1/2, 1/4 and 1/8 by the box and accepts 1/16,
        # where iteration 0's |p| is 5.859375e-3; iteration 1's |p| leaves it
        doc = json.loads(json.dumps(PRESETS["fzero-linear"]))
        doc["rhs"] = {"terms": [{"coeff": 1.0, "y": [1, 0, 0]},
                                {"coeff": 1.0, "y": [0, 1, 0]}], "box": 5.86e-3}
        doc["grid"]["m"] = 9
        doc["output"]["directory"] = str(tmp_path / "run")
        config = ProblemConfig.from_dict(doc)
        f = config.build_rhs()
        tuned, refused, start = tune_epsilon(seed_for_zero(2, 3, 0.5), f, 9)
        assert tuned.eps == 0.0625
        assert [a["eps"] for a in refused] == [0.5, 0.25, 0.125]
        assert all(a["reason"].startswith("(u, p) arguments leave the declared box")
                   for a in refused)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        assert main(["solve", "--config", str(cfg_path)]) == 4
        assert "solver failed: (u, p) arguments leave the declared box" in capsys.readouterr().err
        report = json.loads((tmp_path / "run" / "report.json").read_text())
        assert report["status"] == "Failed"
        assert report["error_type"] == "DomainError"
        assert report["error"].endswith("|p|=0.00586, box=0.00586")
        # tuning's refusals are kept, in the records a TuningError carries
        assert report["diagnostics"] == json.loads(json.dumps(refused))
        assert [a["eps"] for a in report["diagnostics"]] == [0.5, 0.25, 0.125]
        # and so are the loop's records: iteration 0 at eps 1/16, its step included
        (first, rho) = start
        assert rho is not None and first.lin_steps is not None
        assert report["iterations"] == json.loads(json.dumps([first.to_dict()]))

    def test_failed_linear_solve_rejects_eps(self, tmp_path):
        # the seed-preconditioned solve diverges at eps = 1/2; tuning rejects
        # that candidate and halves eps instead of failing the solve
        doc = json.loads(json.dumps(PRESETS["fzero-linear"]))
        doc["rhs"] = {"terms": [{"coeff": 1.0, "y": [1, 0, 0]},
                                {"coeff": 600.0, "p": [2, 0, 0]}]}
        doc["grid"]["m"] = 9
        doc["output"]["directory"] = str(tmp_path / "run")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        assert main(["solve", "--config", str(cfg_path)]) == 0
        report = json.loads((tmp_path / "run" / "report.json").read_text())
        assert report["status"] == "Converged"
        assert report["seed"]["eps"] == 0.0625
        assert [a["eps"] for a in report["aborted_attempts"]] == [0.5, 0.25, 0.125]
        refusal = report["aborted_attempts"][0]
        assert refusal["reason"].startswith("linear solve failed")
        # the residual grows at the first iteration, so the divergent solve
        # is refused at once instead of at the step limit
        assert "(residual stopped shrinking)" in refusal["reason"]
        assert refusal["iterations"][0]["lin_steps"] <= 3

    @pytest.mark.parametrize("edit", [
        lambda d: d.update(alpha=0.25),
        lambda d: d.update(rhs={"terms": [{"coeff": 30.0}]}),
    ], ids=["alpha-quarter", "const-30"])
    def test_large_or_rough_constant_converges(self, tmp_path, edit):
        # eps is tuned from the seed's 1/2 whatever the size of f or alpha
        doc = json.loads(json.dumps(PRESETS["fconst-pos"]))
        doc["output"]["directory"] = str(tmp_path / "run")
        edit(doc)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        assert main(["solve", "--config", str(cfg_path)]) == 0
        report = json.loads((tmp_path / "run" / "report.json").read_text())
        assert report["status"] == "Converged"
        assert (tmp_path / "run" / "u.csv").exists()

    @pytest.mark.parametrize("alpha", [0.1, 0.55])
    def test_alpha_without_provisional_eps_converges(self, tmp_path, alpha):
        # no dyadic eps >= 1e-4 has eps^(2 alpha) / eps' <= 1/4 at these
        # alpha; the seed starts at 1/2 like any other, and tuning decides
        doc = json.loads(json.dumps(PRESETS["fzero-linear"]))
        doc.update(alpha=alpha)
        doc["grid"]["m"] = 9
        doc["output"]["directory"] = str(tmp_path / "run")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        assert main(["solve", "--config", str(cfg_path)]) == 0
        report = json.loads((tmp_path / "run" / "report.json").read_text())
        assert report["status"] == "Converged"


@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "maclaurin", "--samples", "1000001"],
    ["verify", "--suite", "maclaurin", "--seed", "-1"],
    ["seed", "--k", "2", "--n", "3", "--c", "nan"],
    ["cone", "classify", "--lambda=1,2,3", "--k", "2", "--tol", "inf"],
    ["solve"],
])
def test_argument_error_is_one_line(capsys, argv):
    # no usage lines: "khessian <command>: error: <message>" alone, exit 2
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"khessian {argv[0]}")
    assert re.fullmatch(r"[^\n:]+: error: [^\n]+\n", captured.err)
    assert captured.out == ""


class TestVerifyCommand:
    def test_small_sweeps_pass(self, capsys):
        code = main(["verify", "--suite", "identities", "--samples", "50",
                     "--seed", "3"])
        assert code == 0
        captured = capsys.readouterr()
        doc = json.loads(captured.out)
        assert doc["identities"]["passed"] is True
        # each suite's wall time goes to stderr, never into the JSON
        assert re.fullmatch(r"identities: checked 50, excluded 0, failures 0 "
                            r"\(\d+\.\d\d s\)\n", captured.err)

    @pytest.mark.parametrize("samples", ["-3", "0", "ten"])
    def test_bad_samples_exit_two(self, capsys, samples):
        with pytest.raises(SystemExit) as info:
            main(["verify", "--suite", "maclaurin", "--samples", samples])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert f"expected a positive integer, got '{samples}'" in captured.err
        assert captured.out == ""

    def test_samples_cap(self, capsys):
        # parsing only, no sweep: the cap itself is accepted, one more exits 2
        assert build_parser().parse_args(["verify", "--samples", "1000000"]).samples == 10**6
        with pytest.raises(SystemExit) as info:
            build_parser().parse_args(["verify", "--samples", "1000001"])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert "expected at most 1000000, got '1000001'" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("seed", ["-1", "1.5", "seven"])
    def test_bad_seed_exit_two(self, capsys, seed):
        # -1 used to end in numpy's traceback from default_rng
        with pytest.raises(SystemExit) as info:
            main(["verify", "--suite", "maclaurin", "--samples", "10", "--seed", seed])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert f"expected a non-negative integer, got '{seed}'" in captured.err
        assert captured.out == ""

    def test_seed_zero_accepted(self, capsys):
        assert main(["verify", "--suite", "maclaurin", "--samples", "10",
                     "--seed", "0"]) == 0

    def test_identities_failures_recorded(self, monkeypatch):
        # every sample fails once shift_expand is off by 1e-6
        shift_expand = verify.shift_expand
        monkeypatch.setattr(verify, "shift_expand",
                            lambda lam, k, eps: shift_expand(lam, k, eps) + 1e-6)
        res = verify.identities_sweep(samples=50, seed=3)
        assert (res.checked, res.failures) == (50, 50)
        assert len(res.counterexamples) == 5

    def test_cone_equivalence_small(self, capsys):
        code = main(["verify", "--suite", "cone-equivalence",
                     "--samples", "500", "--seed", "3"])
        assert code == 0


def test_cli_import_leaves_out_scipy_sparse():
    # importing the CLI loads no scipy.sparse
    import khessian

    src = str(pathlib.Path(khessian.__file__).resolve().parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); import khessian.cli; "
            "sys.exit('scipy.sparse' in sys.modules)")
    assert subprocess.run([sys.executable, "-c", code], timeout=120).returncode == 0


def test_solve_runs_without_scipy(tmp_path):
    # the whole solve path, the linear solver included, is numpy alone
    import khessian

    doc = json.loads(json.dumps(PRESETS["fzero-linear"]))
    doc["grid"]["m"] = 9
    doc["output"]["directory"] = str(tmp_path / "run")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    src = str(pathlib.Path(khessian.__file__).resolve().parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); import khessian.cli; "
            f"status = khessian.cli.main(['solve', '--config', {str(cfg_path)!r}]); "
            "sys.exit(status or any(m.partition('.')[0] == 'scipy' for m in sys.modules))")
    result = subprocess.run([sys.executable, "-c", code], timeout=120,
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout)["status"] == "Converged"


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="tunes glibc's malloc")
def test_repeated_solve_reuses_freed_arrays(tmp_path):
    # a second solve finds its grid temporaries in the heap; left alone, glibc
    # maps each one afresh and page-faults it (about 5000 faults at m = 33,
    # against some tens tuned; at m = 17 the slabbed temporaries leave about
    # 500, too near the tuned run's own spread to tell the two apart)
    import khessian

    src = str(pathlib.Path(khessian.__file__).resolve().parents[1])
    faults = {}
    for untuned in ("", "cli._reuse_freed_arrays = lambda: None; "):
        code = (f"import dataclasses, sys, resource; sys.path.insert(0, {src!r}); "
                f"import khessian.cli as cli; {untuned}"
                "config = dataclasses.replace(cli.preset_config('fzero-linear'), m=33); "
                f"cli.run_solve(config, {str(tmp_path / 'first')!r}); "
                "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt; "
                f"cli.run_solve(config, {str(tmp_path / 'second')!r}); "
                "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)")
        result = subprocess.run([sys.executable, "-c", code], timeout=120,
                                capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        faults[untuned] = int(result.stdout)
    tuned, untuned = faults.values()
    assert 10 * tuned < untuned


def test_cli_import_leaves_out_scipy_optimize():
    # neither scipy.optimize nor scipy.fft is loaded by importing the CLI
    import khessian

    src = str(pathlib.Path(khessian.__file__).resolve().parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); import khessian.cli; "
            "sys.exit(any(m in sys.modules for m in ('scipy.optimize', 'scipy.fft')))")
    assert subprocess.run([sys.executable, "-c", code], timeout=120).returncode == 0
