"""Command-line interface: exit codes, determinism, output shapes."""

import json
import re

import pytest

from tdesrec import cli
from tdesrec.cli import EXIT_ERROR, EXIT_OK, EXIT_UNSOLVABLE, main
from tdesrec.fixtures import (
    SMALL_FACTORY_EXPECTED_PATH,
    SMALL_FACTORY_WARMUP,
    small_factory_text,
)


@pytest.fixture()
def model_path(tmp_path):
    p = tmp_path / "factory.tdes"
    p.write_text(small_factory_text())
    return str(p)


@pytest.fixture()
def tsup_path(tmp_path, model_path):
    out = str(tmp_path / "tsup.tdes")
    rc = main(["synth-tcrs", model_path, "--components", "M1", "M2",
               "--reconfig", "R", "--spec", "SPEC", "--reconfig-event", "91",
               "--name", "TSUP", "-o", out])
    assert rc == EXIT_OK
    return out


@pytest.fixture()
def problem_states(factory_problem):
    return factory_problem.source, factory_problem.target


class TestCompose:
    def test_compose_writes_atg(self, tmp_path, model_path, capsys):
        out = str(tmp_path / "rmach.tdes")
        rc = main(["compose", model_path, "M1", "M2", "R",
                   "--name", "RMACH", "-o", out])
        assert rc == EXIT_OK
        assert "RMACH" in capsys.readouterr().out
        from tdesrec.modelfile import parse_model
        from pathlib import Path

        model = parse_model(Path(out).read_text())
        assert "RMACH" in model.atgs

    def test_missing_block_errors(self, model_path, capsys):
        rc = main(["compose", model_path, "NOPE", "--name", "X"])
        assert rc == EXIT_ERROR
        assert "error:" in capsys.readouterr().err


class TestTimedGraphCommand:
    def test_writes_spec_block(self, tmp_path, model_path):
        out = str(tmp_path / "t.tdes")
        rc = main(["timed-graph", model_path, "M2", "--name", "TM2", "-o", out])
        assert rc == EXIT_OK
        from tdesrec.modelfile import parse_model
        from pathlib import Path

        model = parse_model(Path(out).read_text())
        assert "TM2" in model.specs
        assert any(e == 0 for (_, e) in model.specs["TM2"].transitions)

    def test_dot_has_timer_labels(self, tmp_path, model_path):
        out = tmp_path / "t.tdes"
        dot = tmp_path / "t.dot"
        rc = main(["timed-graph", model_path, "M1", "--name", "TM1",
                   "--dot", str(dot), "-o", str(out)])
        assert rc == EXIT_OK
        from tdesrec.modelfile import parse_model

        n_states = parse_model(out.read_text()).specs["TM1"].n_states
        text = dot.read_text()
        assert text.startswith("digraph TM1 {")
        labels = re.findall(r'^  s(\d+) \[shape=\w+, label="([^"]*)"\];$',
                            text, re.MULTILINE)
        assert [int(q) for q, _ in labels] == list(range(n_states))
        for _, label in labels:
            assert re.fullmatch(r"\d+\|\d+:\d+(,\d+:\d+)*", label), label

    @pytest.mark.parametrize("flag", ["-o", "--dot"])
    def test_unwritable_path_is_an_error(self, tmp_path, model_path, flag,
                                         capsys):
        target = str(tmp_path / "missing" / "out")
        rc = main(["timed-graph", model_path, "M1", flag, target])
        assert rc == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {target}")
        assert err.count("\n") == 1


class TestSolve:
    def test_optimal_path_printed_first(self, tsup_path, problem_states, capsys):
        q_s, q_r = problem_states
        rc = main(["solve", tsup_path, "--supervisor", "TSUP",
                   "--from", str(q_s), "--to", str(q_r), "--event", "91",
                   "--optimal", "length"])
        assert rc == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "23,33,12,tick,tick,31,tick,tick"
        assert len(lines) == 2

    def test_unsolvable_exit_code(self, tsup_path, problem_states, capsys):
        # The warm-up state is not reachable from the committed target, so
        # the reversed problem is unsolvable.
        q_s, q_r = problem_states
        rc = main(["solve", tsup_path, "--supervisor", "TSUP",
                   "--from", str(q_r), "--to", str(q_s), "--event", "12"])
        out = capsys.readouterr().out
        if rc == EXIT_ERROR:
            pytest.skip("12 not defined at the chosen target in this numbering")
        assert rc == EXIT_UNSOLVABLE
        assert "unsolvable" in out

    def test_bad_problem_is_an_error(self, tsup_path, capsys):
        rc = main(["solve", tsup_path, "--supervisor", "TSUP",
                   "--from", "0", "--to", "0", "--event", "91"])
        assert rc == EXIT_ERROR
        assert "not eligible" in capsys.readouterr().err

    @pytest.mark.parametrize("source, target, event, message", [
        ("99999", None, "91", "source state 99999 is not a supervisor state"),
        (None, "99999", "91", "target state 99999 is not a supervisor state"),
        (None, None, "12", "reconfiguration event 12 is not eligible at target state"),
    ])
    def test_rejected_problem_is_one_error_line(self, tsup_path, problem_states, capsys,
                                                source, target, event, message):
        q_s, q_r = problem_states
        rc = main(["solve", tsup_path, "--supervisor", "TSUP",
                   "--from", source or str(q_s), "--to", target or str(q_r),
                   "--event", event])
        assert rc == EXIT_ERROR
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: {message}")
        assert err.count("\n") == 1

    def test_json_report(self, tsup_path, problem_states, tmp_path, capsys):
        q_s, q_r = problem_states
        report = tmp_path / "paths.json"
        rc = main(["solve", tsup_path, "--supervisor", "TSUP",
                   "--from", str(q_s), "--to", str(q_r), "--event", "91",
                   "--json", str(report)])
        assert rc == EXIT_OK
        payload = json.loads(report.read_text())
        assert payload["solvable"] is True
        assert {tuple(p["events"]) for p in payload["paths"]} == {
            ("23", "33", "12", "tick", "tick", "31", "tick", "tick"),
            ("33", "23", "12", "tick", "tick", "31", "tick", "tick"),
        }

    def test_deterministic_output(self, tsup_path, problem_states, capsys):
        q_s, q_r = problem_states
        args = ["solve", tsup_path, "--supervisor", "TSUP",
                "--from", str(q_s), "--to", str(q_r), "--event", "91"]
        assert main(args) == EXIT_OK
        first = capsys.readouterr().out
        assert main(args) == EXIT_OK
        assert capsys.readouterr().out == first


@pytest.fixture()
def dense_path(tmp_path):
    """Twelve states; prohibitible forcible event j leads from every state to state j mod 12."""
    lines = ["events"] + [f"  {j} prohibitible forcible 1 inf" for j in range(1, 13)]
    lines += ["spec DENSE", "  states 12", "  initial 0", "  marked 0"]
    lines += [f"  trans {q} {j} {j % 12}" for q in range(12) for j in range(1, 13)]
    p = tmp_path / "dense.tdes"
    p.write_text("\n".join(lines) + "\n")
    return str(p)


class TestNodeBudget:
    @pytest.mark.parametrize("command", ["solve", "verify-commutativity"])
    def test_dense_supervisor_exceeds_the_budget(self, dense_path, command, capsys):
        rc = main([command, dense_path, "--supervisor", "DENSE",
                   "--from", "0", "--to", "5", "--event", "3"])
        assert rc == EXIT_ERROR
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: backtracking tree exceeds 200000 nodes\n"


class TestProjectCommand:
    def test_project_writes_smaller_block(self, tmp_path, tsup_path, capsys):
        out = str(tmp_path / "ptsup.tdes")
        rc = main(["project", tsup_path, "--block", "TSUP",
                   "--name", "PTSUP", "-o", out])
        assert rc == EXIT_OK
        from tdesrec.modelfile import parse_model
        from pathlib import Path

        model = parse_model(Path(out).read_text())
        assert all(e != 0 for (_, e) in model.specs["PTSUP"].transitions)


class TestVerifyCommutativity:
    def test_prints_both_wall_times(self, tsup_path, problem_states, capsys):
        q_s, q_r = problem_states
        rc = main(["verify-commutativity", tsup_path, "--supervisor", "TSUP",
                   "--from", str(q_s), "--to", str(q_r), "--event", "91"])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "wall time solve-then-project" in out
        assert "wall time project-then-solve" in out
        assert "sets equal" in out


class TestLocalizeCommand:
    def test_localize_reports_and_writes(self, tmp_path, model_path, capsys):
        out = str(tmp_path / "loc.tdes")
        rc = main(["localize", model_path, "--components", "M1", "M2",
                   "--reconfig", "R", "--spec", "SPEC",
                   "--reconfig-event", "91", "-o", out])
        assert rc == EXIT_OK
        text = capsys.readouterr().out
        assert "defining identity verified: True" in text
        from tdesrec.modelfile import parse_model
        from pathlib import Path

        model = parse_model(Path(out).read_text())
        assert "TDRS" in model.specs
        assert any(name.startswith("LOCC_") for name in model.specs)
        assert any(name.startswith("LOCP_") for name in model.specs)

    def test_fallback_is_reported(self, model_path, capsys):
        rc = main(["localize", model_path, "--components", "M1", "M2",
                   "--reconfig", "R", "--spec", "SPEC",
                   "--reconfig-event", "91", "--ev", "91"])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "localization fell back to the full supervisor"


class TestVerifyDecentralized:
    def test_full_report(self, model_path, problem_states, capsys):
        q_s, q_r = problem_states
        rc = main(["verify-decentralized", model_path,
                   "--components", "M1", "M2", "--reconfig", "R",
                   "--spec", "SPEC", "--reconfig-event", "91",
                   "--from", str(q_s), "--to", str(q_r), "--event", "91"])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "solution sets identical: yes" in out
        assert "tick-projection commutativity" in out

    def test_event_not_prohibitible_and_forcible_is_one_error(self, model_path, capsys):
        # 32 is uncontrollable; verify_solution_equivalence decides this alone.
        rc = main(["verify-decentralized", model_path,
                   "--components", "M1", "M2", "--reconfig", "R",
                   "--spec", "SPEC", "--reconfig-event", "91",
                   "--from", "83", "--to", "516", "--event", "32"])
        assert rc == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: reconfiguration event 32 must be declared both "
                                "prohibitible and forcible for decentralized solving\n")


class TestPipelineStagesOnce:
    # verify-decentralized checks the closed loop inside timed_localize and
    # again in verify_solution_equivalence; it solves once there and twice in
    # the commutativity report.
    @pytest.mark.parametrize("command, problem, loops, solves", [
        ("localize", [], 1, 0),
        ("verify-decentralized", ["--from", "83", "--to", "516", "--event", "91"], 2, 3),
    ], ids=["localize", "verify-decentralized"])
    def test_plant_built_and_localized_once(self, monkeypatch, model_path, capsys,
                                            command, problem, loops, solves):
        import sys

        from tdesrec.localization import (decentralized_closed_loop, timed_localize,
                                          verify_localization)
        from tdesrec.solver import trs
        from tdesrec.synthesis import mode_timed_graph

        calls = {}
        for fn in (mode_timed_graph, timed_localize, verify_localization,
                   decentralized_closed_loop, trs):
            calls[fn.__name__] = 0

            def counted(*args, _fn=fn, **kwargs):
                calls[_fn.__name__] += 1
                return _fn(*args, **kwargs)

            for name, module in list(sys.modules.items()):
                if name.split(".")[0] != "tdesrec":
                    continue
                for attr, obj in list(vars(module).items()):
                    if obj is fn:
                        monkeypatch.setattr(module, attr, counted)
        rc = main([command, model_path, "--components", "M1", "M2",
                   "--reconfig", "R", "--spec", "SPEC", "--reconfig-event", "91",
                   *problem])
        assert rc == EXIT_OK
        assert calls == {"mode_timed_graph": 1, "timed_localize": 1,
                         "verify_localization": loops,
                         "decentralized_closed_loop": loops, "trs": solves}


class TestExportDot:
    def test_dot_output(self, model_path, capsys):
        rc = main(["export-dot", model_path, "--block", "M1"])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "digraph M1" in out
        assert "doublecircle" in out

    def test_empty_supervisor_round_trips(self, tmp_path, capsys):
        # A spec that marks nothing leaves no admissible behavior: supcon
        # writes a zero-state block, which export-dot reads back.
        model = tmp_path / "dead.tdes"
        model.write_text(small_factory_text() + "spec DEAD\n  states 1\n  initial 0\n")
        out = str(tmp_path / "sup.tdes")
        assert main(["supcon", str(model), "--plant", "M1", "--spec", "DEAD",
                     "-o", out]) == EXIT_OK
        assert "supervisor: 0 states" in capsys.readouterr().out
        assert main(["export-dot", out, "--block", "SUP"]) == EXIT_OK
        assert "digraph SUP" in capsys.readouterr().out


class TestLibraryErrors:
    @pytest.mark.parametrize("exc", [RuntimeError("stuck"),
                                     RecursionError("maximum recursion depth exceeded"),
                                     MemoryError()])
    def test_runtime_error_is_one_line(self, monkeypatch, model_path, capsys, exc):
        def fail(args):
            raise exc

        monkeypatch.setattr(cli, "cmd_export_dot", fail)
        assert main(["export-dot", model_path, "--block", "M1"]) == EXIT_ERROR
        assert capsys.readouterr().err == f"error: {str(exc) or 'out of memory'}\n"
