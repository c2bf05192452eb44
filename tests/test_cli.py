import contextlib
import copy
import importlib
import importlib.util
import json
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thetacat import cli
from thetacat.cli import main


def run_cli(tmp_path, *argv):
    out = tmp_path / "report.json"
    code = main([*argv, "--out", str(out)])
    data = json.loads(out.read_text()) if out.exists() else None
    return code, data


def test_faces_command(tmp_path):
    code, data = run_cli(tmp_path, "faces", "t[2,1]")
    assert code == 0
    assert data["count"] == 5
    assert data["inner_count"] == 1
    assert data["outer_count"] == 4


def test_faces_bad_shape_token(tmp_path, capsys):
    code = main(["faces", "2,1"])
    assert code == 1


def test_hom_command(tmp_path):
    code, data = run_cli(tmp_path, "hom", "t[1]", "t[1]")
    assert code == 0
    assert data["count"] == 3
    assert data["by_degree"] == {"1": 2, "2": 1}


def test_check_pass(tmp_path):
    code, data = run_cli(
        tmp_path,
        "check", "--mode", "strict-groupoid", "--nerve", "B1:Z2",
        "--max-dim", "2", "--max-entry", "2",
    )
    assert code == 0
    assert data["verdict"] == "pass"


def test_check_fail_witness(tmp_path):
    code, data = run_cli(
        tmp_path,
        "check", "--mode", "groupoid", "--nerve", "B2strict:Z2",
        "--max-dim", "2", "--max-entry", "2",
    )
    assert code == 2
    assert data["verdict"] == "fail"
    assert data["witness"]["shape"] == [2, 1]
    assert data["witness"]["horn"] == [2, 0]


def test_check_table_input(tmp_path):
    from thetacat.groups import cyclic
    from thetacat.nerves import NerveB1
    from thetacat.presheaves import TablePresheaf, table_to_json
    from thetacat.subshapes import WindowSpec

    tbl = TablePresheaf.from_presheaf(NerveB1(cyclic(2)), WindowSpec(1, 2))
    path = tmp_path / "presheaf.json"
    path.write_text(json.dumps(table_to_json(tbl)))
    code, data = run_cli(
        tmp_path,
        "check", "--mode", "cat", "--input", str(path),
        "--max-dim", "1", "--max-entry", "2",
    )
    assert code == 0 and data["verdict"] == "pass"


def test_table_that_is_not_a_presheaf_exit_2(tmp_path):
    from conftest import constants_to_all_ones, swap_in_first_row
    from thetacat.groups import cyclic
    from thetacat.nerves import NerveB1
    from thetacat.presheaves import (
        TablePresheaf,
        check_functoriality,
        table_to_json,
    )
    from thetacat.subshapes import WindowSpec

    window = WindowSpec(1, 2)
    good = TablePresheaf.from_presheaf(NerveB1(cyclic(2)), window)
    # a swapped row, and a fault that only the epi generators see
    tables = {
        "good": good,
        "swapped": swap_in_first_row(good),
        "constants": constants_to_all_ones(good),
    }
    for name, tbl in tables.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(table_to_json(tbl)))
    for mode in ("cat", "groupoid"):
        argv = ["check", "--mode", mode, "--max-dim", "1", "--max-entry", "2"]
        code, data = run_cli(tmp_path, *argv, "--input", str(tmp_path / "good.json"))
        assert code == 0 and data["verdict"] == "pass" and data["horns"]
        for name in ("swapped", "constants"):
            bad = tables[name]
            code, data = run_cli(
                tmp_path, *argv, "--input", str(tmp_path / f"{name}.json")
            )
            assert code == 2
            assert data == {
                "command": "check",
                "subject": "table",
                "window": {"max_dim": 1, "max_entry": 2},
                "verdict": "fail",
                "functoriality": check_functoriality(bad, window).to_json(),
            }
            violation = data["functoriality"]["violation"]
            assert set(violation) == {
                "f", "g", "action_of_composite", "composite_of_actions"
            }
            assert (
                violation["action_of_composite"] != violation["composite_of_actions"]
            )
            if name == "constants":
                assert violation["g"]["components"][0]["values"] == [0, 0, 1]


def test_tables_not_covering_the_window_exit_1(tmp_path):
    from thetacat.groups import cyclic
    from thetacat.nerves import NerveB1
    from thetacat.presheaves import TablePresheaf, table_to_json
    from thetacat.subshapes import WindowSpec

    good = table_to_json(
        TablePresheaf.from_presheaf(NerveB1(cyclic(2)), WindowSpec(1, 2))
    )
    no_row = json.loads(json.dumps(good))
    no_row["actions"].pop()
    bad_index = json.loads(json.dumps(good))
    bad_index["actions"][3]["map"][0] = 99
    short_row = json.loads(json.dumps(good))
    short_row["actions"][3]["map"].pop()
    repeated = json.loads(json.dumps(good))
    level = repeated["levels"][1]["elements"]
    level[1] = level[0]
    unhashable = json.loads(json.dumps(good))
    unhashable["levels"][1]["elements"][0] = {"a": 1}
    cases = [
        ({"levels": [], "actions": []}, []),
        (no_row, ["--max-dim", "1", "--max-entry", "2"]),
        (bad_index, ["--max-dim", "1", "--max-entry", "2"]),
        (short_row, ["--max-dim", "1", "--max-entry", "2"]),
        (repeated, ["--max-dim", "1", "--max-entry", "2"]),
        (unhashable, ["--max-dim", "1", "--max-entry", "2"]),
        # a table covering a smaller window than the one checked
        (good, []),
    ]
    for i, (data, window) in enumerate(cases):
        path = tmp_path / f"table{i}.json"
        path.write_text(json.dumps(data))
        proc = subprocess.run(
            [sys.executable, "-m", "thetacat.cli", "check", "--mode", "cat",
             "--input", str(path), *window],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1, (i, proc.stderr)
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith(f"thetacat: cannot read {path}: ")
        assert proc.stderr.count("\n") == 1


def test_check_usage_errors(tmp_path, capsys):
    assert main(["check", "--mode", "cat"]) == 1
    assert main(["check", "--mode", "nonsense", "--nerve", "B1:Z2"]) == 1
    assert main(["check", "--mode", "cat", "--nerve", "B9:Z2"]) == 1
    # each bad mode is named in its message
    for mode, reason in (
        ("weak-cat", "unknown mode {!r}"),
        ("cat:1", "unknown mode {!r}"),
        ("n-cat", "unknown mode {!r}"),
        (":", "unknown mode {!r}"),
        ("n-strict:x", "mode {!r} needs an integer n"),
        ("n-cat:", "mode {!r} needs an integer n"),
        ("n-strict:1:2", "mode {!r} needs an integer n"),
        ("n-cat:-3", "mode {!r} needs n >= 0"),
    ):
        capsys.readouterr()
        assert main(["check", "--mode", mode, "--nerve", "B1:Z2"]) == 1
        assert capsys.readouterr() == ("", f"thetacat: {reason.format(mode)}\n")


def test_check_takes_exactly_one_source(tmp_path):
    # --nerve with --input, or neither: a usage error before any work, so
    # the missing file is never read and no check runs on the nerve
    missing = tmp_path / "missing.json"
    for source, reason in (
        (["--nerve", "B1:Z2", "--input", str(missing)], "not allowed with"),
        ([], "one of the arguments --nerve --input is required"),
    ):
        proc = subprocess.run(
            [sys.executable, "-m", "thetacat.cli", "check", "--mode", "strict-cat",
             *source],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1, (source, proc.stderr)
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert reason in proc.stderr


def test_window_cap_enforced(tmp_path):
    code = main(
        ["check", "--mode", "cat", "--nerve", "B1:Z2", "--max-dim", "7"]
    )
    assert code == 1


def test_check_budget_exceeded_report(tmp_path):
    code, data = run_cli(
        tmp_path, "check", "--mode", "strict-cat", "--nerve", "B2strict:Z2",
        "--budget", "3",
    )
    assert code == 3
    assert data == {"command": "check", "error": "budget exceeded", "nodes": 4}


def test_check_budget_report_after_reused_face_tables(tmp_path):
    # every horn before t[3,3] searches at most 104 nodes, so the budget
    # trips on the first horn of t[3,3] (four inner faces, 832 nodes), after
    # the horns of t[2,3] and t[3,2] (three inner faces each) reused their
    # face-pair tables; all horns of a shape search the same number of nodes
    code, data = run_cli(
        tmp_path, "check", "--mode", "strict-cat", "--nerve", "B2strict:Z2",
        "--budget", "831",
    )
    assert code == 3
    assert data == {"command": "check", "error": "budget exceeded", "nodes": 832}


def test_h2_cocycle_budget_report(tmp_path):
    # 25 free entries of a normalized table on S3, each in Z2
    code, data = run_cli(tmp_path, "h2", "--group", "S3", "--coeff", "Z2")
    assert code == 3
    assert data == {"command": "h2", "error": "budget exceeded", "nodes": 2**25}


def test_budget_below_one_is_a_usage_error(tmp_path):
    # no search fits in a budget below 1; budget 1 still runs the command
    commands = (
        ["check", "--mode", "cat", "--nerve", "B1:Z2", "--max-dim", "1",
         "--max-entry", "2"],
        ["probe", "t[2]"],
        ["h2", "--group", "Z2", "--coeff", "Z2"],
    )
    for argv in commands:
        for budget in ("-1", "0"):
            proc = subprocess.run(
                [sys.executable, "-m", "thetacat.cli", *argv, "--budget", budget],
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 1, (argv, budget, proc.stderr)
            assert proc.stdout == ""
            assert proc.stderr == f"thetacat: budget must be at least 1, got {budget}\n"
        code, data = run_cli(tmp_path, *argv, "--budget", "1")
        assert code == 3 and data["command"] == argv[0], argv


def test_out_path_that_cannot_be_written_exit_1(tmp_path):
    # a missing directory or a directory as --out: exit 1 with a message,
    # after a finished run and after a budget report alike
    missing = tmp_path / "missing" / "x.json"
    proc = subprocess.run(
        [sys.executable, "-m", "thetacat.cli", "h2", "--group", "Z2", "--coeff",
         "Z2", "--out", str(missing)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == (
        f"thetacat: cannot write {missing}: No such file or directory\n"
    )
    budget = ["h2", "--group", "Z3", "--coeff", "Z2", "--budget", "90"]
    for out in (missing, tmp_path):
        assert main(["faces", "t[2]", "--out", str(out)]) == 1
        assert main([*budget, "--out", str(out)]) == 1
    assert not missing.parent.exists()


# Every report kind, with the exit code that shows the case is reached.
# {table} is an --input table that is not a presheaf.
STREAM_CASES = {
    "faces": (["faces", "t[3,2]"], 0),
    "hom": (["hom", "t[3,3]", "t[3,3]"], 0),
    "check-pass": (["check", "--mode", "strict-groupoid", "--nerve", "B1:Z2",
                    "--max-dim", "2", "--max-entry", "2"], 0),
    "check-fail": (["check", "--mode", "groupoid", "--nerve", "B2strict:Z2",
                    "--max-dim", "2", "--max-entry", "2"], 2),
    "check-functoriality": (["check", "--mode", "cat", "--max-dim", "1",
                             "--max-entry", "2", "--input", "{table}"], 2),
    "certify": (["certify", "t[3]", "--gamma", "1:0,1:3"], 0),
    "probe-found": (["probe", "t[3]"], 0),
    "probe-budget": (["probe", "t[3]", "--budget", "3"], 3),
    "h2": (["h2", "--group", "Z2", "--coeff", "Z3"], 0),
    "h2-counterexample": (["h2", "--group", "Z2", "--coeff", "Z2"], 2),
    "selftest": (["selftest", "--seed", "0"], 0),
    "budget": (["check", "--mode", "strict-cat", "--nerve", "B2strict:Z2",
                "--budget", "3"], 3),
}


@pytest.mark.parametrize("case", sorted(STREAM_CASES))
def test_streamed_report_is_the_json_dumps_bytes(case, tmp_path, monkeypatch, capsysbinary):
    from conftest import one_class_too_many, swap_in_first_row
    from thetacat.groups import cyclic
    from thetacat.nerves import NerveB1
    from thetacat.presheaves import TablePresheaf, table_to_json
    from thetacat.subshapes import WindowSpec

    argv, expected_code = STREAM_CASES[case]
    if case == "check-functoriality":
        good = TablePresheaf.from_presheaf(NerveB1(cyclic(2)), WindowSpec(1, 2))
        table = tmp_path / "table.json"
        table.write_text(json.dumps(table_to_json(swap_in_first_row(good))))
        argv = [str(table) if tok == "{table}" else tok for tok in argv]
    expected = []
    write = cli._write_report

    def spy(report, out_path):
        expected.append((json.dumps(report, indent=2, sort_keys=True) + "\n").encode())
        write(report, out_path)

    monkeypatch.setattr(cli, "_write_report", spy)
    out = tmp_path / "report.json"
    with contextlib.ExitStack() as stack:
        if case == "h2-counterexample":
            stack.enter_context(one_class_too_many())
        assert main(argv) == expected_code
        stdout = capsysbinary.readouterr().out
        assert main([*argv, "--out", str(out)]) == expected_code
    assert len(expected) == 2 and expected[0] == expected[1]
    assert stdout == expected[0]
    assert out.read_bytes() == expected[0]
    if case == "h2-counterexample":
        assert json.loads(stdout)["counterexample"] is not None


# One cheap run of each command, each ending in exit 0.
COMMAND_CASES = [
    ["faces", "t[2]"],
    ["hom", "t[1]", "t[2]"],
    ["check", "--mode", "cat", "--nerve", "B1:Z2", "--max-dim", "1",
     "--max-entry", "2"],
    ["certify", "t[3]", "--gamma", "1:0,1:3"],
    ["probe", "t[2]"],
    ["h2", "--group", "Z2", "--coeff", "Z3"],
    ["selftest", "--seed", "0"],
]


@pytest.mark.parametrize("argv", COMMAND_CASES, ids=lambda argv: argv[0])
def test_commands_return_their_report(argv, capsys):
    # a command maps its arguments to (report, exit code) and writes
    # nothing: main is the one place that writes a report
    args = cli.build_parser().parse_args(argv)
    report, code = args.fn(args)
    assert isinstance(report, dict) and report["command"] == argv[0]
    assert code == 0
    assert capsys.readouterr().out == ""


def test_report_writer_memory_is_bounded(monkeypatch):
    # the 600 895-byte report of `hom t[3,3] t[3,3]`, written to a sink
    # that drops it: the writer holds a batch, never the whole text, and
    # writes batches, not chunks (each write is a system call when stdout
    # is unbuffered; the encoder yields 92 403 chunks here)
    reports = []
    monkeypatch.setattr(cli, "_write_report", lambda report, out: reports.append(report))
    assert main(["hom", "t[3,3]", "t[3,3]"]) == 0
    monkeypatch.undo()

    class Discard:
        written = 0
        writes = 0

        def write(self, text):
            self.written += len(text)
            self.writes += 1

        def flush(self):
            pass

    sink = Discard()
    monkeypatch.setattr(sys, "stdout", sink)
    tracemalloc.start()
    try:
        cli._write_report(reports[0], None)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sink.written == 600_895
    assert sink.writes <= 200, sink.writes
    assert peak < 512 * 1024, peak


@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_stdout_that_cannot_take_the_report_exit_1(unbuffered):
    # a full device and a pipe nobody reads: exit 1 with the reason, and
    # no "Exception ignored" from the flush at interpreter exit
    env = dict(os.environ, PYTHONUNBUFFERED=unbuffered)
    cases = []
    if os.path.exists("/dev/full"):
        with open("/dev/full", "wb") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "thetacat.cli", "selftest", "--seed", "0"],
                stdout=full, stderr=subprocess.PIPE, text=True, env=env,
            )
        cases.append((proc, "No space left on device"))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "thetacat.cli", "hom", "t[3,3]", "t[3,3]"],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=env,
        )
    finally:
        os.close(write_end)
    cases.append((proc, "Broken pipe"))
    for proc, reason in cases:
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr == f"thetacat: cannot write stdout: {reason}\n"


def test_certify_command(tmp_path):
    code, data = run_cli(tmp_path, "certify", "t[2]", "--gamma", "1:0,1:2")
    assert code == 0
    assert data["verified"] and data["steps"] == 1


def test_certify_bad_gamma(tmp_path):
    assert main(["certify", "t[2]", "--gamma", "1:0"]) == 1
    assert main(["certify", "t[2]", "--gamma", "zzz"]) == 1
    assert main(["certify", "t[2,2]", "--gamma", "1:0:9,1:2,2:0,2:2,2:1:junk"]) == 1


def test_certify_start_tag_is_canonical(tmp_path):
    # the union is a set of faces: order and repeats in --gamma do not
    # reach the report
    outs = []
    for gamma in ("2:3,2:0,1:3,1:0,1:1,1:1", "1:0,1:1,1:3,2:0,2:3"):
        outs.append(tmp_path / f"{len(outs)}.json")
        assert main(["certify", "t[3,3]", "--gamma", gamma, "--out", str(outs[-1])]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()
    data = json.loads(outs[0].read_text())
    assert data["certificate"]["start"] == "gamma:1:0,1:1,1:3,2:0,2:3"


def test_reports_do_not_depend_on_the_hash_seed():
    root = Path(__file__).resolve().parents[1]
    commands = [
        ["certify", "t[3,3]", "--gamma", "2:3,2:0,1:3,1:0,1:1,1:1"],
        ["probe", "t[3,1]", "--target", "outer"],
        ["check", "--mode", "strict-cat", "--nerve", "B1:Z2"],
    ]
    for argv in commands:
        stdouts = set()
        for seed in ("0", "12345"):
            proc = subprocess.run(
                [sys.executable, "-m", "thetacat.cli", *argv],
                capture_output=True,
                env={**os.environ, "PYTHONPATH": str(root / "src"), "PYTHONHASHSEED": seed},
                timeout=120,
            )
            assert proc.returncode == 0, (argv, seed, proc.stderr.decode())
            stdouts.add(proc.stdout)
        assert len(stdouts) == 1, argv


def test_probe_full(tmp_path):
    code, data = run_cli(tmp_path, "probe", "t[3]", "--target", "full")
    assert code == 0
    assert data["found"] and data["verified"]
    assert len(data["certificate"]["steps"]) == 4


def test_probe_budget_exceeded(tmp_path):
    # t[6,6]: its whole candidate list does not fit in memory, so the
    # budget must bound the building of hom sets too
    for text, budget in (("t[3]", 3), ("t[6,6]", 5)):
        code, data = run_cli(
            tmp_path, "probe", text, "--target", "full", "--budget", str(budget)
        )
        assert code == 3
        assert not data["found"]
        assert data["nodes"] == budget + 1


def test_probe_rejects_unknown_target(capsys):
    # the search takes an end subobject; the CLI maps target names to ends
    assert main(["probe", "t[2]", "--target", "boundary"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "invalid choice: 'boundary'" in captured.err


def test_h2_command(tmp_path):
    code, data = run_cli(tmp_path, "h2", "--group", "Z2", "--coeff", "Z3")
    assert code == 0
    assert data["z2"] == 3 and data["h2_classes"] == 1
    assert data["nat_maps"] == 3 and data["maps_equal_cocycles"]
    assert data["round_trip_ok"] and data["agree"]
    assert data["num_classes"] == 1


def test_h2_budget_exceeded_report(tmp_path):
    code, data = run_cli(
        tmp_path, "h2", "--group", "Z3", "--coeff", "Z2", "--budget", "90"
    )
    assert code == 3
    assert data == {"command": "h2", "error": "budget exceeded", "nodes": 91}


def test_h2_nonabelian_coeff(tmp_path):
    assert main(["h2", "--group", "Z2", "--coeff", "S3"]) == 1


def test_h2_custom_group_file(tmp_path):
    from conftest import group_to_json
    from thetacat.groups import klein_four

    path = tmp_path / "v4.json"
    path.write_text(json.dumps(group_to_json(klein_four())))
    code, data = run_cli(tmp_path, "h2", "--group", "Z2", "--coeff", f"@{path}")
    assert code == 0 and data["coeff"] == "V4"


def test_selftest_deterministic(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["selftest", "--seed", "42", "--out", str(out1)]) == 0
    assert main(["selftest", "--seed", "42", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    data = json.loads(out1.read_text())
    assert data["verdict"] == "pass"


def test_console_script_entrypoint():
    proc = subprocess.run(
        [sys.executable, "-m", "thetacat.cli", "faces", "t[2]"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["count"] == 3


def test_cli_import_leaves_out_dataclasses_and_selftest():
    # every job pays the CLI's imports: not `dataclasses` (with the
    # `inspect` it pulls in) and not the selftest suite, which only
    # `selftest` runs; every layer module stays eager.  -S keeps site
    # hooks from importing anything first
    src = Path(importlib.util.find_spec("thetacat").origin).parent.parent
    script = (
        "import sys; before = set(sys.modules); import thetacat.cli; "
        "print(*sorted(set(sys.modules) - before))"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
    added = set(proc.stdout.split())
    assert not added & {"dataclasses", "inspect", "thetacat.selftest"}, added
    layers = {"checkers", "presheaves", "nerves", "groups", "anodyne", "theta", "subshapes", "csp"}
    assert {f"thetacat.{name}" for name in layers} <= added


def test_unreadable_input_files_exit_1(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    empty_object = tmp_path / "object.json"
    empty_object.write_text("{}")
    number_list = tmp_path / "list.json"
    number_list.write_text("[1, 2]")
    # too deep for the JSON decoder, and deep enough to decode but not to freeze
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000 + "]" * 100000)
    deep_element = tmp_path / "deep_element.json"
    nested = "[" * 600 + "]" * 600
    deep_element.write_text(
        '{"levels": [{"shape": [], "elements": [%s]}], "actions": []}' % nested
    )
    for path in (
        tmp_path / "missing.json",
        tmp_path,
        bad,
        empty_object,
        number_list,
        deep,
        deep_element,
    ):
        for argv in (
            ["check", "--mode", "cat", "--input", str(path)],
            ["h2", "--group", f"@{path}", "--coeff", "Z2"],
        ):
            proc = subprocess.run(
                [sys.executable, "-m", "thetacat.cli", *argv],
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 1, (argv, proc.stderr)
            assert "Traceback" not in proc.stderr
            assert proc.stderr.startswith("thetacat: cannot read ")
            assert proc.stderr.count("\n") == 1


def test_flags_of_other_commands_exit_1():
    for argv in (
        ["certify", "t[3]", "--gamma", "1:0,1:3", "--max-dim", "5"],
        ["probe", "t[3]", "--seed", "3"],
        ["faces", "t[2]", "--budget", "3"],
    ):
        proc = subprocess.run(
            [sys.executable, "-m", "thetacat.cli", *argv],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1, (argv, proc.stderr)
        assert "Traceback" not in proc.stderr
        assert "unrecognized arguments" in proc.stderr


def _small_numbers(token: str) -> bool:
    """No number above 3, so a token that parses names a small shape."""
    return all(int(run) <= 3 for run in re.findall(r"[0-9]+", token))


_junk = st.text(alphabet="t[]0123,: x-", max_size=10)
_shapes = st.one_of(
    _junk,
    # mostly well formed, so that many runs get past the parser
    st.builds(
        lambda head, entries, tail: head + ",".join(map(str, entries)) + tail,
        st.sampled_from(["t[", "t[", "t[", "t", "[", "T[", " t[", "t("]),
        st.lists(st.integers(-1, 3), max_size=3),
        st.sampled_from(["]", "]", "]", "", "]]", ",]", "] ", ")"]),
    ),
).filter(_small_numbers)
_gammas = st.one_of(
    _junk,
    st.lists(
        st.tuples(st.integers(-1, 3), st.integers(-1, 3)).map("{0[0]}:{0[1]}".format),
        max_size=5,
    ).map(",".join),
).filter(_small_numbers)
_targets = st.one_of(st.sampled_from(["full", "outer", "inner", ""]), _junk)
_modes = st.one_of(
    st.sampled_from(["cat", "strict-cat", "groupoid", "strict-groupoid"]),
    st.builds(
        "{}:{}".format,
        st.sampled_from(["n-strict", "n-cat", "cat", ""]),
        st.one_of(st.integers(-2, 3).map(str), _junk),
    ),
    _junk,
)
_argvs = st.one_of(
    st.builds(lambda a: ["faces", a], _shapes),
    st.builds(
        lambda a, t: ["probe", a, "--target", t, "--budget", "5"], _shapes, _targets
    ),
    st.builds(lambda a, g: ["certify", a, "--gamma", g], _shapes, _gammas),
    st.builds(lambda g: ["certify", "t[2]", "--gamma", g], _gammas),
    st.builds(
        lambda m: ["check", "--mode", m, "--nerve", "B1:Z2",
                   "--max-dim", "1", "--max-entry", "2"],
        _modes,
    ),
)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(_argvs)
def test_cli_never_tracebacks(argv):
    # malformed shape tokens, --gamma lists, --target and --mode strings end
    # in an exit code; any other exception escaping main fails the test
    assert main(argv) in (0, 1, 2, 3)


def _valid_table() -> dict:
    from thetacat.groups import cyclic
    from thetacat.nerves import NerveB1
    from thetacat.presheaves import TablePresheaf, table_to_json
    from thetacat.subshapes import WindowSpec

    tbl = TablePresheaf.from_presheaf(NerveB1(cyclic(2)), WindowSpec(1, 2))
    return table_to_json(tbl)


_TABLE = _valid_table()
_DELETE = object()
_json_junk = st.recursive(
    st.one_of(
        st.none(), st.booleans(), st.integers(-3, 5), st.text("ab[]{}", max_size=3)
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(
            st.sampled_from(["levels", "actions", "shape", "elements", "class",
                             "map", "src", "dst", "components", "dom", "cod",
                             "values"]),
            inner,
            max_size=3,
        ),
    ),
    max_leaves=8,
)
# paths into the table document whose value a case replaces or deletes
_level = st.integers(0, len(_TABLE["levels"]) - 1).map(lambda i: ("levels", i))
_action = st.integers(0, len(_TABLE["actions"]) - 1).map(lambda i: ("actions", i))
_paths = st.one_of(
    st.sampled_from([(), ("levels",), ("actions",)]),
    st.builds(lambda p, k: p + k, _level,
              st.sampled_from([(), ("shape",), ("elements",), ("elements", 0)])),
    st.builds(lambda p, k: p + k, _action,
              st.sampled_from([(), ("map",), ("map", 0), ("class",),
                               ("class", "src"), ("class", "dst"),
                               ("class", "components"),
                               ("class", "components", 0),
                               ("class", "components", 0, "dom"),
                               ("class", "components", 0, "cod"),
                               ("class", "components", 0, "values"),
                               ("class", "components", 0, "values", 0)])),
)


def _table_text(path, value) -> str:
    """The valid table with the value at `path` replaced (or deleted)."""
    doc = copy.deepcopy(_TABLE)
    if not path:
        return json.dumps(None if value is _DELETE else value)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is _DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return json.dumps(doc)


_table_texts = st.one_of(
    st.builds(_table_text, _paths, st.one_of(st.just(_DELETE), _json_junk)),
    # an action entry kept in range, so that the table covers the window
    # and may fail functoriality instead
    st.builds(_table_text, _action.map(lambda p: p + ("map", 0)), st.integers(0, 1)),
    # cut short, so that the file is not JSON
    st.integers(0, 400).map(lambda n: json.dumps(_TABLE)[:n]),
)
_budget_argvs = st.builds(
    lambda argv, budget: [*argv, "--budget", str(budget)],
    st.sampled_from([
        ["check", "--mode", "cat", "--nerve", "B1:Z2",
         "--max-dim", "1", "--max-entry", "2"],
        ["probe", "t[2]"],
        ["h2", "--group", "Z2", "--coeff", "Z2"],
    ]),
    st.sampled_from([-1, 0, 1, 10**9]),
)
# (argv, where --out points): a file in a missing directory, or a directory
_out_cases = st.tuples(_budget_argvs, st.sampled_from(["missing/report.json", "."]))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.one_of(_table_texts, _budget_argvs, _out_cases))
def test_cli_inputs_and_budgets_never_traceback(case):
    # malformed --input tables (junk levels and actions, wrong types, bad
    # class JSON, cut-short files), edge budgets and --out paths that
    # cannot be written end in an exit code; any other exception escaping
    # main fails the test
    if isinstance(case, list):
        assert main(case) in (0, 1, 2, 3)
        return
    if isinstance(case, tuple):
        argv, out = case
        with tempfile.TemporaryDirectory() as tmp:
            # a usage error, or a report that cannot be written: exit 1
            assert main([*argv, "--out", str(Path(tmp) / out)]) == 1
        return
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.json"
        path.write_text(case)
        argv = ["check", "--mode", "cat", "--max-dim", "1", "--max-entry", "2",
                "--input", str(path)]
        assert main(argv) in (0, 1, 2, 3)


def test_bench_tracer_targets_resolve():
    # bench/tracer.py rebinds thetacat functions by name; a rename in src/
    # must fail here rather than in a `--trace 1` benchmark run
    path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for mod_name, fn_name, _, _ in tracer.FUNCTIONS:
        module = importlib.import_module(f"thetacat.{mod_name}")
        assert callable(getattr(module, fn_name, None)), (mod_name, fn_name)
    theta = importlib.import_module("thetacat.theta")
    for fn_name in tracer.CACHED:
        assert hasattr(getattr(theta, fn_name), "cache_info"), fn_name


def test_bench_tracer_runs_a_check(tmp_path):
    # a traced benchmark job end to end: the wrapped action memo and the
    # wrapped solver must both be reached, and the exit code passed on
    root = Path(__file__).resolve().parents[1]
    trace = tmp_path / "trace.json"
    argv = ["check", "--mode", "strict-cat", "--nerve", "B1:Z2", "--max-dim", "2"]
    proc = subprocess.run(
        [sys.executable, str(root / "bench" / "tracer.py"), str(trace), *argv],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": str(root / "src")},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    totals = json.loads(trace.read_text())["totals"]
    assert "presheaves.action" in totals and "csp.solve_all" in totals


def test_bench_tracer_runs_an_h2(tmp_path):
    # the h2 layers end to end: the maps are enumerated once, each cylinder
    # end gets one reader, and the cocycles are counted once
    root = Path(__file__).resolve().parents[1]
    trace = tmp_path / "trace.json"
    argv = ["h2", "--group", "Z2", "--coeff", "Z2"]
    proc = subprocess.run(
        [sys.executable, str(root / "bench" / "tracer.py"), str(trace), *argv],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": str(root / "src")},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    totals = json.loads(trace.read_text())["totals"]
    calls = {name: totals[name][0] for name in totals}
    assert calls["presheaves.nat_presheaves"] == 1
    assert calls["nerves.vertex_inclusion_values"] == 2
    assert calls["groups.cocycle_tools"] == 1
