"""Command-line interface: flags, exit codes, output files, determinism."""

import json

import pytest

from kahler_tube.cli import main

FAST = ["--points", "2", "--directions", "5", "--seed", "7"]


def test_verify_pass_exit_zero_and_stdout_json(capsys) -> None:
    code = main(["verify", "--dim", "3", *FAST])
    assert code == 0
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert doc["verdict"] == "PASS"
    assert doc["config"]["dim"] == 3
    assert len(doc["checks"]) == 46


def test_verify_report_file(tmp_path, capsys) -> None:
    target = tmp_path / "report.json"
    code = main(["verify", "--dim", "3", *FAST, "--report", str(target)])
    assert code == 0
    captured = capsys.readouterr()
    assert captured.out == ""  # nothing on stdout when writing a file
    doc = json.loads(target.read_text())
    assert doc["verdict"] == "PASS"


def test_verify_failing_check_exit_one(capsys) -> None:
    code = main(
        ["verify", "--dim", "3", *FAST, "--tol", "einstein_identity=1e-30"]
    )
    assert code == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "FAIL"
    # the rest of the suite still ran
    assert all(c["status"] == "ran" for c in doc["checks"])


def test_verify_offset_profile_fails_nijenhuis(capsys) -> None:
    code = main(["verify", "--dim", "3", *FAST, "--custom-v-offset", "0.1"])
    assert code == 1
    doc = json.loads(capsys.readouterr().out)
    by_name = {c["name"]: c for c in doc["checks"]}
    assert by_name["nijenhuis_closed_form"]["pass"] is False
    skipped = [c for c in doc["checks"] if c["status"] == "skipped"]
    assert skipped and all(c["reason"] for c in skipped)


def test_collapsing_offset_exit_two(capsys) -> None:
    # v + offset drives A + 2v below zero at every sampled point, so the
    # lifted metric is not positive definite: a configuration error.
    code = main(["verify", "--dim", "3", *FAST, "--custom-v-offset", "-10"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "A + 2v > 0" in captured.err


def test_nonpositive_curvature_exit_two(capsys) -> None:
    code = main(["verify", "--dim", "3", "--curvature", "-1", *FAST])
    assert code == 2
    err = capsys.readouterr().err
    assert "2c - A^2 t > 0 unsatisfiable for t > 0" in err


def test_unknown_tolerance_name_exit_two(capsys) -> None:
    code = main(["verify", "--dim", "3", *FAST, "--tol", "bogus=1e-3"])
    assert code == 2
    assert "unknown check name" in capsys.readouterr().err


def test_invalid_seed_and_offset_exit_two(capsys) -> None:
    for bad in (["--seed", "-1"], ["--custom-v-offset", "nan"], ["--custom-v-offset", "inf"]):
        code = main(["verify", "--dim", "3", "--points", "1", "--directions", "2", *bad])
        assert code == 2, bad
        assert "error:" in capsys.readouterr().err


def test_malformed_tolerance_rejected() -> None:
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--dim", "3", "--tol", "missing-equals"])
    assert exc.value.code == 2


def test_bad_dimension_exit_two(capsys) -> None:
    code = main(["verify", "--dim", "1", *FAST])
    assert code == 2
    assert "dim" in capsys.readouterr().err


@pytest.mark.parametrize("command, flag", [("verify", "--report"), ("sweep", "--out")])
def test_unwritable_output_path_exit_two(tmp_path, capsys, command, flag) -> None:
    target = tmp_path / "missing" / "out.txt"
    code = main([command, "--dim", "3", "--points", "1", "--directions", "2", flag, str(target)])
    assert code == 2
    assert f"error: cannot write {target}:" in capsys.readouterr().err
    assert not target.exists()


def test_sweep_stdout_layout(capsys) -> None:
    code = main(["sweep", "--dim", "3", *FAST])
    assert code == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "point_id,t,direction_id,hol_sect_curv"
    assert len(lines) == 1 + 2 * 5 + 1
    assert lines[-1].startswith("#summary,")
    summary = lines[-1].split(",")
    assert len(summary) == 4
    assert float(summary[3]) > 1e-3


def test_sweep_out_note_counts_rows(tmp_path, capsys) -> None:
    target = tmp_path / "sweep.csv"
    assert main(["sweep", "--dim", "3", *FAST, "--out", str(target)]) == 0
    assert capsys.readouterr().err == f"wrote {target} (10 rows)\n"
    assert len(target.read_text().splitlines()) == 1 + 10 + 1


def test_sweep_rejects_offset_profile(capsys) -> None:
    code = main(["sweep", "--dim", "3", *FAST, "--custom-v-offset", "0.1"])
    assert code == 2
    assert "integrable" in capsys.readouterr().err


def test_rerun_byte_identical_outputs(tmp_path) -> None:
    r1, r2 = tmp_path / "a.json", tmp_path / "b.json"
    s1, s2 = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["--dim", "3", "--curvature", "2", "--lift-const", "0.5", *FAST]
    assert main(["verify", *args, "--report", str(r1)]) == 0
    assert main(["verify", *args, "--report", str(r2)]) == 0
    assert main(["sweep", *args, "--out", str(s1)]) == 0
    assert main(["sweep", *args, "--out", str(s2)]) == 0
    assert r1.read_bytes() == r2.read_bytes()
    assert s1.read_bytes() == s2.read_bytes()


def test_console_script_installed() -> None:
    import shutil

    assert shutil.which("kahler-tube") is not None
