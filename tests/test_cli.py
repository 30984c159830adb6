"""CLI behavior: golden runs, gating, output modes, exit codes."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import precourant
from precourant.cli import main, resolve_manifest
from precourant.errors import ConstructionError, TaskError
from precourant.manifest import META_MINIMUM, parse_manifest
from precourant.runner import run_manifest
from precourant.tasks import TASKS, Task


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_fast_goldens_pass(capsys):
    for name in ("action_abelian", "double_nonabelian"):
        code, out, _ = run_cli(capsys, "--manifest", name, "--quiet")
        assert code == 0, out
        assert out.startswith("precourant-report\n")
        assert f"manifest = {name}" in out
        assert out.rstrip().endswith("result = pass")


def test_task_override_and_json(capsys):
    code, out, _ = run_cli(
        capsys,
        "--manifest",
        "standard_r3",
        "--task",
        "validate-bundle",
        "--task",
        "verify-axioms",
        "--trials",
        "4",
        "--json",
        "--quiet",
    )
    assert code == 0
    doc = json.loads(out)
    assert [t["name"] for t in doc["tasks"]] == ["validate-bundle", "verify-axioms"]
    assert doc["result"] == "pass"
    assert doc["trials"] == 4


def test_unknown_manifest_exits_2(capsys):
    code, _, err = run_cli(capsys, "--manifest", "nope")
    assert code == 2
    assert "builtin names" in err


def test_parse_error_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.pcm"
    bad.write_text("[chart]\nvars = x1\n\n[builder]\nkind = standard\n\n[meta]\ntasks = wat\n")
    code, _, err = run_cli(capsys, "--manifest", str(bad))
    assert code == 2
    assert "line" in err and "column" in err


def test_run_without_tasks_exits_2(tmp_path, capsys):
    # a run that checks nothing must not report pass
    path = tmp_path / "no_tasks.pcm"
    path.write_text("[chart]\nvars = x y\n\n[builder]\nkind = standard\n")
    code, out, err = run_cli(capsys, "--manifest", str(path), "--quiet")
    assert (code, out) == (2, "")
    assert err == "error: no task to run: name tasks in [meta] or with --task\n"
    with pytest.raises(TaskError):
        run_manifest(parse_manifest(path.read_text()))
    code, out, _ = run_cli(capsys, "--manifest", str(path), "--task", "validate-bundle", "--quiet")
    assert code == 0 and "task validate-bundle = pass" in out


def test_unknown_task_flag_exits_2(capsys):
    code, _, err = run_cli(capsys, "--manifest", "standard_r3", "--task", "wat")
    assert code == 2
    assert "unknown task" in err


def test_corrupted_table_gates_downstream(tmp_path, capsys):
    text = """
[meta]
tasks = validate-bundle, verify-axioms, jacobiator-theorem, leibniz2

[chart]
vars = x1

[bundle]
rank = 2
metric.1 = 0, 1
metric.2 = 1, 0
anchor.1 = 1
anchor.2 = 0

[bracket]
t.1.2 = 1, 0
"""
    # t[1][2] = frame 1 breaks axiom (ii): the symmetrization is not D<u1,u2>
    path = tmp_path / "broken.pcm"
    path.write_text(text)
    code, out, _ = run_cli(capsys, "--manifest", str(path), "--quiet")
    assert code == 1
    lines = out.splitlines()
    assert "task validate-bundle = pass" in lines
    assert "task verify-axioms = fail" in lines
    assert "task jacobiator-theorem = skipped-precondition" in lines
    assert "task leibniz2 = skipped-precondition" in lines
    assert lines[-1] == "result = fail"


def test_non_isotropic_anchor_fails_deform_and_the_two_algebras(tmp_path, capsys):
    # rho rho* = 1 on the identity metric: omega leaves the kernel, so
    # deform stops at its validity checks, and the kernel sampler that lie2
    # and leibniz2 draw from fails them with a library error
    path = tmp_path / "non_isotropic.pcm"
    path.write_text(
        "[meta]\ntasks = deform, lie2, leibniz2\n\n[chart]\nvars = x1 x2 x3\n\n"
        "[bundle]\nrank = 3\nmetric.1 = 1, 0, 0\nmetric.2 = 0, 1, 0\nmetric.3 = 0, 0, 1\n"
        "anchor.1 = 1, 0, 0\nanchor.2 = 0, 1, 0\nanchor.3 = 0, 0, 1\n\n[bracket]\n\n"
        "[deform]\nh = x1*dx(1,2,3)\n"
    )
    code, out, err = run_cli(capsys, "--manifest", str(path), "--quiet")
    sampler = (
        "  fail anchor-not-isotropic: rho rho* != 0, so a sampled kernel section leaves Ker(rho)"
    )
    assert out.splitlines() == [
        "precourant-report",
        f"version = {precourant.__version__}",
        "manifest = non_isotropic",
        "seed = 0",
        "trials = 16",
        "max-degree = 2",
        "task deform = fail",
        "  fail valid/kernel-valued: omega(u1, u2) leaves the kernel",
        "  fail valid/contraction-membership: i_Dx1 psi at frames (2, 3) = x1",
        "task lie2 = fail",
        sampler,
        "task leibniz2 = fail",
        sampler,
        "result = fail",
    ]
    assert code == 1
    assert "Traceback" not in err


def test_report_excludes_timing_but_stderr_has_it(capsys):
    code, out, err = run_cli(
        capsys, "--manifest", "action_abelian", "--task", "verify-axioms"
    )
    assert code == 0
    assert "timing" not in out
    assert "timing verify-axioms" in err


def test_seed_echoed_and_overridable(capsys):
    code, out, _ = run_cli(
        capsys, "--manifest", "action_abelian", "--task", "verify-axioms",
        "--seed", "99", "--quiet",
    )
    assert code == 0
    assert "seed = 99" in out


def test_determinism_fast_goldens():
    for name in ("action_abelian", "double_nonabelian"):
        m1 = parse_manifest(resolve_manifest(name).read_text(), name=name)
        m2 = parse_manifest(resolve_manifest(name).read_text(), name=name)
        assert run_manifest(m1).to_text() == run_manifest(m2).to_text()


def test_console_entrypoint_runs():
    # the child imports the same precourant as this process, installed or not
    src = str(Path(precourant.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "precourant.cli", "--manifest", "action_abelian",
         "--task", "validate-bundle", "--quiet"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert "result = pass" in proc.stdout


@pytest.mark.parametrize(
    "manifest, task, missing",
    [
        ("standard_r3", "pontryagin", "[lift]"),
        ("standard_r3", "quotient-jacobi", "[complement]"),
        ("action_abelian", "dissection-jacobiator", "dissection"),
        ("standard_r3", "validate-action", "twisted_action"),
        ("standard_r3", "validate-algebra", "twisted_action"),
    ],
)
def test_task_override_missing_block_exits_2(capsys, manifest, task, missing):
    code, out, err = run_cli(capsys, "--manifest", manifest, "--task", task, "--quiet")
    assert code == 2
    assert out == ""
    assert f"task {task!r} needs" in err and missing in err
    assert "Traceback" not in err


def test_empty_complement_block_exits_2(tmp_path, capsys):
    # with no row, quotient-jacobi would pair only zero sections and pass
    text = re.sub(r"^c\.\d = .*\n", "", resolve_manifest("twisted_r4").read_text(), flags=re.M)
    path = tmp_path / "empty_complement.pcm"
    path.write_text(text)
    header = text.splitlines().index("[complement]") + 1
    code, out, err = run_cli(capsys, "--manifest", str(path), "--task", "quotient-jacobi")
    assert code == 2
    assert out == ""
    assert f"line {header}, column 1: expected c.N rows in [complement]" in err
    assert "Traceback" not in err


def test_task_override_rejected_before_build():
    m = parse_manifest(resolve_manifest("standard_r3").read_text(), name="standard_r3")
    with pytest.raises(TaskError) as err:
        run_manifest(m, tasks=["validate-bundle", "pontryagin"])
    assert err.value.task == "pontryagin"
    assert "[lift]" in err.value.missing


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--trials", "0"),
        ("--trials", "-3"),
        ("--max-degree", "-1"),
        ("--seed", "-1"),
        ("--trials", "two"),
    ],
)
def test_override_below_grammar_minimum_exits_2(capsys, flag, value):
    code, out, err = run_cli(
        capsys, "--manifest", "action_abelian", "--task", "verify-axioms", flag, value
    )
    assert code == 2
    assert out == ""
    assert f"argument {flag}: expected an integer >=" in err


@pytest.mark.parametrize(
    "flag, value", [("--trials", "1_6"), ("--seed", "+3"), ("--seed", " 3"), ("--seed", "\u0663")]
)
def test_override_outside_the_literal_grammar_exits_2(capsys, flag, value):
    # `int()` would read these; the manifest's integer reader does not
    code, out, err = run_cli(
        capsys, "--manifest", "action_abelian", "--task", "verify-axioms", flag, value
    )
    assert (code, out) == (2, "")
    assert f"argument {flag}: expected an integer >= {META_MINIMUM[flag[2:]]}, got {value!r}" in err


def test_override_at_grammar_minimum_runs(capsys):
    code, out, _ = run_cli(
        capsys, "--manifest", "action_abelian", "--task", "verify-axioms",
        "--trials", "1", "--max-degree", "0", "--seed", "0", "--quiet",
    )
    assert code == 0
    assert "trials = 1\nmax-degree = 0\n" in out


@pytest.mark.parametrize(
    "kind, blocks",
    [
        ("twisted_action", "[algebra]\ndim = 1\n"),
        ("twisted_action", ""),
        ("dissection", ""),
        ("connection_beta", ""),
    ],
)
def test_builder_without_its_sections_exits_2(tmp_path, capsys, kind, blocks):
    path = tmp_path / "builder.pcm"
    path.write_text(f"[chart]\nvars = x1 x2\n\n[builder]\nkind = {kind}\n\n{blocks}")
    code, out, err = run_cli(capsys, "--manifest", str(path), "--quiet")
    assert code == 2
    assert out == ""
    assert f"line 5, column 8: expected a section [" in err
    assert "Traceback" not in err


CONNECTION_BUNDLE = (
    "[bundle]\nrank = 2\nmetric.1 = 0, 1\nmetric.2 = 1, 0\nanchor.1 = 1\nanchor.2 = 0\n\n"
)


@pytest.mark.parametrize(
    "text, position",
    [
        (CONNECTION_BUNDLE + "[builder]\nkind = connection_beta\ngamma.2.1 = 0, 0\n", "line 13, column 1"),
        (CONNECTION_BUNDLE + "[builder]\nkind = connection_beta\nbeta.1.3 = 0, 0\n", "line 13, column 1"),
        ("[builder]\nkind = twisted_action\n\n[algebra]\ndim = 1\ndouble = false\n\n"
         "[action]\nrho.1 = 1\n", "line 8, column 1"),
        ("[builder]\nkind = standard\n\n[algebra]\ndim = 1\npairing.1 = 1\n", "line 7, column 1"),
        # a zero denominator in a form or polynomial literal
        ("[builder]\nkind = twisted_exact\nh = 1/0*dx(1)\n", "line 6, column 7"),
        (CONNECTION_BUNDLE.replace("anchor.1 = 1", "anchor.1 = 1/0")
         + "[builder]\nkind = connection_beta\n", "line 8, column 14"),
    ],
)
def test_bad_builder_input_exits_2(tmp_path, capsys, text, position):
    path = tmp_path / "builder.pcm"
    path.write_text(f"[chart]\nvars = x1\n\n{text}")
    code, out, err = run_cli(capsys, "--manifest", str(path), "--quiet")
    assert code == 2
    assert out == ""
    assert f"{position}: expected " in err
    assert "Traceback" not in err


BUNDLE_2 = "[chart]\nvars = x\n\n[bundle]\nrank = 2\n{rows}\nanchor.1 = 1\nanchor.2 = 0\n\n[bracket]\n"
ALGEBRA_2 = (
    "[chart]\nvars = x1\n\n[builder]\nkind = twisted_action\n\n[algebra]\ndim = 2\n{rows}\n\n"
    "[action]\nrho.1 = 1\nrho.2 = 0\n"
)
DISSECTION_2D = "[chart]\nvars = x1 x2\n\n[builder]\nkind = dissection\n\n[dissection]\naux_rank = 1\n"


@pytest.mark.parametrize(
    "text, position",
    [
        (DISSECTION_2D + "pairing.1 = 1\nr.2.1 = 1\n", "line 10, column 1"),
        (DISSECTION_2D + "pairing.1 = 1\ngbracket.1.1 = 0\n", "line 10, column 1"),
        (DISSECTION_2D + "pairing.1 = 0\n", "line 9, column 1"),
        (DISSECTION_2D.replace("aux_rank = 1", "aux_rank = 2")
         + "pairing.1 = 1, 1\npairing.2 = 0, 1\n", "line 9, column 1"),
        ("[chart]\nvars = x1\n\n[builder]\nkind = twisted_action\n\n[algebra]\ndim = 1\n"
         "double = true\npairing.1 = 1\n\n[action]\nrho.1 = 1\nrho.2 = 0\n", "line 10, column 1"),
        # rows that are all missing are reported at the header of their section
        ("[chart]\nvars = x\n\n[bundle]\nrank = 1\n\n[bracket]\n", "line 4, column 1"),
        ("[chart]\nvars = x1\n\n[builder]\nkind = twisted_action\n\n[algebra]\ndim = 1\n"
         "pairing.1 = 1\n\n[action]\n", "line 11, column 1"),
        (DISSECTION_2D, "line 7, column 1"),
        # with no auxiliary block there is no pairing row to give
        (DISSECTION_2D.replace("aux_rank = 1", "aux_rank = 0") + "pairing.1 = 7, 8, 9\n",
         "line 9, column 1"),
        # a metric or an algebra pairing that is not symmetric, or is
        # singular, is reported at its first row given
        (BUNDLE_2.format(rows="metric.1 = 0, 1\nmetric.2 = 2, 0"), "line 6, column 1"),
        (BUNDLE_2.format(rows="metric.2 = 1, 1\nmetric.1 = 1, 1"), "line 6, column 1"),
        (ALGEBRA_2.format(rows="pairing.1 = 1, 1\npairing.2 = 0, 1"), "line 9, column 1"),
        (ALGEBRA_2.format(rows="pairing.2 = 0, 0\npairing.1 = 1, 0"), "line 9, column 1"),
    ],
)
def test_malformed_builder_blocks_exit_2(tmp_path, capsys, text, position):
    path = tmp_path / "builder.pcm"
    path.write_text(text)
    code, out, err = run_cli(capsys, "--manifest", str(path), "--quiet")
    assert code == 2
    assert out == ""
    assert f"{position}: expected " in err
    assert "Traceback" not in err


def _raises_inside(ctx):
    raise ConstructionError("broken-task", "raised inside the task")


def test_error_inside_gate_task_fails_it_and_closes_the_gate(monkeypatch, capsys):
    monkeypatch.setitem(TASKS, "verify-axioms", Task(_raises_inside, sets_gate=True))
    code, out, err = run_cli(
        capsys, "--manifest", "action_abelian", "--trials", "1", "--quiet",
        "--task", "validate-bundle", "--task", "verify-axioms",
        "--task", "verify-identities", "--task", "coisotropy",
    )
    assert code == 1
    assert "Traceback" not in err
    lines = out.splitlines()
    assert "task validate-bundle = pass" in lines
    i = lines.index("task verify-axioms = fail")
    assert lines[i + 1] == "  fail broken-task: raised inside the task"
    assert "task verify-identities = skipped-precondition" in lines
    assert "task coisotropy = pass" in lines


def test_error_inside_other_task_leaves_later_tasks_running(monkeypatch):
    monkeypatch.setitem(TASKS, "jacobiator-theorem", Task(_raises_inside))
    m = parse_manifest(resolve_manifest("action_abelian").read_text(), name="action_abelian")
    m.trials = 1
    report = run_manifest(m, tasks=["verify-axioms", "jacobiator-theorem", "verify-identities"])
    assert [(t.name, t.status) for t in report.tasks] == [
        ("verify-axioms", "pass"),
        ("jacobiator-theorem", "fail"),
        ("verify-identities", "pass"),
    ]
    assert report.tasks[1].failures == ["broken-task: raised inside the task"]
    assert not report.ok


def test_unreadable_manifest_exits_2(tmp_path, capsys):
    code, out, err = run_cli(capsys, "--manifest", str(tmp_path))
    assert (code, out) == (2, "")
    assert err == f"error: {tmp_path}: Is a directory\n"


def test_number_beyond_the_int_digit_limit_exits_2(tmp_path, capsys):
    text = resolve_manifest("twisted_r4").read_text()
    assert "\np.2 = 2, 1, -1, 3\n" in text
    path = tmp_path / "long.pcm"
    path.write_text(text.replace("\np.2 = 2, 1, -1, 3\n", "\np.2 = 2, 1, -1, " + "3" * 5000 + "\n"))
    code, out, err = run_cli(capsys, "--manifest", str(path), "--task", "coisotropy", "--quiet")
    assert (code, out) == (2, "")
    assert "line 20, column 17: expected at most " in err
    assert "Traceback" not in err


@pytest.mark.parametrize("where", ["manifest", "override"])
def test_long_integer_setting_is_quoted_briefly(tmp_path, capsys, where):
    # an integer setting of 5 000 digits is quoted by its first 20 digits
    digits = "3" * 5000
    path = tmp_path / "long.pcm"
    text = resolve_manifest("action_abelian").read_text()
    path.write_text(text.replace("seed = 0", f"seed = {digits}") if where == "manifest" else text)
    override = ["--seed", digits] if where == "override" else []
    code, out, err = run_cli(capsys, "--manifest", str(path), *override, "--quiet")
    assert (code, out) == (2, "")
    assert f"got '{digits[:20]}...'" in err if override else f"found '{digits[:20]}...'" in err
    assert len(err) < 300


def test_long_key_is_quoted_briefly(tmp_path, capsys):
    # a key is quoted by its first 20 characters, like a literal
    text = resolve_manifest("standard_r3").read_text()
    assert "\np.2 = 1, -1, 2\n" in text
    path = tmp_path / "long.pcm"
    key = "p." + "9" * 5000
    path.write_text(text.replace("\np.2 = 1, -1, 2\n", f"\n{key} = 1, -1, 2\n"))
    code, out, err = run_cli(capsys, "--manifest", str(path), "--quiet")
    assert (code, out) == (2, "")
    assert err.endswith(f"expected 1-based integer key indices, found '{key[:20]}...'\n")
    assert len(err.encode()) <= 200


@pytest.mark.parametrize("task", ["dissection-pontryagin", "dissection-pontryagim"])
def test_long_task_name_is_quoted_whole(tmp_path, capsys, task):
    # a 21-character task name, known but missing its block or misspelt in
    # its last letter, is quoted in full, so the typo shows
    text = resolve_manifest("standard_r3").read_text()
    assert "\ntasks = validate-bundle, " in text
    path = tmp_path / "task.pcm"
    path.write_text(text.replace("\ntasks = validate-bundle, ", f"\ntasks = {task}, "))
    code, out, err = run_cli(capsys, "--manifest", str(path), "--quiet")
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {path}: line 8, column 9: expected ")
    assert err.endswith(f", found '{task}'\n")


def test_unknown_task_in_the_manifest_is_reported_briefly(tmp_path, capsys):
    # the task list would make a 300-byte line; --help lists the names
    text = resolve_manifest("standard_r3").read_text()
    assert "\ntasks = validate-bundle, " in text
    path = tmp_path / "task.pcm"
    path.write_text(text.replace("\ntasks = validate-bundle, ", "\ntasks = frobnicate, "))
    code, out, err = run_cli(capsys, "--manifest", str(path), "--quiet")
    assert (code, out) == (2, "")
    assert err == (
        f"error: {path}: line 8, column 9: expected a task that --help lists, found 'frobnicate'\n"
    )


def test_unknown_chart_key_exits_2(tmp_path, capsys):
    # [chart] holds vars alone: a misspelt key is an error, not ignored
    text = resolve_manifest("standard_r3").read_text()
    assert "\nvars = x1 x2 x3\n" in text
    path = tmp_path / "chart.pcm"
    path.write_text(text.replace("\nvars = x1 x2 x3\n", "\nvars = x1 x2 x3\nvar = x9\n"))
    code, out, err = run_cli(capsys, "--manifest", str(path), "--quiet")
    assert (code, out) == (2, "")
    assert err == f"error: {path}: line 12, column 1: expected vars, found 'var'\n"


def test_repeated_bracket_pair_exits_2(tmp_path, capsys):
    # the transpose of a given bracket would overwrite it: here with zero,
    # which would build the abelian algebra
    text = resolve_manifest("double_nonabelian").read_text()
    given = "\nbracket.1.2 = 0, 1\n"
    assert given in text
    path = tmp_path / "repeated.pcm"
    path.write_text(text.replace(given, given + "bracket.2.1 = 0, 0\n"))
    code, out, err = run_cli(capsys, "--manifest", str(path), "--quiet")
    assert (code, out) == (2, "")
    assert err == (
        f"error: {path}: line 22, column 1: expected a single entry for bracket.2.1 or "
        "bracket.1.2, found 'bracket.2.1'\n"
    )


@pytest.mark.parametrize(
    "given, diagonal",
    [
        ("\nbracket.1.2 = 0, 1\n", "bracket.1.1 = 0, 1"),
        ("\nbracket.1.2 = 0, 1\n", "bracket.2.2 = 0, 0"),
        ("\nrho.4 = 0\n", "k.2.2 = 0, 0, 1, 0"),
    ],
    ids=["bracket", "bracket-zero-row", "k"],
)
def test_diagonal_key_in_a_skew_table_exits_2(tmp_path, capsys, given, diagonal):
    # the build fills in the transpose of each entry of a skew table, so a
    # diagonal entry, even an all-zero one, is an input error at its line
    text = resolve_manifest("double_nonabelian").read_text()
    assert given in text
    path = tmp_path / "diagonal.pcm"
    path.write_text(text.replace(given, given + diagonal + "\n"))
    line = path.read_text().splitlines().index(diagonal) + 1
    key = diagonal.split(" ")[0]
    code, out, err = run_cli(capsys, "--manifest", str(path), "--quiet")
    assert (code, out) == (2, "")
    assert err == (
        f"error: {path}: line {line}, column 1: expected {key.split('.')[0]}.I.J with I != J, "
        f"found '{key}'\n"
    )


def test_empty_chart_is_reported_at_its_header(tmp_path, capsys):
    # like an empty [bundle] or [builder]: the missing entry, at the header
    text = resolve_manifest("standard_r3").read_text()
    assert "\n[chart]\nvars = x1 x2 x3\n" in text
    path = tmp_path / "chart.pcm"
    path.write_text(text.replace("\nvars = x1 x2 x3\n", "\n"))
    header = path.read_text().splitlines().index("[chart]") + 1
    code, out, err = run_cli(capsys, "--manifest", str(path), "--quiet")
    assert (code, out) == (2, "")
    assert err == f"error: {path}: line {header}, column 1: expected a 'vars' entry in [chart]\n"
    # a manifest with no [chart] at all is reported at its top
    path.write_text(text.replace("\n[chart]\nvars = x1 x2 x3\n", "\n"))
    code, out, err = run_cli(capsys, "--manifest", str(path), "--quiet")
    assert (code, out) == (2, "")
    assert err == f"error: {path}: line 1, column 1: expected a [chart] section\n"


def test_non_utf8_manifest_exits_2(tmp_path, capsys):
    bad = tmp_path / "latin1.pcm"
    bad.write_bytes("[chart]\nvars = x1  # \xe9\n".encode("latin-1"))
    code, out, err = run_cli(capsys, "--manifest", str(bad))
    assert (code, out) == (2, "")
    assert err == f"error: {bad}: not UTF-8 text (invalid continuation byte at byte 21)\n"


@pytest.mark.parametrize(
    "body, line",
    [
        # the identity pairing is not invariant under [u1, u2] = u1 + u2
        ("vars = x1\n\n[builder]\nkind = dissection\n\n[dissection]\naux_rank = 2\n"
         "pairing.1 = 1, 0\npairing.2 = 0, 1\ngbracket.1.2 = 1, 1\n",
         "build = fail: fiber-pairing-not-invariant: basis (1,1,2)"),
        # gamma along x2 moves u1 by x1 u1, which the hyperbolic pairing does not keep
        ("vars = x1 x2\n\n[builder]\nkind = dissection\n\n[dissection]\naux_rank = 2\n"
         "pairing.1 = 0, 1\npairing.2 = 1, 0\ngamma.2.1 = x1, 0\n",
         "build = fail: connection-not-metric: direction 2, frames (3,4): x1"),
    ],
)
def test_dissection_build_failure_lines(tmp_path, capsys, body, line):
    path = tmp_path / "dissection.pcm"
    path.write_text(f"[meta]\ntasks = validate-bundle\n\n[chart]\n{body}")
    code, out, err = run_cli(capsys, "--manifest", str(path), "--quiet")
    assert code == 1
    lines = out.splitlines()
    assert line in lines
    assert lines[-2:] == ["task validate-bundle = skipped-precondition", "result = fail"]
    assert "Traceback" not in err
