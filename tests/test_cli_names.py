"""Unknown ``--workload`` / ``--platform`` names: one line, exit 2.

Every command that replays a workload resolves both names through
:mod:`repro.workloads.registry` before doing any work, and reports a bad
one as a single ``<prog>[ <cmd>]: <message>`` line on stderr.
"""

import importlib
from pathlib import Path

import pytest

EXAMPLE = str(Path(__file__).resolve().parents[1] / "examples"
              / "pathfinder_pingpong.cu")

CASES = [
    ("repro.telemetry.cli", "repro-trace", []),
    ("repro.heatmap.cli", "repro-report", []),
    ("repro.causes.cli", "repro-why run", ["run"]),
    ("repro.stream.cli", "repro-agg run", ["run"]),
    ("repro.signature.cli", "repro-sig compute", ["compute"]),
]


def _one_line_error(module, argv, capsys):
    rc = importlib.import_module(module).main(argv)
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.count("\n") == 1, captured.err
    return captured.err


@pytest.mark.parametrize("module,prog,command", CASES,
                         ids=[c[1] for c in CASES])
@pytest.mark.parametrize("flag,value,kind", [
    ("--platform", "vax", "platform"),
    ("--workload", "nope", "workload"),
])
def test_unknown_name_is_one_line_exit_2(module, prog, command, flag, value,
                                         kind, tmp_path, capsys):
    out = tmp_path / "out"
    argv = [*command, "--workload", "sw", "--out", str(out), flag, value]
    err = _one_line_error(module, argv, capsys)
    assert err.startswith(f"{prog}: unknown {kind} {value!r}; known: ")
    assert not out.exists()


def test_debugger_unknown_platform_is_one_line_exit_2(capsys):
    err = _one_line_error("repro.debug.cli",
                          [EXAMPLE, "--platform", "vax"], capsys)
    assert err.startswith("repro-debug: unknown platform 'vax'; known: ")


OUT_IS_A_FILE = [
    ("repro.heatmap.cli", "repro-report", ["--workload", "pathfinder",
                                           "--out"]),
    ("repro.causes.cli", "repro-why run", ["run", "--workload",
                                           "pathfinder", "--out"]),
    ("repro.stream.cli", "repro-agg run", ["run", "--workload",
                                           "pathfinder", "--out"]),
    ("repro.evalx.runner", "xplacer-eval", ["fig7", "--report",
                                            "--telemetry-dir"]),
    ("repro.debug.cli", "repro-debug", []),
]


@pytest.mark.parametrize("module,prog,argv", OUT_IS_A_FILE,
                         ids=[c[1] for c in OUT_IS_A_FILE])
def test_bad_path_or_source_is_one_line_exit_2(module, prog, argv,
                                               tmp_path, capsys):
    """An output path that is a regular file, or a source file the lexer
    rejects, is one located stderr line and exit 2, not a traceback."""
    bad = tmp_path / "bad.cu"
    bad.write_text("int main() { int x = 1; @ }\n")
    try:
        rc = importlib.import_module(module).main([*argv, str(bad)])
    except SystemExit as exc:
        rc = exc.code
    err = capsys.readouterr().err
    assert rc == 2
    assert err.count("\n") == 1, err
    assert err.startswith(f"{prog}: ")
    if argv:
        assert "File exists" in err and str(bad) in err
    else:
        assert err == f"{prog}: bad.cu: unexpected character '@' at 1:25\n"
