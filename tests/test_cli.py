import json
import os
import pathlib
import subprocess
import sys

import jsonschema
import pytest

from conftest import EXAMPLES
from lh import cli
from lh.cli import main

SCHEMA = json.loads(
    (pathlib.Path(__file__).resolve().parent.parent / "docs" / "schema.json").read_text()
)


def validate(payload):
    jsonschema.validate(payload, SCHEMA)


TRIPLE = str(EXAMPLES / "triple.lh")
FACT = str(EXAMPLES / "fact.lh")


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_check(capsys):
    code, out = run_cli(capsys, "check", TRIPLE)
    assert code == 0
    assert out.strip() == "{x:Int | x <> 0}"


def test_check_json(capsys):
    code, out = run_cli(capsys, "check", TRIPLE, "--json")
    payload = json.loads(out)
    validate(payload)
    assert code == 0 and payload["ok"]


def test_check_typechecks_once(capsys, monkeypatch):
    calls = []
    real = cli.check_source

    def counting(term):
        calls.append(term)
        return real(term)

    monkeypatch.setattr(cli, "check_source", counting)
    code, out = run_cli(capsys, "check", TRIPLE)
    assert code == 0 and out.strip() == "{x:Int | x <> 0}"
    assert len(calls) == 1


def test_check_rejects_ill_typed(tmp_path, capsys):
    bad = tmp_path / "bad.lh"
    bad.write_text("1 2")
    code, _ = run_cli(capsys, "check", str(bad))
    assert code == 2


def test_run_exit_codes(capsys):
    expectations = {"classic": (1, "blame l1"), "forgetful": (0, "-1"), "heedful": (1, "blame l3"), "eidetic": (1, "blame l1")}
    for mode, (code, text) in expectations.items():
        got, out = run_cli(capsys, "run", TRIPLE, "--mode", mode)
        assert (got, out.strip()) == (code, text), mode


def test_run_stuck_exit_code(tmp_path, capsys):
    f = tmp_path / "stuck.lh"
    # the NZ contract blames before div can get stuck on zero
    f.write_text("4 div (<{x:Int|true} => {y:Int|y <> 0} @ l2> 0)")
    code, _ = run_cli(capsys, "run", str(f), "--mode", "classic")
    assert code == 1
    g = tmp_path / "loop.lh"
    g.write_text("let rec f : {x:Int|true} -> {x:Int|true} = \\x:{x:Int|true}. f x; f 1")
    code, out = run_cli(capsys, "run", str(g), "--budget", "20")
    assert code == 4


@pytest.mark.parametrize("space", [False, True])
def test_classic_runs_the_proxy_loop_without_recursing(capsys, space):
    # a chain of 2000 proxies around f at the last call: its value judgment
    # must not recurse once per proxy
    code, out = run_cli(capsys, "run", str(EXAMPLES / "proxy_loop.lh"), "--mode", "classic", *["--space"] * space)
    assert code == 0 and out.splitlines()[-1] == "6"
    if space:
        assert out.splitlines()[0] == "max pending=4004 chain=2002 max_reflist=0 proxy_wrap=2002 live_types=6"


# a loop that returns its function argument, which classic wraps in two
# more proxies per iteration: a value nested too deeply for print_term
DEEP_VALUE_LOOP = r"""
let rec loop : {x:Int|true} -> ({x:Int|true} -> {x:Int|true}) -> ({x:Int|true} -> {x:Int|true}) =
  \n:{x:Int|true}. \f:{x:Int|true} -> {x:Int|true}.
    if n = 0 then f
    else loop (n - 1)
      (<{x:Int|x >= 0} -> {x:Int|x >= 0} => {x:Int|true} -> {x:Int|true} @ lw>
        (<{x:Int|true} -> {x:Int|true} => {x:Int|x >= 0} -> {x:Int|x >= 0} @ lf> f));
loop 1000 (\y:{x:Int|true}. y + 1)
"""


def test_a_run_too_deep_to_print_has_its_own_exit_code(tmp_path, capsys):
    f = tmp_path / "deep.lh"
    f.write_text(DEEP_VALUE_LOOP)
    code, out = run_cli(capsys, "run", str(f), "--mode", "classic", "--json")
    payload = json.loads(out)
    validate(payload)
    assert code == cli.EXIT_TOO_DEEP == 5 and payload["error"].startswith("term nested too deeply")
    assert main(["run", str(f), "--mode", "classic"]) == 5
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: term nested too deeply (")
    # eidetic merges the proxies, so the value prints
    code, out = run_cli(capsys, "run", str(f), "--mode", "eidetic")
    assert code == 0 and out.startswith("<")


def test_run_json_with_trace_and_space(capsys):
    code, out = run_cli(capsys, "run", TRIPLE, "--mode", "eidetic", "--json", "--trace", "--space")
    payload = json.loads(out)
    validate(payload)
    assert payload["mode"] == "eidetic"
    assert payload["result"]["kind"] == "blame"
    assert payload["trace"][0]["rule"] == "E-Coerce"
    assert payload["space"]["max"]["chain"] == 3


def test_run_space_text_keeps_no_series(capsys, monkeypatch):
    meters = []
    real = cli.Meter

    def recording(**kwargs):
        meters.append(real(**kwargs))
        return meters[-1]

    monkeypatch.setattr(cli, "Meter", recording)
    for mode in ("classic", "forgetful", "heedful", "eidetic"):
        _, text = run_cli(capsys, "run", FACT, "--mode", mode, "--space")
        _, js = run_cli(capsys, "run", FACT, "--mode", mode, "--space", "--json")
        text_meter, json_meter = meters[-2:]
        assert text_meter.series is None and json_meter.series, mode
        peak = json.loads(js)["space"]["max"]
        assert "max " + " ".join(f"{k}={v}" for k, v in peak.items()) in text.splitlines(), mode


def test_diff_command(capsys):
    code, out = run_cli(capsys, "diff", TRIPLE)
    payload = json.loads(out)
    validate(payload)
    assert code == 0
    assert payload["eidetic_ok"]["status"] == "pass"


def test_fuzz_command(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    code, out = run_cli(capsys, "fuzz", "--count", "15", "--seed", "3", "--out", str(report_path))
    assert code == 0
    payload = json.loads(report_path.read_text())
    validate(payload)
    assert payload["count"] == 15 and payload["ok"]


def test_unusable_budget_or_count_is_an_input_error(capsys):
    for argv in (
        ["run", TRIPLE, "--budget", "-1"],
        ["diff", TRIPLE, "--budget", "x"],
        ["fuzz", "--budget", "-5"],
        ["fuzz", "--count", "-1"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
    assert "non-negative" in capsys.readouterr().err


@pytest.mark.parametrize("sizes", [("0", "0"), ("9", "3")])
def test_fuzz_rejects_unusable_sizes(capsys, sizes):
    min_size, size = sizes
    code = main(["fuzz", "--count", "1", "--min-size", min_size, "--size", size])
    assert code == 2
    assert "--min-size" in capsys.readouterr().err


def test_run_matches_library_eval(capsys):
    from lh import eval_term, parse
    from lh.syntax import Mode

    code, out = run_cli(capsys, "run", FACT, "--mode", "eidetic")
    lib = eval_term(Mode.EIDETIC, parse(open(FACT).read()), 100_000)
    assert out.strip() == str(lib.term.value)
    assert code == 0


def test_axiom_oracle_flag(tmp_path, capsys):
    axioms = tmp_path / "axioms.json"
    axioms.write_text(json.dumps([["{x:Int|x > 0}", "{x:Int|x >= 0}"]]))
    prog = tmp_path / "p.lh"
    prog.write_text(
        "<{x:Int|x >= 0} => {x:Int|true} @ l2> (<{x:Int|x > 0} => {x:Int|x >= 0} @ l1> "
        "(<{x:Int|true} => {x:Int|x > 0} @ l0> 5))"
    )
    code, out = run_cli(capsys, "run", str(prog), "--mode", "eidetic", "--axioms", str(axioms))
    assert code == 0 and out.strip() == "5"
    # an unsound axiom lets the merge drop the failing check: the file is in use
    axioms.write_text(json.dumps([["{x:Int|x >= 0}", "{x:Int|x > 0}"]]))
    prog.write_text("<{x:Int|x >= 0} => {x:Int|x > 0} @ l1> (<{x:Int|true} => {x:Int|x >= 0} @ l0> 0)")
    assert run_cli(capsys, "run", str(prog), "--mode", "eidetic") == (1, "blame l1\n")
    assert run_cli(capsys, "run", str(prog), "--mode", "eidetic", "--axioms", str(axioms)) == (0, "0\n")


def test_missing_program_file_is_an_input_error(tmp_path, capsys):
    missing = str(tmp_path / "nonexist.lh")
    assert main(["run", missing]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert main(["run", missing, "--json"]) == 2
    payload = json.loads(capsys.readouterr().out)
    validate(payload)
    assert "nonexist.lh" in payload["error"]


@pytest.mark.parametrize(
    "text",
    [" + ".join(["1"] * 3_000), "(" * 600 + "1" + ")" * 600],
    ids=["long-sum", "deep-parens"],
)
def test_too_deeply_nested_program_is_an_input_error(tmp_path, capsys, text):
    # the parser and the typechecker recurse, and these nest deeper than
    # the default recursion limit lets them reach
    prog = tmp_path / "deep.lh"
    prog.write_text(text)
    for command in ("check", "run"):
        assert main([command, str(prog)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert main([command, str(prog), "--json"]) == 2
        payload = json.loads(capsys.readouterr().out)
        validate(payload)
        assert "nested too deeply" in payload["error"]


@pytest.mark.parametrize(
    "text",
    [
        "[[",
        json.dumps({"lhs": "{x:Int|true}"}),
        json.dumps([["{x:Int|x >", "{x:Int|true}"]]),
        json.dumps([["{x:Int|true} -> {x:Int|true}", "{x:Int|true}"]]),
        json.dumps([["{x:Int|" + "(" * 600 + "x" + ")" * 600 + " >= 0}", "{x:Int|true}"]]),
    ],
    ids=["bad-json", "not-pairs", "bad-type", "fn-type", "deep-type"],
)
def test_bad_axioms_file_is_an_input_error(tmp_path, capsys, text):
    axioms = tmp_path / "axioms.json"
    axioms.write_text(text)
    # --axioms alone selects the axiom oracle, so a bad file is never ignored
    argv = ["run", TRIPLE, "--axioms", str(axioms)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(axioms) in err
    assert main(argv + ["--json"]) == 2
    validate(json.loads(capsys.readouterr().out))


def test_unknown_mode_is_an_input_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", TRIPLE, "--mode", "bogus"])
    assert exc.value.code == 2
    assert "unknown mode: 'bogus'" in capsys.readouterr().err


def test_unwritable_fuzz_report_fails_before_fuzzing(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "run_fuzz", lambda **kw: pytest.fail("fuzzed before opening --out"))
    assert main(["fuzz", "--count", "1", "--out", str(tmp_path / "missing" / "r.json")]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "argv",
    [["run", TRIPLE, "--mode", "eidetic", "--trace", "--json"], ["diff", TRIPLE]],
)
def test_closed_stdout_exits_quietly(argv):
    # the reader is gone before the first write, as after `| head -c 100`
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "lh.cli", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert "Traceback" not in proc.stderr.decode(), proc.stderr.decode()
    assert proc.returncode == 1
