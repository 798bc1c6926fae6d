import hashlib
import json
import os
import subprocess
import sys

import pytest

import sigvol
from sigvol.cli import _parser, build_parser, run


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out.strip()
    return code, json.loads(out) if out else None


def test_stabilizer_output(capsys):
    code, data = run_json(capsys, ["stabilizer", "--d", "3", "--n", "4"])
    assert code == 0
    assert data["structure_tag"] == "A_n"
    assert data["order"] == 12
    assert len(data["elements"]) == 12


def test_volume_prints_both_values(capsys):
    code = run(["--format", "text", "volume", "--moment-curve", "0,1,2,3,4", "--d", "2"])
    out = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    assert out == ["10", "10"]


def test_shuffle_command(capsys):
    code, data = run_json(capsys, ["shuffle", "12", "3"])
    assert code == 0
    assert data["element"] == "123 + 132 + 312"


def test_antipode_command(capsys):
    code, data = run_json(capsys, ["antipode", "123"])
    assert code == 0
    assert data["element"] == "-321"


def test_vol_with_letters(capsys):
    code, data = run_json(capsys, ["vol", "--d", "4", "--letters", "124"])
    assert code == 0
    assert data["element"] == "124 - 142 - 214 + 241 + 412 - 421"


def test_lyndon_command(capsys):
    code, data = run_json(capsys, ["lyndon", "--d", "2", "--k", "6"])
    assert code == 0
    assert data["count"] == 9


def test_signature_and_pair(capsys):
    code, data = run_json(capsys, ["signature", "--path", "0,0;1,0;1,1", "--maxdeg", "2"])
    assert code == 0
    assert data["coefficients"]["12"] == "1"
    code, data = run_json(
        capsys, ["pair", "--path", "0,0;1,1;2,4;3,9;4,16", "--element", "1/2*12 - 1/2*21"]
    )
    assert code == 0
    assert data["values"]["element"] == "10"


def test_hmap_matches_base_case(capsys):
    code, data = run_json(capsys, ["hmap", "123", "--n", "3", "--d", "3"])
    assert code == 0
    assert data["polynomial"].startswith("1/6*a[1][1]*a[1][2]*a[1][3]")


def test_inv_space_schema(capsys):
    code, data = run_json(capsys, ["inv-space", "--d", "3", "--n", "4", "--k", "3"])
    assert code == 0
    assert data["dim_raw"] == 1 and data["dim_image"] == 1
    assert data["group"] == "A_n"


def test_gale_command(capsys):
    code, data = run_json(capsys, ["gale", "--d", "2", "--n", "5"])
    assert code == 0
    assert data["facets"] == [[1, 2], [1, 5], [2, 3], [3, 4], [4, 5]]


def test_check_element_bundled_fixture(capsys):
    code, data = run_json(
        capsys,
        ["check-element", "--fixture", "invariants_d3_n4.txt", "--n", "4",
         "--check", "invariant,timerev"],
    )
    assert code == 0
    assert data["pass"] is True
    assert data["checks"]["w1"]["invariant"] is True


def test_check_element_failure_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("name: not_invariant\n1\n")
    code, data = run_json(
        capsys,
        ["check-element", "--fixture", str(bad), "--d", "2", "--n", "5", "--check", "invariant"],
    )
    assert code == 1
    assert data["pass"] is False


def test_unreadable_fixture_is_a_usage_error(tmp_path, capsys):
    not_utf8 = tmp_path / "not_utf8.txt"
    not_utf8.write_bytes(b"name: x\n\xff1\n")
    for argv in (
        ["check-element", "--fixture", str(tmp_path), "--n", "4"],  # a directory
        ["pair", "--path", "0,0;1,1", "--fixture", str(not_utf8)],
    ):
        assert run(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("sigvol: error: cannot read fixture ")
        assert captured.err.count("\n") == 1


def test_conjecture_command(capsys):
    code, data = run_json(capsys, ["conjecture", "--d", "2", "--k", "2"])
    assert code == 0
    assert data["verdict"] == "consistent"


@pytest.mark.parametrize(
    "group, tag",
    [("auto", "A_n"), ("trivial", "trivial"), ("cyclic", "Z/n"), ("dihedral", "D_n"), ("full", "S_n")],
)
def test_inv_space_group_tag(capsys, group, tag):
    code, data = run_json(capsys, ["inv-space", "--d", "3", "--n", "4", "--k", "2", "--group", group])
    assert code == 0
    assert data["group"] == tag


def test_output_byte_stable(capsys):
    run(["inv-space", "--d", "2", "--n", "4", "--k", "2"])
    first = capsys.readouterr().out
    run(["inv-space", "--d", "2", "--n", "4", "--k", "2"])
    second = capsys.readouterr().out
    assert first == second


@pytest.mark.parametrize(
    "argv",
    [
        ["--threads", "0", "lyndon", "--d", "2", "--k", "3"],
        ["--threads", "4", "kernel-space", "--d", "2", "--n", "3", "--k", "3"],
        ["stabilizer", "--d", "3", "--n", "4", "--method", "auto"],
    ],
    ids=["threads-0", "threads-4", "method-auto"],
)
def test_deleted_options_are_rejected(argv):
    with pytest.raises(SystemExit) as info:
        run(argv)
    assert info.value.code == 2


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as info:
        run(["stabilizer", "--d", "3"])  # missing --n
    assert info.value.code == 2


def test_timerev_space_command(capsys):
    code, data = run_json(capsys, ["timerev-space", "--d", "2", "--k", "2"])
    assert code == 0
    assert data["dim_raw"] == 3
    assert data["basis"] == ["11", "12 + 21", "22"]


def test_loopclosure_space_command(capsys):
    code, data = run_json(capsys, ["loopclosure-space", "--d", "2", "--k", "2"])
    assert code == 0
    assert data["basis"] == ["12 - 21"]


@pytest.mark.parametrize(
    "argv",
    [
        ["signature", "--path", "0,0;1", "--maxdeg", "2"],  # ragged path
        ["hmap", "1x2", "--n", "3"],  # unparseable element
        ["inv-space", "--d", "3", "--n", "2", "--k", "2"],  # n < d+1
        ["kernel-space", "--d", "0", "--n", "3", "--k", "2"],  # d = 0
        ["hmap", "12", "--n", "0"],  # n = 0
        ["volume", "--moment-curve", "3,2,1,0", "--d", "2"],  # decreasing parameters
        ["pair", "--path", "0,0;1,1", "--element", "1", "--d", "3"],  # alphabet != dimension
        ["hmap", "1" * 256, "--n", "2"],  # above the packed monomial field
        ["kernel-space", "--d", "1", "--n", "2", "--k", "256"],
        ["loopclosure-space", "--d", "1", "--k", "256"],
        ["inv-space", "--d", "1", "--n", "2", "--k", "256"],
        ["signature", "--path", "1/0,1", "--maxdeg", "1"],  # zero denominator
        ["volume", "--moment-curve", "0,1/0", "--d", "1"],
        ["antipode", "1/0*12"],
        ["hmap", "1/0*1", "--n", "2"],
        ["check-element", "--fixture", "no_such_fixture.txt", "--n", "4"],
        ["check-element", "--fixture", "invariants_d3_n4.txt", "--n", "3"],
        ["reproduce-paper", "--only", "99"],
        ["--format", "text", "reproduce-paper", "--only", "99"],
        # the text notation writes each letter as one digit, so printed words need d <= 9
        ["vol", "--d", "10"],
        ["shuffle", "1", "2", "--d", "10"],
        ["concat", "1", "2", "--d", "10"],
        ["antipode", "1", "--d", "10"],
        ["lyndon", "--d", "11", "--k", "2"],
        ["signature", "--path", "0,0,0,0,0,0,0,0,0,0,0;1,2,3,4,5,6,7,8,9,10,11", "--maxdeg", "2"],
        ["kernel-space", "--d", "10", "--n", "2", "--k", "2"],
        ["timerev-space", "--d", "10", "--k", "2"],
        ["volume", "--moment-curve", "0,1", "--d", "2"],  # fewer than d+1 points
        ["check-element", "--fixture", "invariants_d3_n4.txt", "--check", ","],  # names no check
    ],
)
def test_bad_input_is_a_usage_error(capsys, argv):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("sigvol: error: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "checks,n,message",
    [
        ("bogus", "4", "unknown check 'bogus'"),
        (",", "4", "--check names no check: ','"),
        ("invariant", None, "check 'invariant' needs --n"),
        ("timerev,kernel", None, "check 'kernel' needs --n"),
        ("kernel,bogus", "6", "unknown check 'bogus'"),
    ],
)
def test_check_list_is_checked_before_the_fixture(capsys, tmp_path, checks, n, message):
    # a fixture with no element still rejects a bad --check list
    fixture = tmp_path / "empty.txt"
    fixture.write_text("# no element\n", encoding="utf-8")
    argv = ["check-element", "--fixture", str(fixture), "--check", checks] + (["--n", n] if n else [])
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"sigvol: error: {message}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["timerev-space", "--d", "10", "--k", "1"],  # an empty basis prints no word
        ["inv-d", "--d", "10", "--k", "2"],
        ["inv-space", "--d", "10", "--n", "11", "--k", "2"],
        ["hmap", "1", "--n", "2", "--d", "10"],
        ["pair", "--path", "0,0,0,0,0,0,0,0,0,0;1,2,3,4,5,6,7,8,9,10", "--element", "1", "--d", "10"],
        ["stabilizer", "--d", "10", "--n", "13"],
        ["gale", "--d", "10", "--n", "12"],
    ],
)
def test_verbs_that_print_no_word_run_above_nine_letters(capsys, argv):
    assert run(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert json.loads(captured.out)


@pytest.mark.parametrize(
    "spaced,joined",
    [
        (["signature", "--path", "-3,4;1,1", "--maxdeg", "2"],
         ["signature", "--path=-3,4;1,1", "--maxdeg", "2"]),
        (["volume", "--moment-curve", "-3,1,2,5", "--d", "2"],
         ["volume", "--moment-curve=-3,1,2,5", "--d", "2"]),
        (["pair", "--path", "-1,0;1,1;2,3", "--element", "-1*12 + 21"],
         ["pair", "--path=-1,0;1,1;2,3", "--element=-1*12 + 21"]),
    ],
)
def test_option_value_may_begin_with_a_minus(capsys, spaced, joined):
    assert run(joined) == 0
    expected = capsys.readouterr()
    assert run(spaced) == 0
    assert capsys.readouterr() == expected
    assert expected.out


def test_option_followed_by_an_option_still_lacks_its_value(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["pair", "--path", "--element", "12"])
    assert exc.value.code == 2
    assert "--path: expected one argument" in capsys.readouterr().err


def test_every_option_but_help_takes_one_value():
    # the rewrite of `--opt -value` in cli.run relies on this
    parser = build_parser()
    parsers = [parser] + [
        sub for action in parser._actions if action.choices and isinstance(action.choices, dict)
        for sub in action.choices.values()
    ]
    for p in parsers:
        for action in p._actions:
            if action.option_strings and "--help" not in action.option_strings:
                assert action.nargs is None and action.const is None, action.option_strings


def test_cached_parser_keeps_no_state_between_parses(capsys):
    parser = _parser()
    assert _parser() is parser
    # `action="append"` must start from its default again on the next parse
    assert parser.parse_args(["reproduce-paper", "--only", "3"]).only == [3]
    assert parser.parse_args(["reproduce-paper"]).only is None
    # a usage error and a success in one process leave the next parse unaffected
    with pytest.raises(SystemExit) as exc:
        run(["signature", "--path", "0,0;1,1"])
    assert exc.value.code == 2
    assert run(["--format", "text", "signature", "--path", "0,0;1,1", "--maxdeg", "1"]) == 0
    capsys.readouterr()
    for argv in (["signature", "--path", "1,2", "--maxdeg", "0"], ["reproduce-paper"]):
        assert vars(parser.parse_args(argv)) == vars(build_parser().parse_args(argv))
    assert parser.parse_args(["reproduce-paper"]).format == "json"


def test_reproduce_paper_stdout_has_no_timing(capsys):
    code, data = run_json(capsys, ["reproduce-paper", "--only", "3"])
    assert code == 0
    assert [sorted(r) for r in data] == [["criterion", "description", "detail", "pass"]]
    assert run(["--format", "text", "reproduce-paper", "--only", "3"]) == 0
    assert capsys.readouterr().out == f"PASS   3  {data[0]['description']}\n"


def test_python_dash_m_entry_point():
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(sigvol.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "sigvol", "lyndon", "--d", "2", "--k", "3"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["words"] == ["112", "122"]


# sha256 of the JSON stdout of the letter-content chain that preceded the
# highest-weight chain; (3, 7) has 18 simultaneous invariants, (2, 7) none
INV_D_STDOUT_SHA256 = {
    (3, 7): "92d49b8647de10153fb71517a9edc78477d92a7c9cc59ffa17683aa6e395532f",
    (2, 7): "20adaf0ff94e9805e1f5cc383863ecab5aca0c3d0a0bac3de20dbb0e27a73e66",
}


@pytest.mark.parametrize("d, k", INV_D_STDOUT_SHA256)
def test_inv_d_stdout_is_pinned(capsys, d, k):
    assert run(["inv-d", "--d", str(d), "--k", str(k)]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == INV_D_STDOUT_SHA256[d, k]
