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
        ["gale", "--d", "5", "--n", "5"],  # n < d+1
        ["lyndon", "--d", "2", "--k", "0"],
        ["stabilizer", "--d", "3", "--n", "10", "--method", "brute"],  # above the brute-force guard
        ["vol", "--d", "3", "--letters", "1a"],  # not a letter
        ["vol", "--d", "3", "--letters", "14"],  # letter outside 1..d
        ["pair", "--path", "0,0;1,1"],  # neither --element nor --fixture
        ["pair", "--path", "0,0,0;1,1,1", "--fixture", "invariants_d3_n4.txt", "--name", "no_such_name"],
        ["conjecture", "--d", "0", "--k", "2"],
        ["loopclosure-space", "--d", "2", "--k", "2", "--segments", "0"],
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


def run_process(argv):
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(sigvol.__file__)))
    return subprocess.run(
        [sys.executable, "-m", "sigvol", *argv], capture_output=True, text=True, env=env, timeout=60
    )


def test_python_dash_m_entry_point():
    proc = run_process(["lyndon", "--d", "2", "--k", "3"])
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["words"] == ["112", "122"]


def test_python_dash_m_bad_input_is_a_usage_error():
    proc = run_process(["gale", "--d", "5", "--n", "5"])
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "sigvol: error: need n >= d+1\n"


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


# sha256 of the stdout of one cheap command per verb, (JSON, text)
VERB_STDOUT_SHA256 = {
    ("shuffle", "12", "3"): (
        "1ba36baf3af7d7e63ec005065f0a82428c0a790cd27c9aafb7fee68e2698322d",
        "db9b0f520e31b046d98fa5aaeb2b0a91d9e7158b0d5dc2b62e29f48bf21c5f7e"),
    ("concat", "12", "3"): (
        "cc3e4f53b48939bb3abc0bd5d04ecec62ce66794352737407f14c8270723633b",
        "181210f8f9c779c26da1d9b2075bde0127302ee0e3fca38c9a83f5b1dd8e5d3b"),
    ("antipode", "123"): (
        "44270f092f0a383a1146c7c06469caf2ade1a13850bfa0d4f60232a140441810",
        "ce093b5b3a4b745f8792cf53ceb2d0321963a5f28bf605a7ebe91cb5668a5240"),
    ("vol", "--d", "3"): (
        "5b0a4696cb3efaed713b12a7f7ab778d8990acb0d94645836dc74ec62384c15f",
        "8895e886dc78cc5268d715e05223acd72e4c076bf9fdb39aa17419213f8dfb3e"),
    ("lyndon", "--d", "2", "--k", "4"): (
        "027492876747262fd0eebf36449c9ba769d9f67f6d8b9174caeff5a50ee8bfc7",
        "8ca3c0cdf2387e787ff0a9aa247afb8f925a7fffde58764fc9e2a120e33a79e0"),
    ("signature", "--path", "0,0;1,0;1,1", "--maxdeg", "2"): (
        "14b6db2652fe98232f4030f5728cf4d8364fce559f85c18b74ec07ad6a78709e",
        "d4761c0788cab9f363d76712c389b631d13784bc482ae20a109e56a3c7e9f7fe"),
    ("pair", "--path", "0,0;1,1;2,4;3,9;4,16", "--element", "1/2*12 - 1/2*21"): (
        "ba4c981aaad33755c7bc7579e40ff9ae6e880fcaa082161770335215cdf4707c",
        "7c2c2716bb93eff1ff21a822209156b1cfa95137db7d6b1677afb161b3c8792f"),
    ("hmap", "123", "--n", "3", "--d", "3"): (
        "b6b3d902e961ec17da5eace8387c0632a69065120b62871cab26b6317531afc0",
        "92796a3746a6618a48c7888bca53a6e13857c7bafcc71d1f6c83de5b6808e729"),
    ("stabilizer", "--d", "3", "--n", "4"): (
        "566b68545ff4c106702b9cf7bfe11a8058c6bf61cc03befbc4f26c95b1ad83c0",
        "6aa9b5cc0bd113d1087fb130d327ed8f160e0aea10ea7039f3bb044069bca702"),
    ("gale", "--d", "2", "--n", "5"): (
        "b49573df8c35c88a88a768530ca83eebfdc88abdac5a865d8e887bd2a2035c09",
        "7d1d268afbc32608bd97fa1231c8c4fa762ed2d8bbae4a8ceb9008e2f033f3c2"),
    ("volume", "--moment-curve", "0,1,2,3,4", "--d", "2"): (
        "123ee8aa78d9d94c5aeb3a69863edc86f5067f4f70a477a427c253b15dad71c9",
        "1286c4c74194e75cffa46c8e560ae72c829e1f554b2a1bed4549ba13b7ca59c8"),
    ("inv-space", "--d", "3", "--n", "4", "--k", "3"): (
        "ea1dcb73bd254da69bcdfbc482e63b87ff0bb1d01a27c5eede3b7fe8f7cdb3b0",
        "33005576223364a3ff9c2b62749a2665965396e032be71e6e85cf85fb1fb4b42"),
    ("kernel-space", "--d", "2", "--n", "3", "--k", "3"): (
        "a6ba03645173bb7548857a0dffaa6b6c47e1550975ca258f0db303f5e1150c49",
        "77c707310eebfdaeee0b55688f017632b3b6dbed10323cd81d7e1cab8877f78b"),
    ("timerev-space", "--d", "2", "--k", "2"): (
        "e55daacbdb9580cd72fa46acb93368f70ff7eee5a6550d889f8725707754b047",
        "6a5629b9e3c111c11eb13970a5dcc76ef3e432394221152fcaa4e27a465172dc"),
    ("loopclosure-space", "--d", "2", "--k", "2"): (
        "3f4fc66462628fd1a4e3a7c5a117cd0fb31738b179e5446b5bdaab5496decfaa",
        "c09a21e5ac5c2d3e1e766b83704d5da222ef1fe14a85a13f87d352b4d0974e8d"),
    ("inv-d", "--d", "3", "--k", "3"): (
        "93715054895f70fc6f93d0f42b5bed9586257f180de69d6088b1a71bfa61ef51",
        "c131c523bc43d5b94b5de7241b398cbe489055c0db391f5da2ff9d3a2bf98b3d"),
    ("check-element", "--fixture", "invariants_d3_n4.txt", "--n", "4", "--check", "invariant,timerev"): (
        "d7a09afb088be91dc439c3b711abb80305d308f8ee41560841f1de31a7242729",
        "56796b7f06cc7a504b88110ea1d5ccc449f238dfe869a7d5983b3724d1d66d1c"),
    ("conjecture", "--d", "2", "--k", "2"): (
        "658af2a6d69c3bffd671bd3219b3cc874026e8c76f19b17e7212df1527d5b40c",
        "b8e218898967af4b9ee969dc916387e07d12be1739fbef63405bb80e4b021a08"),
    ("reproduce-paper", "--only", "3"): (
        "49eea1a7506332f4dbde7f6aed89fd002274a0b2dbd1fe4a53140f7bb3e71046",
        "914a492d173feb20d9a315783381c77f79129af1e9c641bbd267123e88843648"),
}


def test_every_verb_has_a_stdout_pin():
    verbs = next(a for a in build_parser()._actions if isinstance(a.choices, dict)).choices
    assert {argv[0] for argv in VERB_STDOUT_SHA256} == set(verbs)


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("argv", VERB_STDOUT_SHA256, ids=lambda argv: argv[0])
def test_verb_stdout_is_pinned(capsys, argv, fmt):
    assert run(["--format", fmt, *argv]) == 0
    expected = VERB_STDOUT_SHA256[argv][fmt == "text"]
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == expected
