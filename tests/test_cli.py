"""End-to-end checks of the command-line front end.

Commands run in-process through cli.main so exit codes and output streams
are observable directly.
"""

import json

import pytest

from rgbgame import bell, cli, locality
from rgbgame.formats import load_box_file, save_box
from rgbgame.quantum import quantum_strategy_table, singlet, trine_strategy
from rgbgame.strategies import l1_distance, rgb0, rgrb


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bounds_table(capsys):
    code, out, err = run(capsys, "bounds")
    assert code == 0
    assert out.splitlines() == [
        "local | 8/9 | 8",
        "quantum | 11/12 | 9",
        "no-signalling | 1 | 12",
    ]
    assert "wall time" in err
    assert "(command and its imports; excludes interpreter start)" in err
    assert "wall time" not in out


def test_bounds_json_matches_table(capsys):
    code, out, _ = run(capsys, "bounds", "--json")
    assert code == 0
    report = json.loads(out)
    rows = report["results"]["rows"]
    assert [(r["class"], r["win"], r["bell"]) for r in rows] == [
        ("local", "8/9", "8"),
        ("quantum", "11/12", "9"),
        ("no-signalling", "1", "12"),
    ]


def test_bounds_chsh(capsys):
    code, out, _ = run(capsys, "bounds", "--game", "chsh")
    assert code == 0
    assert out.splitlines() == ["local | 3/4", "no-signalling | 1"]


def test_enumerate(capsys):
    code, out, _ = run(capsys, "enumerate")
    assert code == 0
    assert out == "winning deterministic boxes: 5832\n"
    code, out, _ = run(capsys, "enumerate", "--game", "chsh")
    assert code == 0
    assert out == "winning deterministic boxes: 16\n"


def test_verify_reductions(capsys):
    for name in ("pr-from-rgrb", "rgrb-from-pr"):
        code, out, _ = run(capsys, "verify-reduction", name)
        assert code == 0
        assert out == "distance 0/1, PASS\n"


def test_ns_check_passes_on_rgrb(tmp_path, capsys):
    path = tmp_path / "rgrb.box"
    save_box(rgrb(), path)
    code, out, _ = run(capsys, "ns-check", str(path))
    assert code == 0
    assert out == "no-signalling: yes\n"


def test_ns_check_flags_rgb0(tmp_path, capsys):
    path = tmp_path / "rgb0.box"
    save_box(rgb0(), path)
    code, out, _ = run(capsys, "ns-check", str(path))
    assert code == 1
    assert out.startswith("SIGNALS, witness: side=right")
    code, out, _ = run(capsys, "ns-check", str(path), "--json")
    assert code == 1
    report = json.loads(out)
    assert report["results"]["no_signalling"] is False
    assert report["results"]["witness"]["side"] == "right"


def test_ns_check_bad_input(tmp_path, capsys):
    code, _, err = run(capsys, "ns-check", str(tmp_path / "missing.box"))
    assert code == 2
    assert "error:" in err
    bad = tmp_path / "bad.box"
    bad.write_text('{"alphabets": [1, 1, 1, 1]}')
    code, _, err = run(capsys, "ns-check", str(bad))
    assert code == 2
    assert "lacks" in err
    nan = tmp_path / "nan.box"
    nan.write_text(
        '{"alphabets": [1, 1, 1, 1], "table": [{"a": 0, "b": 0, "x": 0, "y": 0, "p": "nan"}]}'
    )
    code, out, err = run(capsys, "ns-check", str(nan))
    assert code == 2
    assert out == ""
    assert "error: row (0,0) has a non-finite entry" in err


def test_ns_unique(capsys):
    code, out, _ = run(capsys, "ns-unique")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 16
    assert lines[0] == "p0 = 1/2"
    assert all(line.endswith("= 1/2") for line in lines[:15])
    assert lines[-1] == "matches rgrb: yes"


def test_quantum_default_is_the_trine(capsys):
    code, out, _ = run(capsys, "quantum")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "alice angles: 0 -120 120"
    win = float(lines[2].split(": ")[1])
    assert abs(win - 11 / 12) < 1e-12
    r = float(lines[3].split(": ")[1])
    assert abs(r - 9) < 1e-9


def test_quantum_output_file_round_trips(tmp_path, capsys):
    path = tmp_path / "trine.box"
    code, _, _ = run(capsys, "quantum", "--output", str(path))
    assert code == 0
    table = quantum_strategy_table(singlet(), trine_strategy(), trine_strategy())
    assert l1_distance(load_box_file(path), table) == 0


def test_sdp_certify(capsys):
    code, out, _ = run(capsys, "sdp-certify")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "primal value: 9"
    assert lines[1] == "dual value: 9"
    assert lines[2] == "gap: 0"
    assert lines[5] == "bound: 9"
    assert lines[6] == "implied win bound: 0.91666666666666663"
    assert "objective matrix:" in lines
    # fixed-width decimal rendering of the certificate matrices
    assert "   0.0  0.0  0.0 -2.0  1.0  1.0" in lines


def test_sdp_certify_json_keys(capsys):
    code, out, _ = run(capsys, "sdp-certify", "--json")
    assert code == 0
    results = json.loads(out)["results"]
    assert set(results) == {
        "primal_value",
        "dual_value",
        "gap",
        "primal_eigenvalues",
        "dual_slack_eigenvalues",
        "bound",
        "implied_win_bound",
    }
    assert results["primal_value"] == "9"


def test_sdp_optimize_is_reproducible(capsys):
    code, first, _ = run(capsys, "sdp-optimize", "--seed", "7")
    assert code == 0
    code, second, _ = run(capsys, "sdp-optimize", "--seed", "7")
    assert first == second
    lines = first.splitlines()
    assert lines[0] == "seed: 7"
    assert lines[1] == "restarts: 20"
    best = float(lines[2].split(": ")[1])
    assert 9 - 1e-6 <= best <= 9 + 1e-9
    assert lines[4] == "monotone: yes"
    assert lines[5] == "gram rank: 2"


def test_sdp_optimize_requires_seed(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["sdp-optimize"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    ("option", "value", "what"),
    [
        ("--seed", "-5", "nonnegative integer"),
        ("--seed", "-1", "nonnegative integer"),
        ("--seed", "1.5", "nonnegative integer"),
        ("--seed", "abc", "nonnegative integer"),
        ("--restarts", "0", "positive integer"),
        ("--restarts", "-3", "positive integer"),
        ("--restarts", "2.0", "positive integer"),
    ],
)
def test_sdp_optimize_seed_and_restarts_are_checked_by_the_parser(capsys, option, value, what):
    # Unchecked, a negative seed fails inside the library with a message that
    # names no option.
    with pytest.raises(SystemExit) as exc:
        cli.main(["sdp-optimize", "--seed", "1", "--restarts", "1", option, value])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {option}: {value!r} is not a {what}" in captured.err


def test_tolerance_is_not_an_option(capsys):
    # The certificate's gap is an exact 0, so no slack could change a result.
    for command in ("bounds", "sdp-certify"):
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--tolerance", "0"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --tolerance 0" in captured.err


@pytest.mark.parametrize("command", ["bounds", "sdp-certify"])
@pytest.mark.parametrize("value", ["-1", "-0.5", "nan", "inf", "-inf", "abc"])
def test_tolerance_must_be_finite_and_nonnegative(capsys, command, value):
    # The values the old `--tolerance` parser refused are still refused, now
    # because the option is gone, and they still print nothing on stdout.
    with pytest.raises(SystemExit) as exc:
        cli.main([command, f"--tolerance={value}"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unrecognized arguments: --tolerance={value}" in captured.err


@pytest.mark.parametrize("option", ["--alice-angles", "--bob-angles"])
@pytest.mark.parametrize("value", ["nan", "inf", "NaN", "1e400", "abc"])
def test_angles_must_be_finite(capsys, option, value):
    # Unchecked, these reach the simulation and fail there with a
    # misleading Born probability or a math domain error.
    with pytest.raises(SystemExit) as exc:
        cli.main(["quantum", option, "0", value, "120"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {option}: {value!r} is not a finite number" in captured.err


def test_distance_and_export_pipeline(tmp_path, capsys):
    wiring_path = tmp_path / "w.json"
    base_path = tmp_path / "rgrb.box"
    out_path = tmp_path / "composed.box"
    pr_path = tmp_path / "pr.box"

    assert run(capsys, "export-wiring", "pr-from-rgrb", "--output", str(wiring_path))[0] == 0
    assert run(capsys, "export-box", "rgrb", "--output", str(base_path))[0] == 0
    assert run(capsys, "export-box", "pr", "--output", str(pr_path))[0] == 0
    code, out, _ = run(
        capsys, "apply-wiring", str(wiring_path), str(base_path), "--output", str(out_path)
    )
    assert code == 0
    code, out, _ = run(capsys, "distance", str(out_path), str(pr_path))
    assert code == 0
    assert out == "distance: 0/1\n"


def test_apply_wiring_shape_mismatch_is_an_input_error(tmp_path, capsys):
    wiring_path = tmp_path / "w.json"
    box_path = tmp_path / "pr.box"
    run(capsys, "export-wiring", "pr-from-rgrb", "--output", str(wiring_path))
    run(capsys, "export-box", "pr", "--output", str(box_path))
    # pr-from-rgrb expects a three-colour base, not the XOR box.
    code, _, err = run(capsys, "apply-wiring", str(wiring_path), str(box_path))
    assert code == 2
    assert "error:" in err


def test_apply_wiring_rejects_boolean_call_count(tmp_path, capsys):
    wiring_path = tmp_path / "w.json"
    box_path = tmp_path / "rgrb.box"
    run(capsys, "export-wiring", "pr-from-rgrb", "--output", str(wiring_path))
    run(capsys, "export-box", "rgrb", "--output", str(box_path))
    doc = json.loads(wiring_path.read_text())
    doc["calls"] = True
    wiring_path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "apply-wiring", str(wiring_path), str(box_path))
    assert code == 2
    assert out == ""
    assert "error: calls must be a nonnegative integer" in err


def test_export_box_prints_a_loadable_document(capsys, tmp_path):
    code, out, _ = run(capsys, "export-box", "parity-flip")
    assert code == 0
    doc = json.loads(out)
    assert doc["alphabets"] == [3, 3, 3, 3]
    path = tmp_path / "flip.box"
    path.write_text(out)
    code, out2, _ = run(capsys, "ns-check", str(path))
    assert code == 0


def test_unknown_command_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2


def test_stdout_is_stable_across_runs(capsys):
    _, first, _ = run(capsys, "bounds")
    _, second, _ = run(capsys, "bounds")
    assert first == second


def _fail_report(command, inputs, error):
    report = {"command": command, "inputs": inputs, "results": {"error": error}}
    return json.dumps(report, indent=2) + "\n"


def _uncertifiable():
    raise bell.CertificationError("primal candidate is infeasible")


def _unsolvable():
    raise ArithmeticError("no unique no-signalling solution")


@pytest.mark.parametrize(
    ("argv", "module", "name", "fake", "inputs", "error"),
    [
        (["bounds"], bell, "certify_quantum_bound", _uncertifiable,
         {"game": "rgb"}, "primal candidate is infeasible"),
        (["sdp-certify"], bell, "certify_quantum_bound", _uncertifiable,
         {}, "primal candidate is infeasible"),
        (["bounds"], bell, "trine_table", rgrb,
         {"game": "rgb"}, "trine strategy wins 1, not 11/12"),
        (["ns-unique"], locality, "solve_ns_unique", _unsolvable,
         {}, "no unique no-signalling solution"),
    ],
    ids=["bounds-certificate", "sdp-certify", "bounds-trine", "ns-unique"],
)
def test_failed_verification_exits_one(capsys, monkeypatch, argv, module, name, fake, inputs,
                                       error):
    monkeypatch.setattr(module, name, fake)
    assert run(capsys, *argv)[:2] == (1, f"FAIL: {error}\n")
    assert run(capsys, *argv, "--json")[:2] == (1, _fail_report(argv[0], inputs, error))
