import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from mpmath import mp, mpf

import icogate
from icogate import cli
from icogate.cli import main, parse_angle, parse_quat
from icogate.errors import BudgetExhausted, MalformedInput
from icogate.golden import phi_power
from icogate.icosian import RHO, GateWord, evaluate_word, word_to_quat
from icogate.unitary import (ProjUnitary, distance, named_gate,
                             parse_complex, precision_for,
                             quaternion_distance)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse_angle_pi_fractions():
    with mp.workprec(80):
        assert parse_angle("pi/8") == mp.pi / 8
        assert parse_angle("-3pi/4") == -3 * mp.pi / 4
        assert parse_angle("2*pi/5") == 2 * mp.pi / 5
        assert parse_angle("pi") == mp.pi
        assert parse_angle("0.25") == mpf("0.25")
    with pytest.raises(MalformedInput):
        parse_angle("about tau")


def test_parse_quat():
    q = parse_quat(["1,0", "0,0", "0,0", "0,0"])
    assert q.nrd().a == 1
    with pytest.raises(MalformedInput):
        parse_quat(["1,0", "0,0"])
    with pytest.raises(MalformedInput):
        parse_quat(["1,0", "0,0", "0,0", "x,y"])


def test_exact_identity_gives_empty_word(capsys):
    code, out, _ = run(capsys, "exact", "--quat", "1,0", "0,0", "0,0", "0,0")
    assert code == 0
    assert "word        ()" in out
    assert "tau-count   0" in out


def test_exact_quat_with_eta_content(capsys):
    # 14 + 10phi = 2*eta is a scalar; (7 + 5phi)(1, 1, 1, 1) = eta*rho
    code, out, _ = run(capsys, "exact", "--quat", "14,10", "0,0", "0,0", "0,0")
    assert code == 0
    assert "word        ()" in out
    code, out, _ = run(capsys, "exact", "--quat", "7,5", "7,5", "7,5", "7,5")
    assert code == 0
    assert "word        (r)" in out
    code, out, err = run(capsys, "exact", "--quat", "0,0", "0,0", "0,0", "0,0")
    assert code == 3 and not out and "zero quaternion" in err


def test_exact_word_roundtrip(capsys):
    code, out, _ = run(capsys, "exact", "--word", "(r)t(srs)")
    assert code == 0
    assert "round-trip  ok" in out


def test_exact_quat_with_a_huge_unit_scalar(capsys):
    # rho * phi^2100: its coordinates are far beyond float range
    q = RHO * phi_power(2100)
    code, out, _ = run(capsys, "exact", "--quat",
                       *(f"{x.a},{x.b}" for x in q.parts()))
    assert code == 0
    assert "word        (r)" in out


def test_exact_rejects_garbage_word(capsys):
    code, _, err = run(capsys, "exact", "--word", "(r)t(xyz)")
    assert code == 3
    assert "error" in err


def test_exact_rejects_non_group_quat(capsys):
    # nrd = 2, not a unit times a power of eta
    code, _, err = run(capsys, "exact", "--quat", "1,0", "1,0", "0,0", "0,0")
    assert code == 3
    assert "error" in err


def test_synth_diag_text_output(capsys):
    code, out, _ = run(capsys, "synth-diag", "--theta", "pi/8",
                       "--eps", "1e-3")
    assert code == 0
    for field in ("word", "tau-count", "achieved", "m ", "abandoned",
                  "elapsed"):
        assert field in out


def test_synth_json_word_reproduces_achieved(capsys):
    code, out, _ = run(capsys, "synth", "--gate", "H", "--eps", "1e-3",
                       "--json")
    assert code == 0
    payload = json.loads(out)
    word = GateWord.from_json(payload["word"])
    assert payload["tau_count"] == word.tau_count
    with mp.workprec(200):
        d = distance(named_gate("H", 200), evaluate_word(word, 200))
        assert abs(d - mpf(payload["achieved"])) <= mpf(payload["achieved"]) / 100
    assert payload["central_tau"] + sum(payload["outer_tau"]) >= word.tau_count


@pytest.mark.parametrize("argv", [("synth", "--gate", "H"),
                                  ("synth-diag", "--theta", "pi/8")],
                         ids=["synth", "synth-diag"])
def test_synth_json_is_one_report_with_its_replay_fields(capsys, argv):
    """Both subcommands emit the same keys: the report's, the shell m of
    its quaternion, and the precision and version a replay needs."""
    code, out, _ = run(capsys, *argv, "--eps", "1e-6", "--json")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {
        "word", "tau_count", "central_tau", "outer_tau", "achieved", "k",
        "m", "abandoned_count", "epsilon", "elapsed_seconds",
        "precision_bits", "version"}
    assert payload["precision_bits"] == precision_for(1e-6)
    assert payload["version"] == icogate.__version__
    assert payload["tau_count"] <= payload["m"]
    if argv[0] == "synth-diag":
        assert payload["outer_tau"] == [payload["tau_count"], 0]
        assert payload["central_tau"] == payload["k"] == 0


def test_synth_deterministic_for_seed():
    """The word, k and achieved depend on the input alone: two fresh
    interpreters with different hash seeds agree."""
    # the interpreters import the same icogate as this one
    path = str(Path(icogate.__file__).parents[1])
    outputs = []
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=path)
        proc = subprocess.run(
            [sys.executable, "-m", "icogate.cli", "synth", "--gate", "H",
             "--eps", "1e-6", "--json"],
            env=env, capture_output=True, text=True, check=True, timeout=600)
        payload = json.loads(proc.stdout)
        outputs.append((payload["word"], payload["k"], payload["achieved"]))
    assert outputs[0] == outputs[1]


with mp.workprec(400):
    # sin(theta) = 1 - eps^2 for eps = 0.05: u(pi/2), and the shell
    # pairs (0, eta^{m/2}) at the cap's corner, lie at distance eps
    CAP_CORNER = mp.nstr(mp.asin(1 - mpf(0.05) ** 2), 80)


@pytest.mark.parametrize("theta, exact, eps", [
    ("pi/8", lambda: mp.pi / 8, 1e-20),
    ("0.3", lambda: mpf("0.3"), 1e-20),
    ("1e30", lambda: mpf(10) ** 30, 1e-6),
    ("1000001pi/8", lambda: 1000001 * mp.pi / 8, 1e-10),
    (CAP_CORNER, lambda: mpf(CAP_CORNER), 0.05),
], ids=["pi/8", "0.3", "1e30", "1000001pi/8", "cap-corner"])
def test_synth_diag_true_distance_below_eps(capsys, theta, exact, eps):
    """The word is within eps of u(theta) for the exact theta, measured
    at twice the working precision, and achieved reports that
    distance; at the cap corner a word at distance eps itself is
    refused."""
    code, out, _ = run(capsys, "synth-diag", "--theta", theta,
                       "--eps", str(eps), "--json")
    assert code == 0
    payload = json.loads(out)
    q = word_to_quat(GateWord.from_json(payload["word"]))
    bits = 2 * precision_for(eps)
    with mp.workprec(bits + 128):  # room for the integer bits of 1e30
        t = exact()
        target = (mp.cos(t), mp.sin(t), 0, 0)
    with mp.workprec(bits):
        d = quaternion_distance(target, q.to_vector(bits))
    assert d < eps
    assert abs(d - mpf(payload["achieved"])) <= d / 100
    assert payload["tau_count"] == GateWord.from_json(
        payload["word"]).tau_count
    assert payload["abandoned_count"] >= 0


def test_synth_matrix_entry_parsing(capsys):
    # [[1, 1], [1, -1]] is a scalar multiple of H
    code, out, _ = run(capsys, "synth", "--matrix", "1", "1", "1", "-1",
                       "--eps", "1e-3", "--json")
    assert code == 0
    payload = json.loads(out)
    word = GateWord.from_json(payload["word"])
    with mp.workprec(200):
        assert distance(named_gate("H", 200), evaluate_word(word, 200)) \
            < mpf("1.5e-3")


@pytest.mark.parametrize("argv", [
    ("synth-diag", "--theta", "-3pi/4"),
    ("synth", "--matrix", "-0.6+0.8i", "0", "0", "-0.6-0.8i"),
    ("synth", "--matrix", "0", "-i", "-i", "0"),
], ids=["theta", "matrix-diagonal", "matrix-antidiagonal"])
def test_values_with_a_leading_minus(capsys, argv):
    """A value that starts with a minus is read as a value, not as an
    unknown option, and compiled like the same value written after '='
    (--theta) or measured against the matrix it names (--matrix)."""
    code, out, err = run(capsys, *argv, "--eps", "1e-3", "--json")
    assert code == 0, err
    word = GateWord.from_json(json.loads(out)["word"])
    bits = precision_for(1e-3)
    if argv[0] == "synth-diag":
        _, joined, _ = run(capsys, "synth-diag", f"--theta={argv[2]}",
                           "--eps", "1e-3", "--json")
        assert word == GateWord.from_json(json.loads(joined)["word"])
        with mp.workprec(bits):
            target = ProjUnitary(((mp.expjpi(-0.75), 0),
                                  (0, mp.expjpi(0.75))), bits)
    else:
        entries = [parse_complex(tok, bits) for tok in argv[2:]]
        target = ProjUnitary((entries[:2], entries[2:]), bits)
    with mp.workprec(bits):
        assert distance(target, evaluate_word(word, bits)) < mpf("1.5e-3")


def test_non_finite_and_non_unitary_inputs_exit_3(capsys):
    code, out, err = run(capsys, "synth-diag", "--theta", "nan",
                         "--eps", "1e-3")
    assert code == 3 and not out and "finite" in err
    for eps in ("inf", "nan"):
        for argv in (("synth", "--gate", "H"),
                     ("synth-diag", "--theta", "0.3")):
            code, out, err = run(capsys, *argv, "--eps", eps)
            assert code == 3 and not out and "finite" in err
            assert "Traceback" not in err
    code, out, err = run(capsys, "synth", "--matrix", "1", "0", "0", "2",
                         "--eps", "1e-3")
    assert code == 3 and not out and "unitary" in err
    for theta in ("pi/0", "3pi/0", "1/0", "0/0"):
        code, out, err = run(capsys, "synth-diag", "--theta", theta,
                             "--eps", "1e-3")
        assert code == 3 and not out and "zero denominator" in err
    for entry in ("1/0", "0/0"):
        code, out, err = run(capsys, "synth", "--matrix", entry, "0", "0",
                             "1", "--eps", "1e-3")
        assert code == 3 and not out and "zero denominator" in err


def test_synth_needs_exactly_one_target(capsys):
    code, _, err = run(capsys, "synth", "--eps", "1e-3")
    assert code == 3
    code, _, err = run(capsys, "synth", "--gate", "H", "--matrix",
                       "1", "0", "0", "1", "--eps", "1e-3")
    assert code == 3


def test_synth_rejects_bad_epsilon(capsys):
    code, _, err = run(capsys, "synth", "--gate", "H", "--eps", "2")
    assert code == 3
    assert "error" in err


def test_budget_exhaustion_exit_code(capsys, monkeypatch):
    def give_up(*a, **k):
        raise BudgetExhausted("no luck")
    monkeypatch.setattr(cli, "synth_general", give_up)
    code, _, err = run(capsys, "synth", "--gate", "H", "--eps", "1e-3")
    assert code == 2
    assert "no luck" in err


def test_unknown_subcommand_exit_code(capsys):
    code, _, err = run(capsys, "nonsense")
    assert code == 3


def test_verify_ne_passes_at_paper_grid(capsys):
    code, out, _ = run(capsys, "verify-ne", "--n", "6", "--r", "1/12")
    assert code == 0
    assert "violations 0" in out


def test_verify_ne_reports_failures_on_coarse_grid(capsys):
    code, out, _ = run(capsys, "verify-ne", "--n", "2", "--r", "1/4",
                       "--json")
    assert code == 1
    assert json.loads(out)["violations"]


def test_selftest_green(capsys):
    code, out, _ = run(capsys, "selftest")
    assert code == 0
    assert "FAIL" not in out


def test_selftest_checks_the_default_goal(capsys, monkeypatch):
    """Default mode returns only a word measured below 1.5 eps, so a
    general report at 2e-3 for eps 1e-3 fails the selftest."""
    synth = cli.synth_general
    monkeypatch.setattr(cli, "synth_general", lambda g, cfg: replace(
        synth(g, cfg), achieved=mpf("2e-3")))
    code, out, _ = run(capsys, "selftest")
    assert code == 1
    assert "FAIL general synthesis at 1e-3" in out.splitlines()
