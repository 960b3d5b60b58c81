import json
import pathlib

import pytest

from orbstab import cli
from orbstab.cli import main
from orbstab.classifier import classify
from orbstab.errors import AmbiguousDecision
from orbstab.geometry import format_complex, parse_complex

DATA = pathlib.Path(__file__).parent / "data"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


COMMANDS = {"classify": ["classify", "5"],
            "witness": ["witness", "5", "--entry", "(0)"],
            "verify": ["verify", "5", "6"],
            "moduli": ["moduli", "6", "--phi"]}


@pytest.mark.parametrize("tol", ["0", "-1", "1", "nan"])
@pytest.mark.parametrize("argv", COMMANDS.values(), ids=COMMANDS)
def test_tol_out_of_range_is_exit_2(capsys, argv, tol):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--tol", tol])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert "usage:" in captured.err and "--tol: must be in (0, 1e-3]" in captured.err


@pytest.mark.parametrize("argv", COMMANDS.values(), ids=COMMANDS)
def test_tol_at_its_bound_is_accepted(capsys, argv):
    code, out, _ = run(capsys, *argv, "--tol", "1e-3")
    assert code == 0 and out


@pytest.mark.parametrize("command", ["witness", "verify"])
def test_retry_bound_is_not_an_option(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([*COMMANDS[command], "--retry-bound", "0"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --retry-bound 0" in capsys.readouterr().err


class TestClassify:
    def test_golden_2018(self, capsys):
        code, out, err = run(capsys, "classify", "2018")
        assert code == 0
        golden = (DATA / "golden_2018.txt").read_text()
        assert out.splitlines() == golden.splitlines()

    def test_n_one_prints_infinity(self, capsys):
        code, out, _ = run(capsys, "classify", "1")
        assert code == 0
        assert out.strip() == "infinity"

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "classify", "5", "--json")
        assert code == 0
        data = json.loads(out)
        assert len(data) == 5
        assert data[0] == {"group": "D", "p": 5, "index": [0, 1, 0]}
        assert data[-1] == {"group": "trivial", "index": []}

    def test_nonpositive_is_exit_2(self, capsys):
        code, _, err = run(capsys, "classify", "0")
        assert code == 2
        assert "error" in err

    def test_unparsable_is_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "classify", "bananas")
        assert exc.value.code == 2

    def test_small_n_warns_about_moduli_reading(self, capsys):
        _, _, err = run(capsys, "classify", "3")
        assert "n >= 5" in err
        _, _, err = run(capsys, "classify", "5")
        assert err == ""

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "listing.txt"
        code, out, _ = run(capsys, "classify", "6", "--out", str(target))
        assert code == 0
        assert target.read_text() == out


class TestWitness:
    def test_z2_example(self, capsys):
        code, out, _ = run(capsys, "witness", "5", "--entry", "Z_2,(1,2)")
        assert code == 0
        body = [line for line in out.splitlines() if not line.startswith("#")]
        got = sorted((parse_complex(s) for s in body),
                     key=lambda v: (v.real, v.imag))
        assert got == [-2, -1, 0, 1, 2]

    def test_trivial_example(self, capsys):
        code, out, _ = run(capsys, "witness", "5", "--entry", "(0)")
        assert code == 0
        body = {parse_complex(s) for s in out.splitlines()
                if not s.startswith("#")}
        assert body == {1, 1j, -1, -1j, 2}

    def test_absent_entry_is_exit_3(self, capsys):
        code, _, err = run(capsys, "witness", "5", "--entry", "A_5,(1,0,0,0)")
        assert code == 3
        assert "not in the classification" in err

    def test_bad_selector_is_exit_2(self, capsys):
        code, _, err = run(capsys, "witness", "5", "--entry", "Q_9,(1)")
        assert code == 2

    def test_no_set_at_a_coarse_tol_is_exit_4(self, capsys):
        # the K_4 generic orbits of this entry lie within 2e-3 of each other
        code, out, err = run(capsys, "witness", "60", "--entry", "K_4,(0,15)",
                             "--tol", "1e-3")
        assert code == 4 and out == ""
        assert err.startswith("error: no witness found") and "AmbiguousMatching" in err
        code, _, _ = run(capsys, "witness", "60", "--entry", "K_4,(0,15)")
        assert code == 0

    def test_json_payload(self, capsys):
        code, out, _ = run(capsys, "witness", "6", "--entry", "K_4,(1,1)",
                           "--json")
        assert code == 0
        data = json.loads(out)
        assert data["n"] == 6
        assert data["entry"] == {"group": "K_4", "index": [1, 1]}
        assert len(data["points"]) == 6


class TestVerify:
    def test_single_three_point_case(self, capsys):
        code, out, _ = run(capsys, "verify", "3", "3")
        assert code == 0
        assert "D_3, (0, 1, 0)" in out and "PASS" in out
        assert out.strip().endswith("summary: 1/1 PASS")

    def test_range_five_to_seven(self, capsys):
        code, out, _ = run(capsys, "verify", "5", "7")
        assert code == 0
        lines = [l for l in out.splitlines() if l.startswith("n=")]
        expected = sum(len(classify(n)) for n in (5, 6, 7))
        assert len(lines) == expected
        assert all("PASS" in l for l in lines)

    def test_exhaustive_small_sampling(self, capsys):
        code, out, _ = run(capsys, "verify", "5", "5", "--exhaustive-small",
                           "--seed", "7")
        assert code == 0
        sampled = [l for l in out.splitlines() if "sampled" in l]
        assert len(sampled) == 25
        assert all("PASS" in l for l in sampled)
        entries = len(classify(5))  # conjugated + jittered per entry
        for tag in ("conjugated", "jittered"):
            lines = [l for l in out.splitlines() if tag in l]
            assert len(lines) == entries
            assert all("PASS" in l for l in lines)

    def test_bad_range_is_exit_2(self, capsys):
        code, _, _ = run(capsys, "verify", "9", "5")
        assert code == 2

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "verify", "5", "6", "--json")
        assert code == 0
        data = json.loads(out)
        expected = [{"n": n, "entry": e.to_json(), "pass": True, "detail": ""}
                    for n in (5, 6) for e in classify(n)]
        assert data == {"entries": expected, "passed": len(expected),
                        "total": len(expected)}

    def test_json_matches_text_with_samples(self, capsys):
        argv = ("verify", "5", "5", "--exhaustive-small", "--seed", "7")
        _, text, _ = run(capsys, *argv)
        code, out, _ = run(capsys, *argv, "--json")
        assert code == 0
        data = json.loads(out)
        lines = [l for l in text.splitlines() if l.startswith("n=")]
        assert len(data["entries"]) == data["total"] == len(lines)
        samples = [r["sample"] for r in data["entries"] if "sample" in r]
        assert samples == [l.split()[1] for l in lines if "->" in l]
        assert text.splitlines()[-1] == (f"summary: {data['passed']}/"
                                         f"{data['total']} PASS")

    def test_failures_keep_exit_1_in_both_forms(self, capsys, monkeypatch):
        def broken(ps):
            raise RuntimeError("no oracle")
        monkeypatch.setattr(cli, "stabilizer", broken)
        code, text, _ = run(capsys, "verify", "5", "5")
        assert code == 1
        assert "FAIL RuntimeError: no oracle" in text
        code, out, _ = run(capsys, "verify", "5", "5", "--json")
        assert code == 1
        data = json.loads(out)
        assert data["passed"] == 0 and data["total"] == len(classify(5))
        assert all(not r["pass"] and r["detail"] == "RuntimeError: no oracle"
                   for r in data["entries"])

    def test_samples_the_oracle_cannot_decide_fail_their_line(self, capsys,
                                                               monkeypatch):
        # a named oracle error on a sampled set is a FAIL line, not an abort
        def undecided(ps):
            raise AmbiguousDecision("a proposal lies in the decision gap")
        monkeypatch.setattr(cli, "stabilizer", undecided)
        argv = ("verify", "5", "5", "--exhaustive-small", "--seed", "7")
        code, text, _ = run(capsys, *argv)
        assert code == 1
        sampled = [l for l in text.splitlines() if "sampled" in l]
        assert len(sampled) == 25 and all(
            l.endswith("FAIL AmbiguousDecision: a proposal lies in the "
                       "decision gap") for l in sampled)
        code, out, _ = run(capsys, *argv, "--json")
        data = json.loads(out)
        assert code == 1 and data["passed"] == 0
        assert sum("sample" in r for r in data["entries"]) == 25 + 2 * len(classify(5))

    def test_exhaustive_small_passes_at_the_coarsest_tol(self, capsys):
        # the jittered samples are near-symmetries of their witnesses that
        # miss by far more than rounding: rejected, not left undecided
        code, out, _ = run(capsys, "verify", "5", "7", "--exhaustive-small",
                           "--tol", "1e-3")
        assert code == 0
        assert out.splitlines()[-1] == "summary: 129/129 PASS"

    def test_fail_lines_stay_short_after_many_attempts(self, capsys):
        # at tol 1e-3 the S_4 and A_4 searches fail all 16 attempts; a line
        # names the count, the first note and the last
        code, out, _ = run(capsys, "verify", "120", "120", "--tol", "1e-3")
        fails = [line for line in out.splitlines() if " FAIL " in line]
        assert code == 1 and fails
        assert max(len(line.encode()) for line in fails) < 500
        assert any("after 16 attempt(s): attempt 0: " in line
                   and "; ...; attempt 15: " in line for line in fails)


class TestModuli:
    def test_group_law(self, capsys):
        code, out, _ = run(capsys, "moduli", "6", "--group-law", "--trials",
                           "50")
        assert code == 0
        assert "PASS" in out

    def test_phi_with_explicit_lambda(self, capsys):
        code, out, _ = run(capsys, "moduli", "5", "--phi", "--lambda", "2+1i,5")
        assert code == 0
        assert "|G_lambda| = 1" in out

    def test_phi_preset_d5(self, capsys):
        code, out, _ = run(capsys, "moduli", "5", "--phi", "--preset", "d5")
        assert code == 0
        assert "|G_lambda| = 10" in out and "PASS" in out

    def test_nothing_to_do_is_exit_2(self, capsys):
        code, _, err = run(capsys, "moduli", "6")
        assert code == 2

    def test_phi_compares_maps_at_the_given_tol(self, capsys):
        # d5 with one coordinate moved by 2e-5: symmetric within 1e-4
        code, out, _ = run(capsys, "moduli", "5", "--phi",
                           "--lambda=-1.6180139887498948,-0.6180339887498949",
                           "--tol", "1e-4")
        assert code == 0
        assert "homomorphism pairs 100/100" in out and "PASS" in out

    def test_phi_above_eight(self, capsys, icosahedron_lambda):
        csv = ",".join(format_complex(v) for v in icosahedron_lambda.values)
        code, out, _ = run(capsys, "moduli", "12", "--phi", f"--lambda={csv}")
        assert code == 0
        assert "|G_lambda| = 60" in out
        assert "homomorphism pairs 3600/3600" in out and "PASS" in out

    def test_phi_at_a_coarse_tol(self, capsys):
        code, out, _ = run(capsys, "moduli", "12", "--phi", "--tol", "1e-3",
                           "--seed", "0")
        assert code == 0 and "PASS" in out

    @pytest.mark.parametrize("csv", ["0,2", "abc,2"])
    def test_bad_lambda_is_exit_2(self, capsys, csv):
        code, out, err = run(capsys, "moduli", "5", "--group-law", "--phi",
                             "--lambda", csv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "Traceback" not in err

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "moduli", "5", "--group-law", "--phi",
                           "--preset", "d5", "--trials", "20", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["group_law"]["n"] == 5 and data["group_law"]["trials"] == 20
        assert data["group_law"]["passed"] is True
        assert data["phi"] == {"n": 5, "order_G": 10, "order_A": 10,
                               "stabilized": 10, "hom_pairs": 100,
                               "hom_pairs_ok": 100, "onto_ok": True,
                               "passed": True}

    @pytest.mark.parametrize("source", [("--preset", "d5"),
                                        ("--lambda", "2+1i,5")])
    def test_phi_n_must_match_the_configuration(self, capsys, source):
        code, out, err = run(capsys, "moduli", "8", "--phi", *source)
        assert code == 2
        assert out == ""
        assert "n = 5, not the requested n = 8" in err

    @pytest.mark.parametrize("source", [("--preset", "d5"), ("--seed", "3"),
                                        ("--lambda", "2+1i,5")])
    def test_phi_runs_at_the_given_tol(self, capsys, monkeypatch, source):
        seen = []
        real = cli.phi_check

        def recording(lam):
            seen.append(lam.tol)
            return real(lam)
        monkeypatch.setattr(cli, "phi_check", recording)
        code, out, _ = run(capsys, "moduli", "5", "--phi", *source,
                           "--tol", "1e-5")
        assert code == 0 and "PASS" in out
        assert seen == [1e-5]
