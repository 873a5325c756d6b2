"""Command-line interface: exit codes, reports, file pipelines."""

import hashlib
import json
import random
import shlex

import mpmath
import pytest

from weilforms import cli, isomap, weilrep
from weilforms.containers import dumps, jacobi_to_json, loads, scalar_to_json
from weilforms.discform import DiscriminantForm
from weilforms.expansions import theta_expansion
from weilforms.jacobi import JacobiForm, random_jacobi_form
from weilforms.metaplectic import parse_word
from weilforms.weilrep import rho_eval


def run(argv):
    try:
        return cli.main(argv)
    except SystemExit as err:
        return err.code


def test_milgram_pass_and_control():
    assert run(["milgram", "--m", "6"]) == 0
    assert run(["milgram", "--m", "6", "--signature", "2,2"]) == 2


def test_usage_errors_exit_1(capsys):
    assert run(["milgram"]) == 1
    assert run(["no-such-command"]) == 1
    assert run(["milgram", "--m", "3", "--signature", "fish"]) == 1
    assert run(["eval", "--builtin", "nope"]) == 1
    assert run(["milgram", "--m", "3", "--seed", "7"]) == 1  # --seed is selftest's
    capsys.readouterr()


def test_rho_report_matches_direct_matrix(tmp_path, capsys):
    out = tmp_path / "rho.json"
    assert run(["rho", "--m", "2", "--word", "S T T S'", "--json", str(out)]) == 0
    capsys.readouterr()
    report = loads(out.read_text())
    assert report["overall"] is True
    want = rho_eval(
        DiscriminantForm(2), parse_word("S T T S'").to_element()).to_json_dict()
    assert report["result"]["matrix"] == want


def test_split_combine_pipeline(tmp_path, capsys):
    f = theta_expansion(60)
    src = tmp_path / "theta.json"
    src.write_text(dumps(scalar_to_json(f, 1, 0)))
    mid = tmp_path / "vector.json"
    back = tmp_path / "back.json"
    assert run(["split", "--in", str(src), "--out", str(mid)]) == 0
    assert run(["check-T", "--in", str(mid)]) == 0
    assert run(["combine", "--in", str(mid), "--out", str(back)]) == 0
    assert run(["check-plus", "--in", str(back)]) == 0
    capsys.readouterr()
    assert loads(back.read_text()) == scalar_to_json(f, 1, 0)


def test_check_S_builtin_theta(capsys):
    assert run(["check-S", "--builtin", "theta"]) == 0
    out = capsys.readouterr().out
    assert "overall: pass" in out


def test_jacobi_file_roundtrip(tmp_path, capsys):
    phi = random_jacobi_form(2, 3, random.Random(99))
    src = tmp_path / "phi.json"
    src.write_text(dumps(jacobi_to_json(phi)))
    mid = tmp_path / "components.json"
    back = tmp_path / "back.json"
    assert run(["jacobi-decompose", "--in", str(src), "--out", str(mid)]) == 0
    assert run(["jacobi-reconstruct", "--in", str(mid), "--out", str(back)]) == 0
    capsys.readouterr()
    assert back.read_bytes() == src.read_bytes()


def test_jacobi_thm2_exit_codes(tmp_path, capsys):
    good = tmp_path / "good.json"
    good.write_text(dumps(jacobi_to_json(random_jacobi_form(2, 3, random.Random(5)))))
    assert run(["jacobi-thm2", "--in", str(good)]) == 0
    odd = tmp_path / "odd.json"
    odd.write_text(dumps(jacobi_to_json(random_jacobi_form(3, 3, random.Random(5)))))
    assert run(["jacobi-thm2", "--in", str(odd)]) == 1
    capsys.readouterr()


def test_selftest_deterministic_json(tmp_path, capsys):
    a, b, c = (tmp_path / n for n in ("a.json", "b.json", "c.json"))
    assert run(["selftest", "--json", str(a)]) == 0
    assert run(["selftest", "--json", str(b)]) == 0
    assert run(["selftest", "--seed", "7", "--json", str(c)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()
    report = json.loads(a.read_text())
    assert report["overall"] is True
    assert all(chk["pass"] for chk in report["checks"])


def test_precision_env_gate(capsys, monkeypatch):
    argv = ["rho", "--m", "1", "--word", "S"]
    monkeypatch.setenv("WEIL_PRECISION_BITS", "40")
    assert run(argv) == 1
    monkeypatch.setenv("WEIL_PRECISION_BITS", "junk")
    assert run(argv) == 1
    monkeypatch.setenv("WEIL_PRECISION_BITS", "192")
    assert run(argv) == 0
    capsys.readouterr()


def test_rank_lemma_report_fields(tmp_path, capsys):
    out = tmp_path / "rank.json"
    assert run(["rank-lemma", "--m", "5", "--json", str(out)]) == 0
    capsys.readouterr()
    result = loads(out.read_text())["result"]
    assert result["rank"] == 6
    assert result["claimed_rank"] == 8
    assert result["rank_matches_claim"] is False
    assert result["distinct_columns_independent"] is True


def test_heat_and_gauss_commands(capsys):
    assert run(["heat-check", "--m", "7", "--r", "13"]) == 0
    assert run(["gauss-check", "--m", "6"]) == 0
    assert run(["b-entry", "--m", "3", "--beta", "1", "--gamma", "5"]) == 0
    capsys.readouterr()


def test_b_entry_multiplies_one_row(capsys, monkeypatch):
    # b-entry needs row beta of B = CA only: it builds neither R nor all of B
    def refuse(*args):
        raise AssertionError("b-entry built a proof matrix")

    monkeypatch.setattr(isomap, "build_proof_matrices", refuse)
    monkeypatch.setattr(weilrep.WeilMatrix, "entries", refuse)
    for beta, gamma in ((1, 2), (-1, 5), (0, 0), (9, 13)):
        assert run(["b-entry", "--m", "7", "--beta", str(beta), "--gamma", str(gamma)]) == 0
    capsys.readouterr()


def test_proof_commands_reject_bad_index(capsys):
    for argv in (
        ["gauss-check", "--m", "0"],
        ["b-entry", "--m", "0", "--beta", "0", "--gamma", "0"],
        ["b-entry", "--m", "-3", "--beta", "1", "--gamma", "0"],
    ):
        assert run(argv) == 1
        assert "index m must be a positive integer" in capsys.readouterr().err


# SHA-256 of the --json report bytes, recorded before the proof matrices
# moved onto WeilMatrix products; any change to a verdict or to the report
# format shows up here.
REPORT_DIGESTS = {
    "gauss-check --m 1": "46a41b7db43ca7d488a2559c35579ea6cf93b8335996b675bc0542d8a8d1f62d",
    "rank-lemma --m 1": "1c1538bbad3f27384caeaad4e5a72d0235ceb4316a8007c0837d6f8d6778076e",
    "b-entry --m 1 --beta 1 --gamma 2": "a8fb82aba532fce3b10ddd44d2ff0aab81ea3fc19b265039bfdf02d735d1e09c",
    "gauss-check --m 4": "fb9be72fee6086554075b0da7e5f8994a64a81ab25fb4cda96618c5e0ff599fa",
    "rank-lemma --m 4": "2509083fdf306a62c69c5b50b8bc8a9c8e43246cb1bc376221d090c19af21ca0",
    "b-entry --m 4 --beta 1 --gamma 2": "6765f8fe07b39f9e23356be8b293cc2e33a746e3e5f5e174caf571d79a7a6963",
    "gauss-check --m 7": "93a87a13ffaed79db5cdd9a72a65bd45fc6a21e3173694d1460b3c77c915a8c3",
    "rank-lemma --m 7": "c0ad07c5f75130231f24765562aa8d7a10f5d73af6411837a9da4a30a9c03299",
    "b-entry --m 7 --beta 1 --gamma 2": "72f1828839ec44a1c867984bc73ec2a164b835607eb243f278169bae061404c8",
    "rho --m 5 --word S": "6a9cdcad86be986b9618c31a899fa91d671b3c746e1609cac01e862bd62867bb",
    "rho --m 5 --word S --dual": "9a1e9ababe29ddf97b0ddeee9833a4b9e60e03804bae665fa441ce6931b5e63c",
    "rho --m 5 --word \"T' S' T T T Z S'\"": "b9b3769593fec3ba388f61a014dd5da01bc540f607db77f482710463bcfaf875",
    "rho --m 5 --word \"T' S' T T T Z S'\" --dual": "3898e8eb399fbe6b4e6f525ec2e1469bf5403452e8064e644ad2ca59733b35f4",
    # sqrt(24) has multi-term coordinates; "S T S" has s_power 2
    "rho --m 12 --word S": "b57ecf2d39ffe4062c33d04e2fd59e13827e423844f02ce31338da366c3ba712",
    "rho --m 8 --word \"S T S\" --dual": "a97f1fc9bad8e4e3b2b4a641c3aa10381d686b1da490d22d4c6d630531ac8a01",
    "b-entry --m 11 --beta 3 --gamma 8": "22ada2b41a0bd5fe72b315d16be8cbe2fcb19ab256797ce03141fa7bbaf31a77",
    # the numeric reports, at the default 128 bits
    "check-S --builtin theta --points \"i;0.3+1.1i\"": "ca48508d68107255e922fc3aae75d723e6921c82fe586676bb9ce62f48328cc2",
    "fj-check --builtin theta --j 3": "bfc119aba399511e8e1073bcb080892eb1c9f4a1755ef872690a46a19283aff6",
    "eval --builtin theta --points \"i;0.3+1.1i\"": "d84263fd0a5ebd4aca84fa0a4f2cdfa3c05414a58c07b1c22d504356cb4c2635",
    "selftest": "cb9299cc6f81215d93a9ac00269556b0b6f8a17cd2620b0881db24586b9e8ae6",
}


def test_json_report_bytes_pinned(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("WEIL_PRECISION_BITS", raising=False)
    out = tmp_path / "report.json"
    for command, digest in REPORT_DIGESTS.items():
        assert run([*shlex.split(command), "--json", str(out)]) == 0, command
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, command
    capsys.readouterr()


def test_non_finite_points_rejected(tmp_path, capsys):
    phi = tmp_path / "phi.json"
    phi.write_text(dumps(jacobi_to_json(JacobiForm(2, 1, {(1, 1): 1}))))
    out = tmp_path / "report.json"
    for argv in (
        ["eval", "--builtin", "theta", "--points", "nan+1i"],
        ["eval", "--builtin", "theta", "--points", "i;1e400+1i"],
        ["eval", "--in", str(phi), "--z", "1e999"],
        ["check-S", "--builtin", "theta", "--points", "0.1+nani"],
        ["casimir-check", "--in", str(phi), "--tau", "nan+1i"],
        ["casimir-check", "--in", str(phi), "--z", "0.1-1e999i"],
    ):
        assert run([*argv, "--json", str(out)]) == 1, argv
        assert "not a finite complex number" in capsys.readouterr().err
    assert not out.exists()
    # a non-finite coefficient in an input file is refused before any check runs
    bad = tmp_path / "nan.json"
    bad.write_text(dumps(scalar_to_json(theta_expansion(4), 1, 0)).replace('"1"', "NaN", 1))
    assert run(["eval", "--in", str(bad), "--json", str(out)]) == 1
    captured = capsys.readouterr()
    assert "PASS" not in captured.out and "cannot decode nan" in captured.err
    assert not out.exists()
    with pytest.raises(ValueError):
        dumps({"value": [float("nan"), 0.0]})
    with pytest.raises(ValueError):
        dumps({"value": float("inf")})


def _report(path):
    return loads(path.read_text())


def test_eval_scalar_vector_and_jacobi_files(tmp_path, capsys):
    f = theta_expansion(60)
    scalar, vector, jac = (tmp_path / n for n in ("f.json", "F.json", "phi.json"))
    out = tmp_path / "report.json"
    scalar.write_text(dumps(scalar_to_json(f, 1, 0)))
    assert run(["split", "--in", str(scalar), "--out", str(vector)]) == 0
    # theta(i) = sum_x e^(-2 pi x^2), Jacobi's theta_3 at nome e^(-2 pi)
    theta_i = float(mpmath.jtheta(3, 0, mpmath.exp(-2 * mpmath.pi)))
    assert run(["eval", "--in", str(scalar), "--points", "i", "--json", str(out)]) == 0
    (value,) = _report(out)["result"]["values"]
    assert value["value"][0] == pytest.approx(theta_i, rel=1e-14)
    assert value["value"][1] == 0.0
    # the components at 4 tau sum back to theta(tau)
    assert run(["eval", "--in", str(vector), "--points", "4i", "--json", str(out)]) == 0
    report = _report(out)
    assert report["parameters"]["kind"] == "vector"
    (value,) = report["result"]["values"]
    assert sorted(value["value"]) == ["0", "1"]
    total = sum(complex(*v) for v in value["value"].values())
    assert total == pytest.approx(theta_i, rel=1e-14)
    # sum over odd r of q^((r^2 - 1)/4) at tau = i, z = 0
    jac.write_text(dumps(jacobi_to_json(JacobiForm(2, 1, {(1, 1): 1}))))
    want = complex(mpmath.exp(mpmath.pi / 2) * mpmath.jtheta(2, 0, mpmath.exp(-2 * mpmath.pi)))
    assert run(["eval", "--in", str(jac), "--json", str(out)]) == 0
    (value,) = _report(out)["result"]["values"]
    assert value["z"] == "0j"
    assert complex(*value["value"]) == pytest.approx(want, rel=1e-14)
    capsys.readouterr()


def test_fj_check_builtin_theta(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert run(["fj-check", "--builtin", "theta", "--j", "3", "--json", str(out)]) == 0
    (check,) = _report(out)["checks"]
    assert check["name"] == "fj-transform(j=3)" and check["pass"] is True
    assert check["deviation"] <= check["tolerance"]
    assert run(["fj-check", "--builtin", "theta", "--j", "2"]) == 1
    capsys.readouterr()


def test_casimir_check_stored_jacobi(tmp_path, capsys):
    out = tmp_path / "report.json"
    for phi in (JacobiForm(2, 1, {(1, 1): 1}), JacobiForm(2, 1, {}, {(4, 0): 1})):
        src = tmp_path / "phi.json"
        src.write_text(dumps(jacobi_to_json(phi)))
        argv = ["casimir-check", "--in", str(src), "--tau", "0.13+1.05i",
                "--z", "0.06+0.02i", "--json", str(out)]
        assert run(argv) == 0
        report = _report(out)
        (check,) = report["checks"]
        assert check["name"] == "reduced-casimir" and check["pass"] is True
        assert abs(complex(*report["result"]["value"])) == check["deviation"] < 1e-4
    capsys.readouterr()


def test_casimir_check_passes_on_quadratic_convergence(tmp_path, capsys):
    # a principal part makes the O(h^2) stencil error large in absolute
    # terms: |residual| is about 7.8e7 at h = 1e-3 yet falls 4x per halving
    src, out = tmp_path / "phi.json", tmp_path / "report.json"
    src.write_text(dumps(jacobi_to_json(random_jacobi_form(2, 3, random.Random(7)))))
    assert run(["casimir-check", "--in", str(src), "--json", str(out)]) == 0
    (check,) = _report(out)["checks"]
    assert check["pass"] is True and check["deviation"] > 1e7 > check["tolerance"]
    assert 3.99 < check["halving_ratio"] < 4.01
    assert check["half_step_deviation"] == pytest.approx(
        check["deviation"] / check["halving_ratio"], rel=1e-12)
    capsys.readouterr()


def test_check_S_stored_vector(tmp_path, capsys):
    src, vec = tmp_path / "theta.json", tmp_path / "vector.json"
    out = tmp_path / "report.json"
    src.write_text(dumps(scalar_to_json(theta_expansion(400), 1, 0)))
    assert run(["split", "--in", str(src), "--out", str(vec)]) == 0
    assert run(["check-S", "--in", str(vec), "--points", "i;0.2+1.1i",
                "--json", str(out)]) == 0
    (check,) = _report(out)["checks"]
    assert check["name"] == "S-transform" and check["pass"] is True
    # a corrupted component breaks the transformation law
    data = loads(vec.read_text())
    data["coeffs"][0]["c_plus"] = "3"
    vec.write_text(dumps(data))
    assert run(["check-S", "--in", str(vec)]) == 2
    capsys.readouterr()
