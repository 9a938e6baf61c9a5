import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ncprob import catalan, verification
from ncprob.cli import main
from ncprob.scalar import ONE

from conftest import SPECS


def run(capsys, argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_nc_table(capsys):
    code, out, _ = run(capsys, ["nc", "3", "--output", "table"])
    assert code == 0
    assert out.splitlines() == [
        "{1,2,3}",
        "{1,2}{3}",
        "{1,3}{2}",
        "{1}{2,3}",
        "{1}{2}{3}",
    ]


def test_nc_json_deterministic(capsys):
    code, out1, _ = run(capsys, ["nc", "4"])
    assert code == 0
    assert json.loads(out1)["count"] == 14
    _, out2, _ = run(capsys, ["nc", "4"])
    assert out1 == out2


def test_nc_out_of_range(capsys):
    code, _, err = run(capsys, ["nc", "0"])
    assert code == 2
    assert "error:" in err


def test_moebius(capsys):
    code, out, _ = run(
        capsys, ["moebius", "4", "{1}{2}{3}{4}", "{1,2,3,4}", "--output", "table"]
    )
    assert code == 0
    assert out.strip() == "-5"
    code, _, err = run(capsys, ["moebius", "3", "{1}{2}{3}", "{1,2,3,4}"])
    assert code == 2


def test_scalar_round_trip(tmp_path, capsys):
    src = tmp_path / "moments.json"
    src.write_text(json.dumps({"moments": ["1/2", "1", "0", "2"]}))
    code, out, _ = run(capsys, ["cumulants", "--from-moments", src])
    assert code == 0
    cum = tmp_path / "cumulants.json"
    cum.write_text(out)
    code, out2, _ = run(capsys, ["moments", "--from-cumulants", cum])
    assert code == 0
    assert json.loads(out2)["moments"] == ["1/2", "1", "0", "2"]


def test_joint_table_round_trip(tmp_path, capsys):
    factor_spec = {
        "factor": "A1",
        "degree_bound": 3,
        "generators": [{"name": "u", "selfadjoint": False}],
        "moments": {
            "u": "1/2+1/3 i", "u u": "i", "u u*": "1", "u* u": "2",
            "u u u": "0", "u u u*": "0", "u u* u": "1/5", "u* u u": "0",
            "u u* u*": "0", "u* u u*": "1/5", "u* u* u": "0", "u* u* u*": "0",
        },
    }
    src = tmp_path / "factor.json"
    src.write_text(json.dumps(factor_spec))
    code, out, _ = run(capsys, ["cumulants", "--from-moments", src])
    assert code == 0
    table = json.loads(out)
    assert table["factor"] == "A1"
    back_spec = dict(factor_spec)
    back_spec["cumulants"] = table["cumulants"]
    back = tmp_path / "back.json"
    back.write_text(json.dumps(back_spec))
    code, out2, _ = run(capsys, ["moments", "--from-cumulants", back])
    assert code == 0
    reconstructed = json.loads(out2)["moments"]
    for word, value in factor_spec["moments"].items():
        from ncprob import ComplexRational

        assert ComplexRational.parse(reconstructed[word]) == ComplexRational.parse(value)


def test_product_eval(capsys):
    spec = SPECS / "two_semicircles.json"
    code, out, _ = run(
        capsys, ["product-eval", "--spec", spec, "--word", "a b a b", "--output", "table"]
    )
    assert code == 0
    assert out.strip() == "0"
    code, out, _ = run(capsys, ["product-eval", "--spec", spec, "--word", "a a b b"])
    assert code == 0
    assert json.loads(out)["value"] == "1"
    code, _, err = run(capsys, ["product-eval", "--spec", spec, "--word", "a z"])
    assert code == 2


def test_convolve(capsys):
    semi = SPECS / "semicircle_std.json"
    code, out, _ = run(capsys, ["convolve", semi, semi])
    assert code == 0
    assert json.loads(out)["moments"] == ["0", "2", "0", "8", "0", "40"]
    bern = SPECS / "bernoulli_pm1.json"
    code, out, _ = run(capsys, ["convolve", bern, bern])
    assert code == 0
    assert json.loads(out)["moments"] == ["0", "2", "0", "6"]


def test_verify_clean_space(capsys):
    spec = SPECS / "two_semicircles.json"
    code, out, _ = run(
        capsys, ["verify", "--spec", spec, "--max-degree", "4", "--mode", "both"]
    )
    assert code == 0
    reports = json.loads(out)["reports"]
    assert [r["mode"] for r in reports] == ["moments", "cumulants"]
    assert all(r["violations"] == [] for r in reports)
    # byte-identical across runs
    _, out2, _ = run(
        capsys, ["verify", "--spec", spec, "--max-degree", "4", "--mode", "both"]
    )
    assert out == out2


def test_verify_positivity_modes(tmp_path, capsys):
    spec = SPECS / "two_semicircles.json"
    code, out, _ = run(
        capsys, ["verify", "--spec", spec, "--max-degree", "2", "--mode", "positivity"]
    )
    assert code == 0
    assert json.loads(out)["positivity"]["psd"] is True

    bad = {
        "factor": "F",
        "degree_bound": 2,
        "generators": [{"name": "g", "selfadjoint": True}],
        "moments": {"g": "0", "g g": "-1"},
    }
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps(bad))
    code, out, _ = run(
        capsys,
        ["verify", "--spec", bad_path, "--max-degree", "1", "--mode", "positivity"],
    )
    assert code == 1
    payload = json.loads(out)["positivity"]
    assert payload["psd"] is False
    assert payload["witness"] is not None


def test_verify_schur_inconsistent_is_status_1(monkeypatch, capsys):
    # A wrong factor kappa_2 breaks only the Lemma-3 side check: the Gram is
    # still PSD, and verify reports the inconsistency with status 1.
    exact = verification._factor_kappa2
    monkeypatch.setattr(
        verification, "_factor_kappa2", lambda state, x, y: exact(state, x, y) + ONE
    )
    spec = SPECS / "two_semicircles.json"
    code, out, _ = run(
        capsys, ["verify", "--spec", spec, "--max-degree", "2", "--mode", "positivity"]
    )
    assert code == 1
    payload = json.loads(out)["positivity"]
    assert payload["psd"] is True
    assert payload["schur_consistent"] is False


def test_verify_table_output(capsys):
    spec = SPECS / "two_semicircles.json"
    code, out, _ = run(
        capsys,
        ["verify", "--spec", spec, "--max-degree", "3", "--mode", "moments",
         "--output", "table"],
    )
    assert code == 0
    assert out.startswith("mode=moments")
    assert "violations=0" in out


@pytest.mark.parametrize("mode", ["moments", "cumulants", "both", "positivity"])
def test_verify_negative_degree_is_status_2(capsys, mode):
    spec = SPECS / "two_semicircles.json"
    code, out, err = run(
        capsys, ["verify", "--spec", spec, "--max-degree", "-1", "--mode", mode]
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "Traceback" not in err


def test_bad_json_is_status_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, ["product-eval", "--spec", bad, "--word", "a"])
    assert code == 2
    assert "line" in err  # location reported


def test_missing_file_is_status_2(capsys):
    code, _, err = run(capsys, ["convolve", "/nonexistent/x.json", "/nonexistent/y.json"])
    assert code == 2


def cumulant_table_spec(generators):
    return {
        "factor": "A1",
        "degree_bound": 1,
        "generators": generators,
        "cumulants": {"u": "1/2", "u*": "1/2"},
    }


@pytest.mark.parametrize(
    "generators", [[{"selfadjoint": False}], [{"name": 5}], {"name": "u"}]
)
def test_moments_bad_generator_is_status_2(tmp_path, capsys, generators):
    src = tmp_path / "cumulants.json"
    src.write_text(json.dumps(cumulant_table_spec(generators)))
    code, out, err = run(capsys, ["moments", "--from-cumulants", src])
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "Traceback" not in err


def test_cumulants_non_string_generator_is_status_2(tmp_path, capsys):
    spec = {
        "factor": "A1",
        "degree_bound": 1,
        "generators": [{"name": 5}],
        "moments": {},
    }
    src = tmp_path / "factor.json"
    src.write_text(json.dumps(spec))
    code, _, err = run(capsys, ["cumulants", "--from-moments", src])
    assert code == 2
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("command,key", [
    ("cumulants", "moments"), ("moments", "cumulants"),
])
def test_empty_sequence_needs_one_value(tmp_path, capsys, command, key):
    src = tmp_path / "empty.json"
    src.write_text(json.dumps({key: []}))
    code, _, err = run(capsys, [command, f"--from-{key}", src])
    assert code == 2
    assert "at least one moment" in err


def run_process(argv, timeout):
    # A separate process, so a hang is cut by the timeout and a traceback
    # shows on stderr.
    package_root = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(package_root), os.environ.get("PYTHONPATH", "")]
    )}
    return subprocess.run(
        [sys.executable, "-m", "ncprob.cli", *argv],
        capture_output=True, text=True, env=env, timeout=timeout,
    )


@pytest.mark.parametrize("first", ["1e100000000", "1e5000", "1e3000"])
def test_huge_scalar_is_status_2(tmp_path, first):
    # 1e100000000 used to run for minutes, 1e5000 and 1e3000 (whose kappa_2
    # has ~6,000 digits) failed in str(Fraction).
    src = tmp_path / "moments.json"
    src.write_text(json.dumps({"moments": [first, "1"]}))
    proc = run_process(["cumulants", "--from-moments", str(src)], timeout=10)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) == 1


def bottom_and_top(n):
    """The texts of 0_n and 1_n."""
    elements = [str(k) for k in range(1, n + 1)]
    return "{" + "}{".join(elements) + "}", "{" + ",".join(elements) + "}"


def test_moebius_too_long_to_print_is_status_2():
    # mu(0_n, 1_n) = (-1)^(n-1) Catalan(n-1) has about 4,800 digits at
    # n = 8000.  The pairwise crossing check took 54 s here, and then the
    # JSON printer failed on the int-to-str digit limit with a traceback.
    proc = run_process(["moebius", "8000", *bottom_and_top(8000)], timeout=5)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) == 1


def test_moebius_of_a_large_interval(capsys):
    code, out, _ = run(capsys, ["moebius", "2000", *bottom_and_top(2000)])
    assert code == 0
    assert json.loads(out)["moebius"] == -catalan(1999)
