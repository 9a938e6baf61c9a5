import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ncprob import cumulant_calculus, verification
from ncprob.cli import main
from ncprob.nc_lattice import catalan
from ncprob.scalar import ONE, ComplexRational

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


# SHA-256 of the stdout of ``nc n --output o`` as printed from the restricted-
# growth enumeration (now the oracle ``enumerate_nc_by_rgs``), up to the cap.
NC_STDOUT_SHA256 = {
    (10, "json"): "b2404102969ee4649d7b68b55f9344b39d52acbd0e90a68f5d3c26355e0d6fa7",
    (10, "table"): "a7d7920793c542a22a8d66596c8ed25ae86706a0605dada5e4586b92f7c790f1",
    (11, "json"): "fbbc31aaba26e2621149b00b4c6b7d1465500941e2341c7caf4c295a2f1640d0",
    (11, "table"): "c360fc18fe8ae4f2fd4d2e5adcec412c19382b0e103cf6d6e064845295931d29",
    (12, "json"): "e2ea386336e6d6497e7cbebd9cd1cef6cd2a35845d601e6d05a7865de3cca0b0",
    (12, "table"): "11bae7035f9ab07746c1ee445373d6cbc08506f2150bcba372d752271888110d",
}


@pytest.mark.parametrize("n, output", sorted(NC_STDOUT_SHA256))
def test_nc_stdout_is_pinned_up_to_the_cap(capsys, n, output):
    code, out, err = run(capsys, ["nc", n, "--output", output])
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == NC_STDOUT_SHA256[n, output]


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
    "generators",
    [
        [{"selfadjoint": False}],
        [{"name": 5}],
        {"name": "u"},
        [{"name": "u", "selfadjoint": "false"}],
        [{"name": "1", "selfadjoint": True}],
    ],
)
def test_moments_bad_generator_is_status_2(tmp_path, capsys, generators):
    src = tmp_path / "cumulants.json"
    src.write_text(json.dumps(cumulant_table_spec(generators)))
    code, out, err = run(capsys, ["moments", "--from-cumulants", src])
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("moments", [{"1": "0", "1 1": "1"}, {"1 1": "1"}])
def test_cumulants_generator_named_1_is_status_2(tmp_path, capsys, moments):
    spec = {
        "factor": "A",
        "degree_bound": 2,
        "generators": [{"name": "1", "selfadjoint": True}],
        "moments": moments,
    }
    src = tmp_path / "moments.json"
    src.write_text(json.dumps(spec))
    code, out, err = run(capsys, ["cumulants", "--from-moments", src])
    assert (code, out) == (2, "")
    assert err == "error: bad generator name '1': 1 denotes the identity\n"


def test_product_eval_string_selfadjoint_flag_is_status_2(tmp_path, capsys):
    # "false" is not JSON false: read as true, u* u would evaluate as u u.
    factor = {
        "factor": "A1",
        "degree_bound": 2,
        "generators": [{"name": "u", "selfadjoint": "false"}],
        "moments": {"u": "1/2", "u u": "1/3"},
    }
    src = tmp_path / "product.json"
    src.write_text(json.dumps({"degree_bound": 2, "factors": [factor]}))
    code, out, err = run(capsys, ["product-eval", "--spec", src, "--word", "u* u"])
    assert code == 2
    assert out == ""
    assert "'selfadjoint' must be true or false" in err
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


@pytest.mark.parametrize("command,key", [
    ("cumulants", "moments"), ("moments", "cumulants"),
])
@pytest.mark.parametrize("factor_spec", [False, True], ids=["sequence", "factor"])
def test_over_cap_is_refused_before_any_work(
    monkeypatch, tmp_path, capsys, command, key, factor_spec
):
    # Order 13 is past the cap of 12: the command refuses it before it
    # computes a single cumulant or moment.
    def fail(*args):
        raise AssertionError("computed before the size check")

    for name in ("first_block_cumulant", "first_block_moment", "enumerate_nc"):
        monkeypatch.setattr(cumulant_calculus, name, fail)
    if factor_spec:
        table = {" ".join(["a"] * k): "1" for k in range(1, 14)}
        obj = {"factor": "A", "degree_bound": 13,
               "generators": [{"name": "a", "selfadjoint": True}], key: table}
    else:
        obj = {key: ["1"] * 13}
    src = tmp_path / "over_cap.json"
    src.write_text(json.dumps(obj))
    code, out, err = run(capsys, [command, f"--from-{key}", src])
    assert (code, out, err) == (2, "", "error: n must be within 1..12, got 13\n")


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


@pytest.mark.parametrize("argv, loaded", [
    (["nc", "7"], False),
    (["moebius", "3", "{1}{2}{3}", "{1,2,3}"], False),
    (["cumulants", "--from-moments", str(SPECS / "semicircle_std.json")], False),
    (["verify", "--spec", str(SPECS / "two_semicircles.json"), "--max-degree", "2"], True),
], ids=lambda v: v[0] if isinstance(v, list) else str(v))
def test_only_verify_loads_the_checks(monkeypatch, argv, loaded):
    # Python lists every module it imports on stderr, one per line.
    monkeypatch.setenv("PYTHONPROFILEIMPORTTIME", "1")
    proc = run_process(argv, timeout=30)
    assert proc.returncode == 0 and proc.stdout
    imported = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()}
    assert "ncprob" in imported
    assert ("ncprob.verification" in imported) == loaded


GOLDEN_INPUTS = Path(__file__).resolve().parent / "golden" / "inputs"
SEQUENCE_MODULES = {"cumulant_calculus", "moment_space", "nc_lattice", "scalar"}
COMMAND_MODULES = {
    "nc": {"nc_lattice"},
    "moebius": {"nc_lattice", "scalar"},
    "cumulants": SEQUENCE_MODULES,
    "moments": SEQUENCE_MODULES,
    "convolve": SEQUENCE_MODULES,
    "product-eval": SEQUENCE_MODULES | {"free_product"},
    "verify": SEQUENCE_MODULES | {"free_product", "verification"},
}


@pytest.mark.parametrize("argv", [
    ["nc", "7"],
    ["moebius", "3", "{1}{2}{3}", "{1,2,3}"],
    ["cumulants", "--from-moments", str(SPECS / "semicircle_std.json")],
    ["moments", "--from-cumulants", str(GOLDEN_INPUTS / "cumulants_u.json")],
    ["convolve", str(SPECS / "semicircle_std.json"), str(SPECS / "semicircle_std.json")],
    ["product-eval", "--spec", str(SPECS / "two_semicircles.json"), "--word", "a b a b"],
    ["verify", "--spec", str(SPECS / "two_semicircles.json"), "--max-degree", "2"],
], ids=lambda argv: argv[0])
def test_each_command_loads_only_the_modules_it_runs(monkeypatch, argv):
    # Every command loads the exception types and the value-type base besides
    # its own modules, and none loads dataclasses or the inspect module it
    # would bring along.
    monkeypatch.setenv("PYTHONPROFILEIMPORTTIME", "1")
    proc = run_process(argv, timeout=30)
    assert proc.returncode == 0 and proc.stdout
    imported = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()}
    library = {m.removeprefix("ncprob.") for m in imported if m.startswith("ncprob.")}
    assert library == COMMAND_MODULES[argv[0]] | {"errors", "value"}
    assert not imported & {"dataclasses", "inspect"}


def test_verify_cumulants_past_the_cap_is_status_2(tmp_path, capsys):
    # Order 13 is past the cap of 12, and with two factors it is refused
    # before any mixed cumulant is computed.
    def factor(index, name):
        return {"factor": index, "degree_bound": 13,
                "generators": [{"name": name, "selfadjoint": True}],
                "moments": {" ".join([name] * k): "0" for k in range(1, 14)}}

    spec = {"degree_bound": 13, "factors": [factor("A1", "a"), factor("A2", "b")]}
    src = tmp_path / "spec.json"
    src.write_text(json.dumps(spec))
    argv = ["verify", "--spec", src, "--mode", "cumulants", "--max-degree", "13"]
    code, out, err = run(capsys, argv)
    assert (code, out, err) == (2, "", "error: n must be within 1..12, got 13\n")


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


FILE_COMMANDS = {
    "cumulants": lambda f: ["cumulants", "--from-moments", f],
    "moments": lambda f: ["moments", "--from-cumulants", f],
    "product-eval": lambda f: ["product-eval", "--spec", f, "--word", "a"],
    "convolve": lambda f: ["convolve", f, f],
    "verify": lambda f: ["verify", "--spec", f, "--max-degree", "2"],
}
MALFORMED_FILES = {
    "deeply-nested": ("[" * 100_000 + "]" * 100_000).encode(),
    "not-utf8": bytes([0xFF, 0xFE, 0x7B]),
}


@pytest.mark.parametrize("kind", sorted(MALFORMED_FILES))
@pytest.mark.parametrize("command", sorted(FILE_COMMANDS))
def test_malformed_file_is_status_2(tmp_path, command, kind):
    # Exit 1 is `verify`'s "violation found", so a file that cannot be read
    # as JSON must not escape main with a traceback and status 1.
    src = tmp_path / "spec.json"
    src.write_bytes(MALFORMED_FILES[kind])
    proc = run_process(FILE_COMMANDS[command](str(src)), timeout=10)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith(f"error: {src}:") and "Traceback" not in proc.stderr


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
