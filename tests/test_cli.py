import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
import tracemalloc
from fractions import Fraction
from itertools import product as iproduct
from operator import itemgetter
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ncprob import cumulant_calculus, nc_lattice, verification
from ncprob.cli import main
from ncprob.moment_space import (
    all_words,
    cumulant_table_from_json,
    factor_state_from_json,
    word_text,
)
from ncprob.nc_lattice import catalan
from ncprob.scalar import ONE, ComplexRational

from conftest import SPECS, random_factor_state
from nc_oracles import enumerate_nc_by_rgs


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


def printed_nc(n):
    """The stdout of ``nc n`` in each format, printed whole from the oracle
    enumeration, as the command printed it before it streamed."""
    texts = [str(p) for p in enumerate_nc_by_rgs(n)]
    payload = {"count": len(texts), "n": n, "partitions": texts}
    return {
        "json": json.dumps(payload, sort_keys=True, indent=2) + "\n",
        "table": "\n".join(texts) + "\n",
    }


@pytest.mark.parametrize("n", range(1, 13))
def test_nc_streams_the_bytes_printed_whole(capsys, n):
    for output, expected in printed_nc(n).items():
        assert run(capsys, ["nc", n, "--output", output]) == (0, expected, "")


@pytest.mark.parametrize("size", [1, 3])
def test_nc_bytes_do_not_depend_on_the_batch_size(capsys, monkeypatch, size):
    # Catalan(1..6) = 1, 2, 5, 14, 42, 132: batches of 1 end at every text,
    # and batches of 3 end short (n <= 4) or exactly on the last text (n >= 5).
    monkeypatch.setattr(nc_lattice, "NC_BATCH", size)
    for n in range(1, 7):
        for output, expected in printed_nc(n).items():
            assert run(capsys, ["nc", n, "--output", output]) == (0, expected, "")


@pytest.mark.parametrize("output", ["json", "table"])
def test_nc_at_the_cap_holds_no_list_of_all_texts(monkeypatch, output):
    # Printed whole, nc 12 peaks at 46 MB of traced allocations (json) and
    # 32 MB (table); streamed in batches, at about 1 MB.
    main(["nc", "1"])  # imports done before tracing
    with open(os.devnull, "w") as sink:
        monkeypatch.setattr(sys, "stdout", sink)
        tracemalloc.start()
        try:
            assert main(["nc", "12", "--output", output]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 8 * 2**20


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
    assert json.loads(out)["factor"] == "A1"
    back = tmp_path / "back.json"
    back.write_text(out)  # the printed table, as printed
    code, out2, _ = run(capsys, ["moments", "--from-cumulants", back])
    assert code == 0
    reconstructed = json.loads(out2)["moments"]
    for word, value in factor_spec["moments"].items():
        assert ComplexRational.parse(reconstructed[word]) == ComplexRational.parse(value)


def test_two_generator_table_round_trip(tmp_path, capsys):
    # A selfadjoint a beside a non-selfadjoint u at N = 3: moments -> cumulants
    # -> moments gives back every entry, w* always conj(w), self-star real.
    flip = {"a": "a", "u": "u*", "u*": "u"}
    moments = {}
    for n in range(1, 4):
        for k, word in enumerate(iproduct(("a", "u", "u*"), repeat=n)):
            star = " ".join(flip[t] for t in reversed(word))
            if star not in moments:
                im = 0 if star == " ".join(word) else Fraction(n, k + 2)
                value = ComplexRational(Fraction(k - 4, n + 1), im)
                moments[" ".join(word)] = str(value)
                moments[star] = str(value.conjugate())
    spec = {"factor": "A", "degree_bound": 3,
            "generators": [{"name": "a", "selfadjoint": True}, {"name": "u"}],
            "moments": moments}
    src = tmp_path / "factor.json"
    src.write_text(json.dumps(spec))
    code, out, _ = run(capsys, ["cumulants", "--from-moments", src])
    assert code == 0
    back = tmp_path / "back.json"
    back.write_text(json.dumps({**spec, "cumulants": json.loads(out)["cumulants"]}))
    code, out, _ = run(capsys, ["moments", "--from-cumulants", back])
    assert code == 0
    assert json.loads(out) == {
        "factor": "A", "degree_bound": 3, "moments": moments,
        "generators": [{"name": "a", "selfadjoint": True},
                       {"name": "u", "selfadjoint": False}],
    }


def two_generator_factor(generators):
    """A factor with selfadjoint a and b at N = 4, generators listed in the
    given order; phi(w) depends on the word alone, so every listing is one
    state, and phi(w*) = phi(w) by symmetry under reversal."""
    moments = {}
    for n in range(1, 5):
        for word in iproduct("ab", repeat=n):
            turns = sum(x != y for x, y in zip(word, word[1:]))
            moments[" ".join(word)] = str(Fraction(word.count("a") - turns, n + 1))
    return {"factor": "A", "degree_bound": 4, "moments": moments,
            "generators": [{"name": g, "selfadjoint": True} for g in generators]}


@pytest.mark.parametrize("output", ["json", "table"])
def test_factor_tables_do_not_depend_on_the_generator_order(tmp_path, capsys, output):
    # The table walk takes the letters in spec order, and all_words sorted
    # them: both listings print the same cumulants, and the same moments back.
    printed = {}
    for generators in (["a", "b"], ["b", "a"]):
        spec = two_generator_factor(generators)
        src = tmp_path / "moments.json"
        src.write_text(json.dumps(spec))
        code, kappas, err = run(capsys, ["cumulants", "--from-moments", src])
        assert (code, err) == (0, "")
        _, table, _ = run(capsys, ["cumulants", "--from-moments", src, "--output", output])
        del spec["moments"]
        src.write_text(json.dumps({**spec, "cumulants": json.loads(kappas)["cumulants"]}))
        argv = ["moments", "--from-cumulants", src, "--output", output]
        code, moments, err = run(capsys, argv)
        assert (code, err) == (0, "")
        printed[tuple(generators)] = table, moments
    assert printed[("a", "b")] == printed[("b", "a")]
    assert all("b a b a" in text for text in printed[("a", "b")])


GOLDEN_INPUTS = Path(__file__).resolve().parent / "golden" / "inputs"
# The command that reads a factor table under one key is named after the
# other key, and prints its table under that key.
OTHER_KEY = {"moments": "cumulants", "cumulants": "moments"}


def cli_stdout(argv):
    """The stdout of one CLI run that exits 0, in process and without
    ``capsys``, so a hypothesis test can call it."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main([str(a) for a in argv]) == 0
    return out.getvalue()


def round_trip(src, printed, key):
    """Feed the stdout of the command that reads the ``key`` table in ``src``
    unedited to the other command, through the file ``printed``, and return
    the other command's parsed stdout."""
    other = OTHER_KEY[key]
    printed.write_text(cli_stdout([other, f"--from-{key}", src]))
    return json.loads(cli_stdout([key, f"--from-{other}", printed]))


def table_entries(obj, key):
    """A factor table's value on every word of order 1..N, w* filled in from w."""
    if key == "cumulants":  # the loader refuses a table without every word
        return cumulant_table_from_json(obj)[3]
    state = factor_state_from_json(obj)
    return {w: state.phi_word(w) for w in all_words(state.letters(), state.degree_bound) if w}


@pytest.mark.parametrize("name, key", [
    ("factor_u.json", "moments"), ("haar_u_6.json", "moments"), ("not_psd.json", "moments"),
    ("cumulants_u.json", "cumulants"), ("haar_u_6_cumulants.json", "cumulants"),
])
def test_a_printed_factor_table_is_the_other_commands_input(tmp_path, name, key):
    # The stdout of one command, fed to the other, gives back the input's
    # table, compared as parsed tables.
    src = GOLDEN_INPUTS / name
    back = round_trip(src, tmp_path / "printed.json", key)
    assert table_entries(back, key) == table_entries(json.loads(src.read_text()), key)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), degree_bound=st.integers(1, 3),
       names=st.permutations(["a", "u"]))
def test_random_factor_tables_round_trip_through_the_printed_table(seed, degree_bound, names):
    # One random star-consistent table over a selfadjoint a and a
    # non-selfadjoint u, read once as moments and once as cumulants: the
    # table printed from it, fed back, prints it again, with the generators
    # sorted by name whatever order the input lists them in.
    state = random_factor_state(
        random.Random(seed), "A", tuple(names), degree_bound,
        selfadjoint=tuple(n == "a" for n in names),
    )
    table = {word_text(w): str(state.phi_word(w))
             for w in all_words(state.letters(), degree_bound) if w}
    generators = [{"name": g.name, "selfadjoint": g.selfadjoint} for g in state.generators]
    spec = {"factor": "A", "degree_bound": degree_bound, "generators": generators}
    with tempfile.TemporaryDirectory() as tmp:
        src, printed = Path(tmp, "table.json"), Path(tmp, "printed.json")
        for key in OTHER_KEY:
            src.write_text(json.dumps({**spec, key: table}))
            assert round_trip(src, printed, key) == {
                **spec, key: table, "generators": sorted(generators, key=itemgetter("name")),
            }


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


def test_verify_positivity_basis_order_does_not_depend_on_the_means(tmp_path, capsys):
    # One factor of selfadjoint a and b, N = 2: the basis is 1, a°, b° with
    # either mean the larger.
    spec = tmp_path / "spec.json"
    for mean_a, mean_b in [("1/2", "1/3"), ("1/3", "1/2")]:
        spec.write_text(json.dumps({
            "factor": "A", "degree_bound": 2,
            "generators": [{"name": n, "selfadjoint": True} for n in ("a", "b")],
            "moments": {"a": mean_a, "b": mean_b, "a a": "1", "a b": "0", "b b": "1"},
        }))
        code, out, _ = run(
            capsys, ["verify", "--spec", spec, "--max-degree", "1", "--mode", "positivity"]
        )
        assert code == 0
        assert json.loads(out)["positivity"]["basis"] == [
            "1", f"[(-{mean_a}) 1 + (1) a]@A", f"[(-{mean_b}) 1 + (1) b]@A",
        ]


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
    assert err == f"error: need at least one {key[:-1]}, got none\n"


@pytest.mark.parametrize("word, order", [("1", 0), ("a a a", 3)], ids=["order-0", "order-3"])
def test_cumulant_table_refuses_a_word_outside_its_orders(tmp_path, word, order):
    # Order 0 and a word past the degree bound used to be dropped silently.
    spec = {"factor": "A", "degree_bound": 2,
            "generators": [{"name": "a", "selfadjoint": True}],
            "cumulants": {"a": "0", "a a": "1", word: "1"}}
    src = tmp_path / "cumulants.json"
    src.write_text(json.dumps(spec))
    proc = run_process(["moments", "--from-cumulants", str(src)], timeout=30)
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", (
        f"error: cumulant word {word!r} has order {order}, "
        "outside 1..2 of factor 'A'\n"
    ))


def test_cumulant_table_missing_a_word_is_refused_at_load(monkeypatch, tmp_path, capsys):
    # Every word over u, u* of order 1..8 but u*^8: the table is refused as
    # it is read, before a single moment is computed, as a moment table is.
    words = [()]
    table = {}
    for _ in range(8):
        words = [w + (l,) for w in words for l in ("u", "u*")]
        table.update({" ".join(w): "1" for w in words})
    missing = " ".join(["u*"] * 8)
    del table[missing]
    spec = {"factor": "A", "degree_bound": 8,
            "generators": [{"name": "u", "selfadjoint": False}], "cumulants": table}
    src = tmp_path / "cumulants.json"
    src.write_text(json.dumps(spec))
    expected = f"error: factor 'A': missing cumulant for word {missing!r} (degree bound 8)\n"
    proc = run_process(["moments", "--from-cumulants", str(src)], timeout=30)
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", expected)

    def fail(*args):
        raise AssertionError("computed before the table was checked")

    monkeypatch.setattr(cumulant_calculus, "first_block_moment", fail)
    assert run(capsys, ["moments", "--from-cumulants", src]) == (2, "", expected)


def test_star_inconsistent_cumulant_table_is_refused(tmp_path, capsys):
    # kappa(u*) must be conj kappa(u): from these values the table would print
    # phi(u) = 1 and phi(u*) = 5, which no moment table accepts.
    spec = {"factor": "A", "degree_bound": 1,
            "generators": [{"name": "u", "selfadjoint": False}],
            "cumulants": {"u": "1", "u*": "5"}}
    src = tmp_path / "cumulants.json"
    src.write_text(json.dumps(spec))
    assert run(capsys, ["moments", "--from-cumulants", src]) == (2, "", (
        "error: factor 'A': kappa('u*') = 5 is not the conjugate of kappa('u') = 1\n"
    ))


def test_moment_of_the_unit_must_be_one(tmp_path, capsys):
    spec = {"factor": "A", "degree_bound": 1,
            "generators": [{"name": "a", "selfadjoint": True}],
            "moments": {"1": "2", "a": "0"}}
    src = tmp_path / "moments.json"
    src.write_text(json.dumps(spec))
    assert run(capsys, ["cumulants", "--from-moments", src]) == (
        2, "", "error: factor 'A': phi(1) must be 1\n"
    )


SEMICIRCLE_A = {"factor": "A", "degree_bound": 1,
                "generators": [{"name": "a", "selfadjoint": True}], "moments": {"a": "0"}}


@pytest.mark.parametrize("spec, word, message", [
    (SEMICIRCLE_A, "", "empty word"),
    ({**SEMICIRCLE_A, "moments": {"a": "0", "": "1"}}, "a", "empty word text ''"),
    ([1, 2], "a", "factor spec must be a JSON object"),
    ({**SEMICIRCLE_A, "generators": [{"name": "a b"}]}, "a", "bad generator name 'a b'"),
    ({**SEMICIRCLE_A, "generators": [{"name": "a", "selfadjoint": True}] * 2}, "a",
     "duplicate generator names in factor 'A'"),
    ({**SEMICIRCLE_A, "generators": [], "moments": {}}, "a", "factor 'A' has no generators"),
    ({"degree_bound": 1, "factors": [SEMICIRCLE_A, {
        **SEMICIRCLE_A, "generators": [{"name": "b", "selfadjoint": True}],
        "moments": {"b": "0"}}]}, "a", "duplicate factor indices in ['A', 'A']"),
], ids=["empty-word", "empty-key", "not-an-object", "bad-name", "duplicate-names",
        "no-generators", "duplicate-index"])
def test_malformed_product_eval_input_is_one_error_line(tmp_path, capsys, spec, word, message):
    src = tmp_path / "spec.json"
    src.write_text(json.dumps(spec))
    assert run(capsys, ["product-eval", "--spec", src, "--word", word]) == (
        2, "", f"error: {message}\n"
    )


@pytest.mark.parametrize("generators, table, message", [
    ([], {}, "factor 'A' has no generators"),
    ([{"name": "a", "selfadjoint": True}] * 2, {"a": "0"},
     "duplicate generator names in factor 'A'"),
    ([], {"a": "0"}, "factor 'A' has no generators"),
    (None, {"a": "0"}, "factor spec missing key 'generators'"),
], ids=["no-generators", "duplicate-names", "no-generators-before-an-unknown-letter",
        "no-generators-key"])
@pytest.mark.parametrize("command,key", [
    ("cumulants", "moments"), ("moments", "cumulants"),
])
def test_factor_spec_commands_refuse_the_same_generator_lists(
    tmp_path, capsys, generators, table, message, command, key
):
    # A moment spec and the same spec given by cumulants go through one
    # generator-list check, before any word is read, so both commands
    # refuse with one error line.  An object-valued table makes a factor
    # table, so one without the generators key is refused as a factor table.
    spec = {"factor": "A", "degree_bound": 1, "generators": generators, key: table}
    if generators is None:
        del spec["generators"]
    src = tmp_path / "spec.json"
    src.write_text(json.dumps(spec))
    assert run(capsys, [command, f"--from-{key}", src]) == (2, "", f"error: {message}\n")


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


def process_env():
    package_root = Path(__file__).resolve().parent.parent / "src"
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(package_root), os.environ.get("PYTHONPATH", "")]
    )}


def run_process(argv, timeout, cwd=None):
    # A separate process, so a hang is cut by the timeout and a traceback
    # shows on stderr.
    return subprocess.run(
        [sys.executable, "-m", "ncprob.cli", *argv],
        capture_output=True, text=True, env=process_env(), timeout=timeout, cwd=cwd,
    )


def test_nc_into_a_closed_pipe_is_status_2():
    # ``ncprob nc 12 | head -c 100``: the reader leaves after 100 bytes.
    proc = subprocess.Popen(
        [sys.executable, "-m", "ncprob.cli", "nc", "12"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=process_env(),
    )
    head = proc.stdout.read(100)
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 2
    assert head.startswith(b'{\n  "count": 208012,')
    assert err == "error: cannot write output: Broken pipe\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("n", [3, 12])
def test_nc_into_a_full_disk_is_status_2(n):
    # ``ncprob nc n > /dev/full``.  With stdout buffered, nc 3 fits in the
    # buffer and fails only when it is flushed.
    env = process_env()
    env.pop("PYTHONUNBUFFERED", None)
    with open("/dev/full", "wb") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "ncprob.cli", "nc", str(n)],
            stdout=full, stderr=subprocess.PIPE, env=env, timeout=60,
        )
    assert proc.returncode == 2
    assert proc.stderr.decode() == "error: cannot write output: No space left on device\n"


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


SEQUENCE_MODULES = {"cumulant_calculus", "nc_lattice", "scalar"}
FACTOR_MODULES = SEQUENCE_MODULES | {"moment_space"}
SEQUENCE = str(SPECS / "semicircle_std.json")
COMMAND_MODULES = {
    "nc": (["nc", "7"], {"nc_lattice"}),
    "moebius": (["moebius", "3", "{1}{2}{3}", "{1,2,3}"], {"nc_lattice", "scalar"}),
    "cumulants-sequence": (["cumulants", "--from-moments", SEQUENCE], SEQUENCE_MODULES),
    "cumulants-factor": (
        ["cumulants", "--from-moments", str(GOLDEN_INPUTS / "factor_u.json")],
        FACTOR_MODULES,
    ),
    "moments-sequence": (
        ["moments", "--from-cumulants", "cumulants.json"],  # written by the test
        SEQUENCE_MODULES,
    ),
    "moments-factor": (
        ["moments", "--from-cumulants", str(GOLDEN_INPUTS / "cumulants_u.json")],
        FACTOR_MODULES,
    ),
    "convolve": (["convolve", SEQUENCE, SEQUENCE], SEQUENCE_MODULES),
    "product-eval": (
        ["product-eval", "--spec", str(SPECS / "two_semicircles.json"), "--word", "a b a b"],
        FACTOR_MODULES | {"free_product"},
    ),
    "verify": (
        ["verify", "--spec", str(SPECS / "two_semicircles.json"), "--max-degree", "2"],
        FACTOR_MODULES | {"free_product", "verification"},
    ),
}


@pytest.mark.parametrize("argv, modules", COMMAND_MODULES.values(), ids=COMMAND_MODULES)
def test_each_command_loads_only_the_modules_it_runs(monkeypatch, tmp_path, argv, modules):
    # Every command loads the exception types and the value-type base besides
    # its own modules, and none loads dataclasses or the inspect module it
    # would bring along.  Only a factor spec loads the word layer.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cumulants.json").write_text(json.dumps({"cumulants": ["0", "1"]}))
    monkeypatch.setenv("PYTHONPROFILEIMPORTTIME", "1")
    proc = run_process(argv, timeout=30)
    assert proc.returncode == 0 and proc.stdout
    imported = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()}
    library = {m.removeprefix("ncprob.") for m in imported if m.startswith("ncprob.")}
    assert library == modules | {"errors", "value"}
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


@pytest.mark.parametrize("n", [-1, 0])
def test_moebius_n_below_one_is_refused_before_the_partitions(capsys, n):
    for sigma in ("{1}", "not a partition"):
        code, out, err = run(capsys, ["moebius", n, sigma, "{1}"])
        assert (code, out, err) == (2, "", f"error: n must be positive, got {n}\n")


def test_moebius_is_not_capped_at_12(capsys):
    # The closed form needs no enumeration, so n = 13 is served.
    code, out, _ = run(capsys, ["moebius", "13", *bottom_and_top(13)])
    assert code == 0
    assert json.loads(out)["moebius"] == catalan(12)


def test_moebius_of_a_large_interval(capsys):
    code, out, _ = run(capsys, ["moebius", "2000", *bottom_and_top(2000)])
    assert code == 0
    assert json.loads(out)["moebius"] == -catalan(1999)


# -- CLI fuzz -------------------------------------------------------------------


def fuzz_factor(index, name, selfadjoint, degree_bound, key):
    """A valid one-generator factor spec: a standard semicircle or a Haar
    unitary (phi(w) = 1 iff w has as many u as u*) by its moments, or, with
    ``key`` "cumulants", the same laws by their cumulants (kappa_2 alone)."""
    letters = [name] if selfadjoint else [name, name + "*"]
    table = {}
    for k in range(1, degree_bound + 1):
        for tup in iproduct(letters, repeat=k):
            if key == "cumulants":
                value = int(k == 2 and (selfadjoint or tup[0] != tup[1]))
            elif selfadjoint:
                value = 0 if k % 2 else catalan(k // 2)
            else:
                value = int(tup.count(name) == tup.count(name + "*"))
            table[" ".join(tup)] = str(value)
    return {"factor": index, "degree_bound": degree_bound,
            "generators": [{"name": name, "selfadjoint": selfadjoint}], key: table}


FUZZ_COMMANDS = ("nc", "moebius", "cumulants", "moments", "product-eval",
                 "convolve", "verify")


@st.composite
def valid_cli_input(draw, command):
    """Input files (name -> JSON object) and argv for ``command``: product specs
    have one or two factors and a degree bound N <= 3."""
    n = draw(st.integers(1, 3))
    sequence = st.lists(st.integers(-2, 2).map(str), min_size=n, max_size=n)
    files = {}
    if command == "nc":
        argv = ["nc", str(draw(st.integers(1, 7)))]
    elif command == "moebius":
        size = draw(st.integers(1, 4))
        argv = ["moebius", str(size), *bottom_and_top(size)]
    elif command in ("cumulants", "moments"):
        key = "moments" if command == "cumulants" else "cumulants"
        if draw(st.booleans()):
            files["in.json"] = fuzz_factor("A", "u", draw(st.booleans()), n, key)
        else:
            files["in.json"] = {key: draw(sequence)}
        argv = [command, f"--from-{key}", "in.json"]
    elif command == "convolve":
        files["x.json"] = {"moments": draw(sequence)}
        files["y.json"] = {"moments": draw(sequence)}
        argv = ["convolve", "x.json", "y.json"]
    else:
        factors = [fuzz_factor("A1", "u", draw(st.booleans()), n, "moments")]
        if draw(st.booleans()):
            factors.append(fuzz_factor("A2", "b", True, n, "moments"))
        files["spec.json"] = {"degree_bound": n, "factors": factors}
        if command == "product-eval":
            letters = st.sampled_from(["u", "u*", "b"][: len(factors) + 1])
            word = " ".join(draw(st.lists(letters, min_size=1, max_size=n)))
            argv = ["product-eval", "--spec", "spec.json", "--word", word]
        else:
            mode = draw(st.sampled_from(["moments", "cumulants", "both", "positivity"]))
            degree = draw(st.integers(0, n // 2 if mode == "positivity" else n))
            argv = ["verify", "--spec", "spec.json", "--max-degree", str(degree),
                    "--mode", mode]
    if draw(st.booleans()):
        argv += ["--output", "table"]
    return files, argv


def json_entries(obj):
    """(container, key) of every entry of a JSON object, nested ones too."""
    pairs = enumerate(obj) if isinstance(obj, list) else obj.items()
    for key, value in list(pairs):
        yield obj, key
        if isinstance(value, (dict, list)):
            yield from json_entries(value)


@st.composite
def mutated_cli_input(draw, command):
    """``valid_cli_input`` with one mutation: a key dropped, a value of another
    type, a corrupted scalar or word string, another degree bound, or another
    number or flag in argv."""
    files, argv = draw(valid_cli_input(command))
    kind = draw(st.sampled_from(
        ["drop", "retype", "corrupt", "bound", "argv"] if files else ["argv"]
    ))
    if kind == "argv":
        spots = [i for i, a in enumerate(argv) if a.isdigit() or a.startswith("--")]
        argv[draw(st.sampled_from(spots))] = draw(st.sampled_from(
            ["-1", "0", "13", "x", "2.5", "", "--bogus", "--output=xml"]
        ))
        return files, argv
    obj = files[draw(st.sampled_from(sorted(files)))]
    entries = list(json_entries(obj))
    if kind == "drop":
        container, key = draw(st.sampled_from(entries))
        del container[key]
    elif kind == "retype":
        container, key = draw(st.sampled_from(entries))
        container[key] = draw(st.sampled_from([None, 0, 1.5, True, "x", [], {}]))
    elif kind == "corrupt":
        texts = [(c, k) for c, k in entries if isinstance(c[k], str)]
        words = [(c, k) for c, k in entries if isinstance(c, dict) and " " in k]
        container, key = draw(st.sampled_from(texts + words or entries))
        bad = draw(st.sampled_from(["", "1/0", "1e5000", "x", "1/2+i", "u**", "1"]))
        if (container, key) in words and draw(st.booleans()):
            container[bad] = container.pop(key)
        else:
            container[key] = bad
    else:
        bound = draw(st.sampled_from([0, -1, 4, 13, "2", True, 2.5]))
        bounds = [(c, k) for c, k in entries if k == "degree_bound"]
        for container, key in bounds:
            container[key] = bound
        if not bounds:  # a sequence file: its length is its bound
            values = next(v for v in obj.values() if isinstance(v, list))
            values[:] = values[:1] * (bound if isinstance(bound, int) else 0)
    return files, argv


@pytest.mark.parametrize("command", FUZZ_COMMANDS)
@settings(derandomize=True, max_examples=4, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_mutated_cli_input_exits_0_1_or_2_without_a_traceback(command, data):
    # Seven commands, four examples each.  Exit 0 prints nothing on stderr.
    files, argv = data.draw(mutated_cli_input(command))
    with tempfile.TemporaryDirectory() as tmp:
        for name, obj in files.items():
            Path(tmp, name).write_text(json.dumps(obj))
        proc = run_process(argv, timeout=30, cwd=tmp)
    assert proc.returncode in (0, 1, 2), (argv, files, proc.stderr)
    assert "Traceback" not in proc.stderr, (argv, files, proc.stderr)
    if proc.returncode == 0:
        assert proc.stderr == ""
