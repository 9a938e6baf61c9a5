"""Golden CLI outputs: stdout must stay byte-identical, exit codes identical.

The files under ``tests/golden/`` were captured from the interval-recursion
implementation of the Moebius function, before the closed form replaced it;
the ``verify_positivity_*_u_2`` cases from the Gram route that multiplied
b_s* b_t in the algebra, before entries were read off the concatenated atoms.
To re-capture after an intended output change, run from the repository root:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from ncprob.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
INPUTS = "tests/golden/inputs"
TWO_SEMI = "specs/two_semicircles.json"

CASES = {
    "nc_7": ["nc", "7"],
    "nc_13": ["nc", "13"],
    "moebius_full_5": ["moebius", "5", "{1}{2}{3}{4}{5}", "{1,2,3,4,5}"],
    "moebius_interval_5": ["moebius", "5", "{1}{2}{3}{4}{5}", "{1,2,4}{3}{5}"],
    "moebius_inner_6": ["moebius", "6", "{1}{2,3}{4}{5}{6}", "{1,2,3,6}{4,5}"],
    "moebius_not_below": ["moebius", "3", "{1,2,3}", "{1}{2}{3}"],
    "cumulants_semicircle": ["cumulants", "--from-moments", "specs/semicircle_std.json"],
    "cumulants_bernoulli": ["cumulants", "--from-moments", "specs/bernoulli_pm1.json"],
    "cumulants_factor_u": ["cumulants", "--from-moments", f"{INPUTS}/factor_u.json"],
    "moments_factor_u": ["moments", "--from-cumulants", f"{INPUTS}/cumulants_u.json"],
    "convolve_semicircle": [
        "convolve", "specs/semicircle_std.json", "specs/semicircle_std.json",
    ],
    "convolve_bernoulli": [
        "convolve", "specs/bernoulli_pm1.json", "specs/bernoulli_pm1.json",
    ],
    "product_eval_abab": ["product-eval", "--spec", TWO_SEMI, "--word", "a b a b"],
    "product_eval_a6": ["product-eval", "--spec", TWO_SEMI, "--word", "a a a a a a"],
    "product_eval_aabbab": ["product-eval", "--spec", TWO_SEMI, "--word", "a a b b a b"],
    "product_eval_mixed_u": [
        "product-eval", "--spec", f"{INPUTS}/semicircle_and_u.json",
        "--word", "u a u* a u",
    ],
    "product_eval_truncated": [
        "product-eval", "--spec", f"{INPUTS}/semicircle_and_u.json",
        "--word", "a a a a",
    ],
    "verify_both_4": ["verify", "--spec", TWO_SEMI, "--max-degree", "4", "--mode", "both"],
    "verify_positivity_2": [
        "verify", "--spec", TWO_SEMI, "--max-degree", "2", "--mode", "positivity",
    ],
    "verify_positivity_not_psd": [
        "verify", "--spec", f"{INPUTS}/not_psd.json", "--max-degree", "1",
        "--mode", "positivity",
    ],
    "verify_positivity_haar_u_2": [
        "verify", "--spec", f"{INPUTS}/semicircle_and_haar_u.json", "--max-degree", "2",
        "--mode", "positivity",
    ],
    "verify_positivity_not_psd_u_2": [
        "verify", "--spec", f"{INPUTS}/not_psd_u.json", "--max-degree", "2",
        "--mode", "positivity",
    ],
    "verify_table_3": [
        "verify", "--spec", f"{INPUTS}/semicircle_and_u.json", "--max-degree", "3",
        "--output", "table",
    ],
}


def run_case(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(_resolve(argv))
    return code, out.getvalue()


def _resolve(argv: list[str]) -> list[str]:
    return [str(ROOT / a) if a.startswith(("specs/", "tests/")) else a for a in argv]


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name):
    expected_codes = json.loads((GOLDEN / "exit_codes.json").read_text())
    code, out = run_case(CASES[name])
    assert code == expected_codes[name]
    assert out == (GOLDEN / f"{name}.out").read_text(encoding="utf-8")


if __name__ == "__main__":
    codes = {}
    for name, argv in sorted(CASES.items()):
        codes[name], out = run_case(argv)
        (GOLDEN / f"{name}.out").write_text(out, encoding="utf-8")
    (GOLDEN / "exit_codes.json").write_text(json.dumps(codes, indent=2, sort_keys=True) + "\n")
