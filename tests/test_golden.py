"""Golden CLI outputs: stdout and stderr must stay byte-identical, exit codes
identical.

The files under ``tests/golden/`` were captured from the interval-recursion
implementation of the Moebius function, before the closed form replaced it;
the ``verify_positivity_*_u_2`` cases from the Gram route that multiplied
b_s* b_t in the algebra, before entries were read off the concatenated atoms;
``verify_both_haar_u_4`` from the NC(n) lattice-sum state, before the
first-block recursion replaced it; ``verify_positivity_haar_u_3`` from the
join-constrained NC(n) sum for the Schur side check's cumulants, before the
first-block kernel replaced it; the ``.err`` files and
``product_eval_truncated_mixed`` from the state kernel with a memo local to
each call, before it filled the space's memo; ``verify_positivity_haar_u_4``
(standard semicircle ``a`` and Haar unitary ``u``, N = 8, basis degree 4, a
121 x 121 Gram) from the recursive LDL* that copied the whole Schur
complement at every pivot, before the in-place elimination that touches
only rows with a nonzero pivot-column entry replaced it; ``cumulants_haar_u_6``,
``moments_haar_u_6`` and ``verify_cumulants_haar_u_8`` from the table walk that
ran the dense first-block kernel on every tuple, before the sparse block walk
replaced it.  ``cumulants_factor_u``, ``moments_factor_u``,
``cumulants_haar_u_6`` and ``moments_haar_u_6`` were re-captured by the sparse
block walk when a printed factor table gained its ``generators`` list, so that
the other command reads it; each differs from the earlier bytes by that key
alone.  ``verify_positivity_haar_u_2``, ``verify_positivity_haar_u_3``,
``verify_positivity_haar_u_4`` and ``verify_positivity_not_psd_u_2`` were
re-captured when the basis came to be ordered by its (factor, word) slots
alone, not by the text of the factor means: each new ``basis`` is a
permutation of the earlier one, with the same ``psd``, ``schur_consistent``,
``pivots`` and exit code, and the witness of ``not_psd_u_2`` still has
x* M x < 0 on the Gram in the new order.  To capture a new case, add it to
``CASES`` and run from the repository root:

    PYTHONPATH=src python tests/test_golden.py

This writes only the ``.out`` (stdout) and ``.err`` (stderr) files that do
not exist yet.  To re-capture a pinned case after an intended output change,
delete its files first.
The script refuses to write unless ``git diff --quiet HEAD -- src`` succeeds,
so a golden always comes from committed library code: capture new cases
before changing ``src/``.
"""

import contextlib
import io
import json
import subprocess
import sys
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
    "cumulants_haar_u_6": ["cumulants", "--from-moments", f"{INPUTS}/haar_u_6.json"],
    "moments_haar_u_6": [
        "moments", "--from-cumulants", f"{INPUTS}/haar_u_6_cumulants.json",
    ],
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
    "product_eval_truncated_mixed": [
        "product-eval", "--spec", f"{INPUTS}/semicircle_and_u.json",
        "--word", "u a u u* a u u",
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
    "verify_both_haar_u_4": [
        "verify", "--spec", f"{INPUTS}/semicircle_and_haar_u.json", "--max-degree", "4",
        "--mode", "both",
    ],
    "verify_positivity_haar_u_3": [
        "verify", "--spec", f"{INPUTS}/semicircle_and_haar_u_6.json", "--max-degree", "3",
        "--mode", "positivity",
    ],
    "verify_positivity_haar_u_4": [
        "verify", "--spec", f"{INPUTS}/semicircle_and_haar_u_8.json", "--max-degree", "4",
        "--mode", "positivity",
    ],
    "verify_cumulants_haar_u_8": [
        "verify", "--spec", f"{INPUTS}/semicircle_and_haar_u_8.json", "--max-degree", "8",
        "--mode", "cumulants",
    ],
    "verify_table_3": [
        "verify", "--spec", f"{INPUTS}/semicircle_and_u.json", "--max-degree", "3",
        "--output", "table",
    ],
}


def run_case(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(_resolve(argv))
    return code, out.getvalue(), err.getvalue()


def _resolve(argv: list[str]) -> list[str]:
    return [str(ROOT / a) if a.startswith(("specs/", "tests/")) else a for a in argv]


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name):
    expected_codes = json.loads((GOLDEN / "exit_codes.json").read_text())
    code, out, err = run_case(CASES[name])
    assert code == expected_codes[name]
    assert out == (GOLDEN / f"{name}.out").read_text(encoding="utf-8")
    assert err == (GOLDEN / f"{name}.err").read_text(encoding="utf-8")


def test_cases_goldens_and_exit_codes_name_the_same_cases():
    codes = json.loads((GOLDEN / "exit_codes.json").read_text())
    outs = {p.stem for p in GOLDEN.glob("*.out")}
    errs = {p.stem for p in GOLDEN.glob("*.err")}
    assert set(CASES) == outs == errs == set(codes)


if __name__ == "__main__":
    src_clean = subprocess.run(
        ["git", "diff", "--quiet", "HEAD", "--", "src"], cwd=ROOT
    ).returncode == 0
    if not src_clean:
        sys.exit("refusing to capture: src/ differs from HEAD (or git failed)")
    codes_path = GOLDEN / "exit_codes.json"
    codes = json.loads(codes_path.read_text())
    for name, argv in sorted(CASES.items()):
        paths = [GOLDEN / f"{name}.out", GOLDEN / f"{name}.err"]
        if all(path.exists() for path in paths):
            continue
        code, *texts = run_case(argv)
        codes.setdefault(name, code)
        for path, text in zip(paths, texts):
            if not path.exists():
                path.write_text(text, encoding="utf-8")
                print(f"captured {path.name}: exit {code}")
    codes_path.write_text(json.dumps(codes, indent=2, sort_keys=True) + "\n")
