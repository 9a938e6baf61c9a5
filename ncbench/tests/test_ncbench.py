"""Tests of the benchmark itself: oracles, inputs, checks and runs.

    python3 -m pytest ncbench/tests -q
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

from ncbench import check, gen, oracles as O, run, speed

ROOT = run.ROOT
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
F = Fraction

SEMICIRCLE = [0, 1, 0, 2, 0, 5, 0, 14, 0, 42]


def c(values):
    return [(F(v), F(0)) for v in values]


# -- oracles against closed forms ------------------------------------------------


def test_catalan_and_nc_enumeration():
    assert [O.catalan(n) for n in range(9)] == [1, 1, 2, 5, 14, 42, 132, 429, 1430]
    for n in range(1, 8):
        parts = O.nc_partitions(n)
        assert len(set(parts)) == O.catalan(n)
        assert all(O.is_partition_of(p, n) and O.is_noncrossing(p) for p in parts)
    assert not O.is_noncrossing([(1, 3), (2, 4)])
    assert O.is_noncrossing([(1, 4), (2, 3)])


def _refines(sigma, pi) -> bool:
    owner = {x: k for k, block in enumerate(pi) for x in block}
    return all(len({owner[x] for x in block}) == 1 for block in sigma)


def test_moebius_formula_inverts_zeta():
    # sum over sigma in [0_n, pi] of mu(0_n, sigma) vanishes unless pi = 0_n.
    for n in range(1, 7):
        parts = O.nc_partitions(n)
        for pi in parts:
            total = sum(O.moebius_from_bottom(s) for s in parts if _refines(s, pi))
            assert total == (1 if len(pi) == n else 0)
    assert O.moebius_from_bottom([(1, 2, 3, 4)]) == -5
    assert O.moebius_from_bottom([(1, 2, 3), (4, 5)]) == 2 * -1


def test_semicircle_anchors():
    assert O.cumulants_from_moments(c(SEMICIRCLE)) == c([0, 1] + [0] * 8)
    doubled = O.free_convolve(c(SEMICIRCLE), c(SEMICIRCLE))
    assert doubled == c([0 if k % 2 else 2 ** (k // 2) * O.catalan(k // 2) for k in range(1, 11)])
    assert O.free_convolve(c([0, 1, 0, 1]), c([0, 1, 0, 1])) == c([0, 2, 0, 6])


def test_recursion_round_trip_on_measures():
    rng = random.Random(7)
    for family in ("int", "rat"):
        moments = O.measure_moments(gen.measure(rng, family, 3), 8)
        assert O.moments_from_cumulants(O.cumulants_from_moments(moments)) == moments


def test_product_oracle_anchors():
    # Two free standard semicircles: the values the CLI tests pin down.
    atoms = {"A1": ("real", [(F(-1), F(1, 2)), (F(1), F(1, 2))]),
             "A2": ("real", [(F(-1), F(1, 2)), (F(1), F(1, 2))])}
    phi = O.ProductOracle(O.measure_moment_fn(atoms)).phi
    a, b = ("A1", "a", False), ("A2", "b", False)
    assert phi((a, b, a, b)) == O.ZERO
    assert phi((a, a, b, b)) == O.ONE
    assert phi((a, a, a, a)) == O.ONE
    # Freeness: phi(a b b a) = phi(a a) phi(b b).
    assert phi((a, b, b, a)) == O.ONE
    # A normal element: phi(u u*) = E|z|^2 and phi(u* u) the same.
    z = (F(1, 2), F(1, 2))
    phi_u = O.ProductOracle(O.measure_moment_fn({"A1": ("normal", [(z, F(1))])})).phi
    u, us = ("A1", "u", False), ("A1", "u", True)
    assert phi_u((u, us)) == phi_u((us, u)) == (F(1, 2), F(0))
    assert phi_u((u, u)) == O.cmul(z, z)


def test_verify_counts_by_brute_force():
    def brute(letter_counts, max_degree):
        count = 0

        def extend(last, used):
            nonlocal count
            for i, letters in enumerate(letter_counts):
                if i == last:
                    continue
                for d in range(1, max_degree - used + 1):
                    count += letters**d
                    for _ in range(letters**d):
                        extend(i, used + d)

        extend(None, 0)
        return count

    for counts in ([1, 1], [1, 2], [1, 1, 1]):
        for d in range(1, 5):
            assert O.alternating_count(counts, d) == brute(counts, d)
    assert O.mixed_tuple_count([1, 1], 3) == 2 + 6


def test_scalar_text_round_trip():
    for value in [(F(0), F(0)), (F(-3, 2), F(0)), (F(0), F(-1, 3)), (F(1, 2), F(1, 3)),
                  (F(1, 2), F(-7, 5))]:
        assert O.parse(O.fmt(value)) == value


# -- host speed scaling ------------------------------------------------------------


def test_speed_scales_by_the_nearby_probes():
    s = speed.Speed()
    s.probes = [(0.0, speed.REF_PROBE_S), (10.0, 2 * speed.REF_PROBE_S),
                (10.5, 2 * speed.REF_PROBE_S)]
    assert s.scale(0.0, 0.2) == pytest.approx(0.2)
    assert s.scale(9.0, 1.0) == pytest.approx(0.5)
    assert s.factor() == pytest.approx(2.0)
    assert s.factor(100.0, 101.0) == pytest.approx(2.0)  # no probe near: the whole run


def test_speed_probe_takes_more_probes_after_a_long_op():
    s = speed.Speed()
    s.sample()
    s.sample(after_s=2 * speed.PROBES / speed.PROBES_PER_S)
    assert len(s.probes) == 3 * speed.PROBES
    assert all(t > 0 for _, t in s.probes)


# -- inputs and checks -------------------------------------------------------------


@pytest.mark.parametrize("workload", sorted(gen.WORKLOADS))
def test_inputs_depend_only_on_seed(workload):
    first, again, other = gen.make(workload, 3), gen.make(workload, 3), gen.make(workload, 4)
    assert first.files == again.files and first.ops == again.ops
    assert first.files != other.files
    assert [op["name"] for op in first.ops] == [op["name"] for op in other.ops]


def test_session_repeat_share_is_measured():
    props = gen.make("session", 5).props
    assert props["queries"] == gen.SESSION_QUERIES
    assert 0.85 < props["repeat_share"] < 0.95


def test_checks_reject_wrong_outputs():
    op = {"name": "x", "check": ("sequence", "cumulants", ["0", "1"])}
    good = json.dumps({"cumulants": ["0", "1"]}).encode()
    assert check.check_cli(op, 0, good, b"") is None
    assert check.check_cli(op, 0, json.dumps({"cumulants": ["0", "2"]}).encode(), b"")
    assert check.check_cli(op, 1, good, b"")
    assert check.check_cli(op, None, good, b"") == "timed out"
    assert check.check_cli(op, 0, good, b"Traceback (most recent call last)")
    assert check.check_cli(op, 0, b"not json", b"")


# -- runs ----------------------------------------------------------------------------


def _bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, str(cwd / "ncbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)
    return proc


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(gen.WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run(workload, trace):
    result = _result(_bench("--workload", workload, "--seed", "1", "--seconds", "0",
                            "--trace", trace, "--smoke"))
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())


def _corrupting(real):
    """A run_child that corrupts the first answer of the first measured op."""
    state = {"done": False}

    def run_child(argv, stdout_path, timeout):
        code, seconds, rss = real(argv, stdout_path, timeout)
        if state["done"] or "setup" in stdout_path.name:
            return code, seconds, rss
        state["done"] = True
        session_result = stdout_path.parent / f"{stdout_path.stem}.result.json"
        if session_result.exists():
            data = json.loads(session_result.read_text(encoding="utf-8"))
            data["values"][0] = "12345/7"
            session_result.write_text(json.dumps(data), encoding="utf-8")
        else:
            text = stdout_path.read_text(encoding="utf-8")
            digit = next(d for d in "123456789" if d in text)
            stdout_path.write_text(text.replace(digit, "0", 1), encoding="utf-8")
        return code, seconds, rss

    return run_child


@pytest.mark.parametrize("workload", ["series", "session"])
def test_corrupted_output_counts_as_failure(workload, monkeypatch, capsys):
    monkeypatch.setattr(run, "run_child", _corrupting(run.run_child))
    assert run.main(["--workload", workload, "--seed", "2", "--seconds", "0", "--smoke"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["failed"] >= 1 and result["correct"] is False
    fail_frac = float(next(l for l in lines if l.startswith("fail_frac:")).split()[1])
    assert fail_frac > 0


def test_traced_and_untraced_outputs_are_byte_identical(tmp_path):
    inp = gen.make("product", 6, smoke=True)
    manifest = run.write_inputs(inp, tmp_path / "work")
    assert manifest["spaces"]
    for op in inp.ops[:4] + inp.ops[-1:]:
        plain = tmp_path / "plain.stdout"
        traced = tmp_path / "traced.stdout"
        run.run_child(run.cli_argv(op["argv"]), plain, 60)
        run.run_child(run.cli_argv(op["argv"], tmp_path / "trace"), traced, 60)
        assert plain.read_bytes() == traced.read_bytes()
        assert plain.read_bytes()


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "ncbench", tmp_path / "ncbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "series", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
