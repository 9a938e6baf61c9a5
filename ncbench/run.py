#!/usr/bin/env python3
"""The ncprob benchmark.

    python3 ncbench/run.py --workload {series,product,session} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; the program under test is ``src/ncprob``
of that checkout.  Inputs are generated from the seed into a scratch
directory inside the checkout and removed afterwards.

``series`` and ``product`` run each op as a cold CLI process, the way a
user pays for it.  ``session`` runs the query stream in one warm library
process per pass.  Passes repeat until ``--seconds`` have been measured (at
least one pass).  Every output is checked against an exact oracle after the
timed passes.  With ``--trace 0`` the result reports the end-to-end metrics
of BENCHMARK.json; with ``--trace 1`` it runs one untraced and one traced
pass and reports the per-layer metrics.  The last line of stdout is the JSON
result; the lines before it repeat every metric by name and unit, the
failure fraction, and the input properties of the run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".ncbench_work"
sys.path.insert(0, str(ROOT))

from ncbench import check, gen, tracer  # noqa: E402
from ncbench.speed import REF_PROBE_S, Speed  # noqa: E402

SETUP_REPS = 9
ROUNDS = 2
SHORT_ROUNDS = 3
SHORT_S = 1.0
OP_TIMEOUT_S = 60.0
RUN_BUDGET_S = 150.0
CLI_ENTRY = "import sys; from ncprob.cli import main; sys.exit(main())"


# -- child processes -----------------------------------------------------------


class _Alarm(Exception):
    pass


def _on_alarm(signum, frame):
    raise _Alarm


def run_child(argv, stdout_path: Path, timeout: float):
    """Run one child; return (exit code or None on timeout, seconds, peak RSS KiB).

    The child is reaped with wait4 so its own peak RSS is known, and a
    SIGALRM timer turns a hang into a timeout without a second thread.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    err_path = stdout_path.with_suffix(".stderr")
    if timeout <= 0:
        err_path.write_bytes(b"")
        stdout_path.write_bytes(b"")
        return None, 0.0, 0
    with open(stdout_path, "wb") as out, open(err_path, "wb") as err:
        previous = signal.signal(signal.SIGALRM, _on_alarm)
        start = perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        reaped = None
        try:
            signal.setitimer(signal.ITIMER_REAL, timeout)
            reaped = os.wait4(proc.pid, 0)
            elapsed = perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
        except _Alarm:
            elapsed = perf_counter() - start
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        if reaped is None:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            return None, elapsed, usage.ru_maxrss
        _, status, usage = reaped
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, elapsed, usage.ru_maxrss


def cli_argv(op_argv, trace_prefix=None):
    if trace_prefix is None:
        return [sys.executable, "-c", CLI_ENTRY, *op_argv]
    return [sys.executable, str(BENCH / "child.py"), "cli", str(trace_prefix), *op_argv]


# -- set-up ----------------------------------------------------------------------


def write_inputs(inp, work: Path) -> dict:
    """Write the generated files; return the setup manifest."""
    work.mkdir(parents=True)
    manifest = {"spaces": [], "sequences": []}
    for name, obj in inp.files.items():
        path = work / name
        path.write_text(json.dumps(obj, indent=1), encoding="utf-8")
        manifest["spaces" if "factors" in obj else "sequences"].append(str(path))
    for op in inp.ops:
        if "argv" in op:
            op["argv"] = [str(work / a) if a in inp.files else a for a in op["argv"]]
    path = work / "manifest.json"
    path.write_text(json.dumps(manifest), encoding="utf-8")
    return {"path": path, **manifest}


def measure_setup(manifest: dict, work: Path, speed: Speed) -> list[tuple[float, float]]:
    """(start, seconds) of SETUP_REPS children that start the interpreter,
    import ncprob and load the inputs."""
    times = []
    speed.sample()
    for rep in range(SETUP_REPS):
        out = work / f"setup-{rep}.stdout"
        argv = [sys.executable, str(BENCH / "child.py"), "setup", str(manifest["path"])]
        start = perf_counter()
        code, seconds, _ = run_child(argv, out, OP_TIMEOUT_S)
        speed.sample(seconds)
        origin = out.read_text(encoding="utf-8").strip()
        if code != 0 or not Path(origin).resolve().is_relative_to(SRC.resolve()):
            raise SystemExit(f"error: set-up failed (exit {code}); ncprob from {origin!r}")
        times.append((start, seconds))
    return times


# -- timed passes ------------------------------------------------------------------


class Run:
    """Records of one benchmark run: per-pass latencies and checked outcomes."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.passes: list[dict] = []
        self.attempted = 0
        self.failed = 0
        self.reasons: dict[str, str] = {}
        self.peak_rss_kb = 0  # ru_maxrss is in KiB on Linux
        self.layer_detail: dict = {}
        self.speed = Speed()

    def budget(self) -> float:
        return min(OP_TIMEOUT_S, self.deadline - perf_counter())

    def fail(self, name: str, reason: str, count: int = 1) -> None:
        self.failed += count
        self.reasons.setdefault(name, reason)


def cli_pass(run: Run, ops, tag: str, traced: bool, repeat: bool = False) -> dict:
    """One pass of the op list.  With `repeat`, every op runs in ROUNDS
    rounds and an op that took less than SHORT_S in SHORT_ROUNDS rounds,
    and its latency is the median of its rounds: one op is at the mercy of
    the host's swings, and rounds taken seconds apart see different moments
    of the host."""
    records = []
    run.speed.sample()
    short: list[int] = []
    for k in range(SHORT_ROUNDS if repeat else 1):
        todo, short = (range(len(ops)) if k < ROUNDS else short), []
        for i in todo:
            out = run.work / f"{tag}-{i}-{k}.stdout"
            prefix = run.work / f"{tag}-{i}" if traced else None
            start = perf_counter()
            code, seconds, rss = run_child(cli_argv(ops[i]["argv"], prefix), out, run.budget())
            run.speed.sample(seconds)
            run.peak_rss_kb = max(run.peak_rss_kb, rss)
            records.append({"op": i, "code": code, "start": start, "seconds": seconds,
                            "out": out, "trace": prefix})
            if seconds < SHORT_S:
                short.append(i)
    return {"records": records}


def check_cli_pass(run: Run, ops, result: dict, memo: dict) -> None:
    for rec in result["records"]:
        op = ops[rec["op"]]
        stdout = rec["out"].read_bytes()
        stderr = rec["out"].with_suffix(".stderr").read_bytes()
        rec["digest"] = hashlib.sha256(stdout).hexdigest()
        key = (rec["op"], rec["code"], rec["digest"], hashlib.sha256(stderr).hexdigest())
        if key not in memo:
            memo[key] = check.check_cli(op, rec["code"], stdout, stderr)
        run.attempted += 1
        if memo[key] is not None:
            run.fail(op["name"], memo[key])


def session_pass(run: Run, inp, manifest: dict, tag: str, traced: bool) -> dict:
    op = inp.ops[0]
    session_manifest = {"spaces": manifest["spaces"], "sequences": manifest["sequences"],
                        "space": manifest["spaces"][0],
                        "sequence_order": manifest["sequences"], "stream": op["stream"]}
    path = run.work / f"{tag}-session.json"
    path.write_text(json.dumps(session_manifest), encoding="utf-8")
    result_path = run.work / f"{tag}-session.result.json"
    prefix = run.work / f"{tag}-session" if traced else None
    argv = [sys.executable, str(BENCH / "child.py"), "session", str(path), str(result_path)]
    if traced:
        argv.append(str(prefix))
    run.speed.sample()
    start = perf_counter()
    code, seconds, rss = run_child(argv, run.work / f"{tag}-session.stdout", run.budget())
    run.speed.sample(seconds)
    run.peak_rss_kb = max(run.peak_rss_kb, rss)
    span = {"start": start, "seconds": seconds, "trace": prefix}
    if code != 0:
        return {"ok": False, "code": code, "latencies": [seconds], **span}
    result = json.loads(result_path.read_text(encoding="utf-8"))
    return {"ok": True, "latencies": result["latencies"], "values": result["values"], **span}


def check_session_pass(run: Run, inp, result: dict, memo: dict) -> None:
    op = inp.ops[0]
    queries = len(op["stream"])
    run.attempted += queries
    if not result["ok"]:
        run.fail("session", f"session process exited with {result['code']}", queries)
        return
    for k, (query, expected, got) in enumerate(zip(op["stream"], op["expected"], result["values"])):
        key = (tuple(query), json.dumps(got))
        if key not in memo:
            memo[key] = check.check_session_value(expected, got)
        if not memo[key]:
            run.fail("session", f"query {k} {query}: got {got}")


def measure(run: Run, inp, manifest: dict, seconds: float, workload: str) -> None:
    """Timed passes while the next one is expected to end within `seconds`
    (at least one); checks run afterwards."""
    start = perf_counter()
    while True:
        tag = f"p{len(run.passes)}"
        begun = perf_counter()
        if workload == "session":
            run.passes.append(session_pass(run, inp, manifest, tag, False))
        else:
            run.passes.append(cli_pass(run, inp.ops, tag, False, repeat=True))
        now = perf_counter()
        last = now - begun
        if now + last - start > seconds or run.deadline - now < last:
            break
    memo: dict = {}
    for result in run.passes:
        if workload == "session":
            check_session_pass(run, inp, result, memo)
        else:
            check_cli_pass(run, inp.ops, result, memo)


def _p99(latencies) -> float:
    if len(latencies) < 2:
        return latencies[0]
    return statistics.quantiles(latencies, n=100, method="inclusive")[98]


def scaled(run: Run, p: dict, raw: bool = False) -> list[float]:
    """A pass's op latencies in seconds of the reference host (as measured
    with `raw`): a CLI op is scaled by the host speed around that op and a
    repeated op reports the median of its repeats; a session query is scaled
    by the host speed around its session process."""
    if "records" in p:
        by_op: dict[int, list[float]] = {}
        for r in p["records"]:
            seconds = r["seconds"] if raw else run.speed.scale(r["start"], r["seconds"])
            by_op.setdefault(r["op"], []).append(seconds)
        return [statistics.median(by_op[i]) for i in sorted(by_op)]
    factor = 1.0 if raw else run.speed.factor(p["start"], p["start"] + p["seconds"])
    return [x / factor for x in p["latencies"]]


def end_to_end(run: Run, setup: list[tuple[float, float]]) -> dict:
    """Timings in seconds of the reference host (see speed.py).

    Every pass runs the same ops, so an op's latency is its median over the
    passes, and the statistics are taken over these per-op latencies:
    `wall_s` is their sum, the time of one pass with every op at its median.
    """
    passes = [scaled(run, p) for p in run.passes]
    whole = [lat for lat in passes if len(lat) == max(map(len, passes))]
    latencies = [statistics.median(op) for op in zip(*whole)]
    stats = {"wall_s": sum(latencies), "op_p50_ms": 1000 * statistics.median(latencies),
             "op_p99_ms": 1000 * _p99(latencies), "op_max_s": max(latencies)}
    stats["setup_s"] = statistics.median(run.speed.scale(*rep) for rep in setup)
    stats["peak_rss_mb"] = run.peak_rss_kb / 1024
    return stats


# -- the traced run ------------------------------------------------------------------


def traced(run: Run, inp, manifest: dict, workload: str) -> dict:
    """One untraced and one traced pass; per-layer metrics from the traced one.

    The untraced CLI pass is kept in ``run.passes`` for the per-op report.
    """
    memo: dict = {}
    if workload == "session":
        plain = session_pass(run, inp, manifest, "u", False)
        spied = session_pass(run, inp, manifest, "t", True)
        for result in (plain, spied):
            check_session_pass(run, inp, result, memo)
        if plain.get("values") != spied.get("values"):
            run.fail("session", "traced and untraced values differ")
        prefixes = [spied["trace"]] if spied["ok"] else []
        stdout_bytes = 0
    else:
        plain = cli_pass(run, inp.ops, "u", False)
        spied = cli_pass(run, inp.ops, "t", True)
        run.passes.append(plain)
        for result in (plain, spied):
            check_cli_pass(run, inp.ops, result, memo)
        for a, b in zip(plain["records"], spied["records"]):
            if a["digest"] != b["digest"]:
                run.fail(inp.ops[a["op"]]["name"], "traced output differs from untraced")
        prefixes = [r["trace"] for r in spied["records"]
                    if Path(str(r["trace"]) + ".json").exists()]
        stdout_bytes = sum(r["out"].stat().st_size for r in spied["records"])
    spans: dict[str, dict] = {}
    counts: dict[str, float] = {"cli.stdout_bytes": stdout_bytes,
                                "trace_overhead": sum(scaled(run, spied)) / sum(scaled(run, plain))}
    max_bits = 0
    for prefix in prefixes:
        agg = tracer.load(str(prefix))
        max_bits = max(max_bits, agg["max_bits"])
        for name, value in agg["counts"].items():
            counts[name] = counts.get(name, 0) + value
        for name, entry in agg["spans"].items():
            total = spans.setdefault(name, {"calls": 0, "self_s": 0.0, "errors": 0})
            for field in entry:
                total[field] += entry[field]
    counts["scalar.max_bits"] = max_bits
    run.layer_detail = {name: e for name, e in sorted(spans.items())}
    return {"spans": spans, "counts": counts}


def layer_metric(name: str, layers: dict):
    if name in layers["counts"]:
        return layers["counts"][name]
    base, field = name.rsplit(".", 1)
    return layers["spans"].get(base, {}).get(field, 0)


# -- entry point -------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="small inputs for a quick correctness check, not for measurement")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ncprob" / "__init__.py").is_file():
        print(f"error: no ncprob package under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    # One caller at a time: this process, the speed probes and every op share
    # one CPU, so the probes see the host speed the ops see.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    started = perf_counter()
    inp = gen.make(args.workload, args.seed, args.smoke)
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        manifest = write_inputs(inp, work)
        run = Run(work, started + RUN_BUDGET_S)
        setup = measure_setup(manifest, work, run.speed)
        if args.trace:
            layers = traced(run, inp, manifest, args.workload)
            wanted = spec["per_layer"]
            metrics = {m["name"]: layer_metric(m["name"], layers) for m in wanted}
        else:
            measure(run, inp, manifest, args.seconds, args.workload)
            wanted = spec["end_to_end"]
            metrics = end_to_end(run, setup)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()
    units = {m["name"]: m["unit"] for m in wanted}
    print("inputs: " + json.dumps(inp.props, sort_keys=True))
    if args.trace:
        print("spans: " + json.dumps(run.layer_detail, sort_keys=True))
    print(f"passes: {len(run.passes)}")
    print(f"host speed factor: {run.speed.factor():.4f} (median probe time / {REF_PROBE_S} s)")
    if args.workload != "session":
        per_pass = [scaled(run, p) for p in run.passes]
        per_pass_raw = [scaled(run, p, raw=True) for p in run.passes]
        for i, op in enumerate(inp.ops):
            raw = statistics.median(lat[i] for lat in per_pass_raw)
            ref = statistics.median(lat[i] for lat in per_pass)
            print(f"op {op['name']}: {ref:.4f} s ({raw:.4f} s as measured)")
    for name in units:
        print(f"{name}: {metrics[name]} {units[name]}")
    print(f"fail_frac: {run.failed / max(run.attempted, 1)} ({run.failed}/{run.attempted})")
    for name, reason in sorted(run.reasons.items()):
        print(f"failed: {name}: {reason}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
