"""Child processes of the ncprob benchmark.

    python3 ncbench/child.py setup MANIFEST
        import ncprob and load the workload's inputs, computing nothing;
        prints the path ncprob was imported from.
    python3 ncbench/child.py session MANIFEST OUT [TRACE_PREFIX]
        the warm session: load once, then answer the query stream in order,
        timing each query; writes timings and values to OUT.
    python3 ncbench/child.py cli TRACE_PREFIX ARG...
        run ``ncprob.cli.main(ARGS)`` with every module traced.

The parent sets PYTHONPATH to the checkout's ``src`` so ncprob is the code
under test.  MANIFEST is a JSON file the parent writes next to the inputs.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from ncbench import tracer  # noqa: E402


def _load(manifest: dict):
    import ncprob

    spaces = {}
    for path in manifest["spaces"]:
        with open(path, encoding="utf-8") as fh:
            spaces[path] = ncprob.product_space_from_json(json.load(fh))
    sequences = {}
    for path in manifest["sequences"]:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
        values = obj.get("moments", obj.get("cumulants"))
        if isinstance(values, dict):  # a factor-spec cumulant table, word -> value
            values = list(values.values())
        sequences[path] = ncprob.MomentSequence.of(
            [ncprob.ComplexRational.parse(v) for v in values])
    return ncprob, spaces, sequences


def setup(manifest_path: str) -> int:
    with open(manifest_path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    ncprob, _, _ = _load(manifest)
    print(ncprob.__file__)
    return 0


def session(manifest_path: str, out_path: str, trace_prefix: str | None) -> int:
    with open(manifest_path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    trace = tracer.install() if trace_prefix else None
    ncprob, spaces, sequences = _load(manifest)
    cc = ncprob.cumulant_calculus
    space = spaces[manifest["space"]]
    sequence_list = [sequences[p] for p in manifest["sequence_order"]]
    parsed = {}
    calls = []
    for kind, arg in manifest["stream"]:
        if kind == "state":
            if arg not in parsed:
                parsed[arg] = space.parse_letters(arg)
            calls.append((space.state_eval, parsed[arg]))
        else:
            calls.append((cc.cumulants_from_moment_sequence, sequence_list[arg]))
    latencies = []
    results = []
    start = perf_counter()
    for fn, arg in calls:
        t0 = perf_counter()
        results.append(fn(arg))
        latencies.append(perf_counter() - t0)
    wall = perf_counter() - start
    values = [str(r) if not isinstance(r, tuple) else [str(x) for x in r] for r in results]
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"wall_s": wall, "latencies": latencies, "values": values}, fh)
    if trace is not None:
        trace.dump(trace_prefix)
    return 0


def traced_cli(trace_prefix: str, argv: list[str]) -> int:
    trace = tracer.install()
    from ncprob import cli

    try:
        code = cli.main(argv)
    finally:
        sys.stdout.flush()
        trace.dump(trace_prefix)
    return code


def main(argv: list[str]) -> int:
    mode, rest = argv[0], argv[1:]
    if mode == "setup":
        return setup(*rest)
    if mode == "session":
        return session(rest[0], rest[1], rest[2] if len(rest) > 2 else None)
    if mode == "cli":
        return traced_cli(rest[0], rest[1:])
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
