"""Command-line front end.

Subcommands: ``nc``, ``moebius``, ``cumulants``, ``moments``,
``product-eval``, ``convolve``, ``verify``.  Output is JSON (default) or an
aligned table; scalars print as exact rational strings, never floats, and
the output is byte-identical across runs for identical inputs.

Exit status: 0 on success, 1 when ``verify`` finds a mathematical violation,
2 on parse/validation errors or when stdout cannot be written (a closed pipe,
a full disk), which ``nc`` may find partway through its output.

Each command imports the modules it runs when it runs, so a cold ``nc`` loads
the lattice alone, only ``verify`` loads the checks, and ``convolve``, and
``cumulants`` or ``moments`` on a sequence, load no word layer.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import TYPE_CHECKING, Sequence

from .errors import NCProbError, SizeOutOfRangeError, SpecFormatError

if TYPE_CHECKING:
    from .free_product import ProductSpace
    from .scalar import ComplexRational


def _load_json(path: str) -> object:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise SpecFormatError(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    except OSError as exc:
        raise SpecFormatError(f"{path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise SpecFormatError(f"{path}: not UTF-8 text: {exc.reason}") from exc
    except RecursionError as exc:
        raise SpecFormatError(f"{path}: JSON nested too deeply") from exc


def _load_space(path: str) -> ProductSpace:
    from .free_product import ProductSpace, product_space_from_json
    from .moment_space import factor_state_from_json

    obj = _load_json(path)
    if isinstance(obj, dict) and "factors" in obj:
        return product_space_from_json(obj)
    return ProductSpace([factor_state_from_json(obj)])


def _emit(args, payload: dict, table_lines: list[str]) -> None:
    if args.output == "table":
        print("\n".join(table_lines))
    else:
        print(json.dumps(payload, sort_keys=True, indent=2))


def _parse_moment_file(obj: object, key: str, path: str) -> list[ComplexRational]:
    from .scalar import ComplexRational

    if not isinstance(obj, dict) or key not in obj:
        raise SpecFormatError(f"{path}: expected an object with a {key!r} list")
    raw = obj[key]
    if not isinstance(raw, list) or not all(isinstance(v, str) for v in raw):
        raise SpecFormatError(f"{path}: {key!r} must be a list of scalar strings")
    return [ComplexRational.parse(v) for v in raw]


def _cmd_nc(args) -> int:
    """Write NC(n) batch by batch as the lattice walk hands it on, in the
    bytes ``_emit`` prints for the whole list of texts."""
    from itertools import chain, repeat

    from .nc_lattice import catalan, check_lattice_size, nc_text_batches

    n = args.n
    check_lattice_size(n)
    if args.output == "table":
        head, sep, foot, quote = "", "\n", "\n", None
    else:
        payload = {"n": n, "count": catalan(n), "partitions": [None]}
        head, foot = json.dumps(payload, sort_keys=True, indent=2).split("null")
        sep, foot, quote = ",\n    ", foot + "\n", json.encoder.encode_basestring_ascii
    write = sys.stdout.write
    leads = chain([head], repeat(sep))
    nc_text_batches(n, lambda texts: write(
        next(leads) + sep.join(texts if quote is None else map(quote, texts))))
    write(foot)
    return 0


def _cmd_moebius(args) -> int:
    from .nc_lattice import moebius, parse_partition
    from .scalar import ComplexRational

    if args.n < 1:
        raise SizeOutOfRangeError(f"n must be positive, got {args.n}")
    sigma = parse_partition(args.sigma)
    pi = parse_partition(args.pi)
    if sigma.n != args.n or pi.n != args.n:
        raise SpecFormatError(
            f"partitions cover {sigma.n} and {pi.n} elements, expected {args.n}"
        )
    value = moebius(sigma, pi)
    text = str(ComplexRational.of(value))  # refuses a value too long to print
    _emit(
        args,
        {"n": args.n, "sigma": str(sigma), "pi": str(pi), "moebius": value},
        [text],
    )
    return 0


def _factor_table(
    factor: str, degree_bound: int, key: str, table: dict
) -> tuple[dict, list[str]]:
    """The payload and table lines of a factor spec's ``key`` table, filled by
    ``cumulant_calculus.letter_table``."""
    values = {" ".join(l.text() for l in t): str(v) for t, v in table.items()}
    payload = {"factor": factor, "degree_bound": degree_bound, key: values}
    return payload, [f"{w}  {v}" for w, v in sorted(values.items())]


def _cmd_cumulants(args) -> int:
    from . import cumulant_calculus as cc

    obj = _load_json(args.from_moments)
    if isinstance(obj, dict) and "generators" in obj:
        from .moment_space import Word, factor_state_from_json

        state = factor_state_from_json(obj)
        table = cc.letter_table(
            state.letters(), state.degree_bound, cc.first_block_cumulant,
            lambda sub: state.phi_word(Word(sub)),
        )
        payload, lines = _factor_table(
            state.factor, state.degree_bound, "cumulants", table
        )
    else:
        moments = _parse_moment_file(obj, "moments", args.from_moments)
        kappas = cc.cumulants_from_moment_sequence(cc.MomentSequence.of(moments))
        payload = {"cumulants": [str(k) for k in kappas]}
        lines = [f"{n + 1}  {k}" for n, k in enumerate(kappas)]
    _emit(args, payload, lines)
    return 0


def _cmd_moments(args) -> int:
    from . import cumulant_calculus as cc

    obj = _load_json(args.from_cumulants)
    if isinstance(obj, dict) and "generators" in obj:
        from .moment_space import cumulant_table_from_json

        factor, degree_bound, letters, kappas = cumulant_table_from_json(obj)
        # Cannot miss: the kernel reads sub-tuples of words of order <= N, all loaded.
        table = cc.letter_table(
            letters, degree_bound, cc.first_block_moment, kappas.__getitem__
        )
        payload, lines = _factor_table(factor, degree_bound, "moments", table)
    else:
        kappas = _parse_moment_file(obj, "cumulants", args.from_cumulants)
        seq = cc.moment_sequence_from_cumulants(kappas)
        payload = {"moments": [str(m) for m in seq.values]}
        lines = [f"{n + 1}  {m}" for n, m in enumerate(seq.values)]
    _emit(args, payload, lines)
    return 0


def _cmd_product_eval(args) -> int:
    space = _load_space(args.spec)
    letters = space.parse_letters(args.word)
    value = space.state_eval(letters)
    _emit(
        args,
        {"word": " ".join(l.text() for l in letters), "value": str(value)},
        [str(value)],
    )
    return 0


def _cmd_convolve(args) -> int:
    from . import cumulant_calculus as cc

    x = cc.MomentSequence.of(_parse_moment_file(_load_json(args.x), "moments", args.x))
    y = cc.MomentSequence.of(_parse_moment_file(_load_json(args.y), "moments", args.y))
    result = cc.free_convolve_additive(x, y)
    payload = {"moments": [str(m) for m in result.values]}
    _emit(args, payload, [f"{n + 1}  {m}" for n, m in enumerate(result.values)])
    return 0


def _cmd_verify(args) -> int:
    from .verification import (
        check_freeness_cumulants,
        check_freeness_moments,
        check_positivity,
    )

    space = _load_space(args.spec)
    reports = []
    failed = False
    if args.mode in ("moments", "both"):
        reports.append(check_freeness_moments(space, args.max_degree))
    if args.mode in ("cumulants", "both"):
        reports.append(check_freeness_cumulants(space, args.max_degree))
    payload: dict = {}
    lines: list[str] = []
    if reports:
        payload["reports"] = [r.to_json() for r in reports]
        for r in reports:
            failed = failed or not r.ok
            lines.append(
                f"mode={r.mode} max_degree={r.max_degree} "
                f"checked={r.checked_words} violations={len(r.violations)}"
            )
            for word, value in r.violations:
                lines.append(f"  {word} = {value}")
    if args.mode == "positivity":
        result = check_positivity(space, args.max_degree)
        payload["positivity"] = result.to_json()
        failed = failed or not (result.psd and result.schur_consistent)
        lines.append(
            f"psd={result.psd} schur_consistent={result.schur_consistent} "
            f"basis_size={result.gram.size}"
        )
        if result.witness is not None:
            lines.append("  witness: " + ", ".join(str(x) for x in result.witness))
    _emit(args, payload, lines)
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ncprob",
        description="Exact free-cumulant calculus and free products.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, func, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        p.add_argument(
            "--output", choices=("json", "table"), default="json",
            help="output format (default: json)",
        )
        return p

    p = add("nc", _cmd_nc, "enumerate the non-crossing partitions of {1..n}")
    p.add_argument("n", type=int)

    p = add("moebius", _cmd_moebius, "Moebius function of an NC(n) interval")
    p.add_argument("n", type=int)
    p.add_argument("sigma", help='partition text, e.g. "{1,3}{2}"')
    p.add_argument("pi", help='partition text, e.g. "{1,2,3}"')

    p = add("cumulants", _cmd_cumulants, "free cumulants from moments")
    p.add_argument("--from-moments", required=True, metavar="FILE")

    p = add("moments", _cmd_moments, "moments from free cumulants")
    p.add_argument("--from-cumulants", required=True, metavar="FILE")

    p = add("product-eval", _cmd_product_eval, "evaluate the product state on a word")
    p.add_argument("--spec", required=True, metavar="FILE")
    p.add_argument("--word", required=True, help='e.g. "a b a b"')

    p = add("convolve", _cmd_convolve, "free additive convolution of moment files")
    p.add_argument("x", metavar="X.json")
    p.add_argument("y", metavar="Y.json")

    p = add("verify", _cmd_verify, "freeness / positivity verification suite")
    p.add_argument("--spec", required=True, metavar="FILE")
    p.add_argument("--max-degree", required=True, type=int)
    p.add_argument(
        "--mode", choices=("moments", "cumulants", "both", "positivity"),
        default="both",
    )

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except NCProbError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # from stdout: input files raise SpecFormatError
        # What stdout still buffers goes to the null device, so the flush at
        # interpreter exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: cannot write output: {exc.strerror}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
