"""Command-line interface.

Exit codes: 0 success, 2 input/usage error, 3 centrality verification
failure, 4 oracle mismatch or insufficient oracle bound, 5 internal
invariant breach.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from .center import (
    OracleBoundError,
    check_oracle_bound,
    oracle_commutant,
    required_oracle_bound,
    same_span,
)
from .fields import PrimeField, QQ
from .graphs import Graph, GraphError, InvariantError, parse_graph
from .randomgen import graph_stream
from .reports import Envelope, build_envelope, load_schema, render_text

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_VERIFY = 3
EXIT_ORACLE = 4
EXIT_INTERNAL = 5


def _parse_field(text: str):
    if text == "q":
        return QQ
    if text.startswith("p:"):
        try:
            return PrimeField(int(text[2:]))
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    raise argparse.ArgumentTypeError(
        f"unknown field {text!r}; expected 'q' or 'p:<prime>'"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lpa",
        description="Structural classification and centers of Leavitt path algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument(
            "--format", choices=["json", "text"], default="json", dest="fmt"
        )

    p_classify = sub.add_parser("classify", help="classify vertices and ideals")
    p_classify.add_argument("path", help="graph document (JSON)")
    add_format(p_classify)

    p_center = sub.add_parser("center", help="compute and verify the center")
    p_center.add_argument("path", help="graph document (JSON)")
    p_center.add_argument("--verify", action="store_true",
                          help="check each basis element against every generator")
    p_center.add_argument("--oracle", action="store_true",
                          help="compare the basis span with a brute-force commutant")
    p_center.add_argument("--max-len", type=int, default=None,
                          help="monomial length bound for the oracle")
    p_center.add_argument("--degrees", type=int, default=None,
                          help="degree window |n| <= N for nonzero-degree basis")
    p_center.add_argument("--field", type=_parse_field, default=QQ,
                          help="coefficient field: q or p:<prime>")
    add_format(p_center)

    p_random = sub.add_parser("random", help="seeded random verification campaign")
    p_random.add_argument("--seed", type=int, required=True)
    p_random.add_argument("--count", type=int, required=True)
    p_random.add_argument("--max-vertices", type=int, required=True)
    p_random.add_argument("--max-edges", type=int, required=True)
    add_format(p_random)

    sub.add_parser("schema", help="print the report JSON schema")
    return parser


def _read_graph(path: str) -> Graph:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise GraphError(f"cannot read {path!r}: {exc}") from None
    return parse_graph(text)


def _emit(env: Envelope, fmt: str, out) -> None:
    if fmt == "json":
        out.write(env.dumps() + "\n")
    else:
        out.write(render_text(env))


def _verification_failed(env: Envelope) -> bool:
    return any(not res.central for _, res in (env.verification or []))


def _run_oracle(env: Envelope, max_len: Optional[int]) -> bool:
    """Populate env.oracle_checks; return True when every span agrees.

    Raises OracleBoundError when a fixed --max-len cannot contain an
    emitted basis element.  Every degree's bound is checked before the
    first solve, so on that error env.oracle_checks stays unset and the
    report has no partial oracle block.
    """
    alg = env.algebra
    center = env.center
    by_degree: dict[int, list] = {0: list(center.basis_zero)}
    for n, elems in center.basis_nonzero.items():
        by_degree.setdefault(n, []).extend(elems)
    degrees = sorted(by_degree)
    if max_len is not None:
        for n in degrees:
            check_oracle_bound(by_degree[n], max_len)
    env.oracle_checks = []
    agrees_all = True
    for n in degrees:
        elems = by_degree[n]
        # without --max-len, the least bound that holds the basis: no check can fail
        bound = required_oracle_bound(elems) if max_len is None else max_len
        commutant = oracle_commutant(alg, n, bound)
        ok = same_span(alg, [b.element for b in elems], commutant)
        env.oracle_checks.append((n, bound, ok))
        agrees_all = agrees_all and ok
    return agrees_all


def cmd_classify(args: argparse.Namespace, out) -> int:
    g = _read_graph(args.path)
    env = build_envelope(g, with_center=False)
    _emit(env, args.fmt, out)
    return EXIT_OK


def cmd_center(args: argparse.Namespace, out) -> int:
    if args.degrees is not None and args.degrees < 0:
        raise GraphError("--degrees must be nonnegative")
    if args.max_len is not None and args.max_len < 0:
        raise GraphError("--max-len must be nonnegative")
    g = _read_graph(args.path)
    env = build_envelope(
        g,
        field=args.field,
        with_center=True,
        degree_window=args.degrees,
        verify=args.verify,
    )
    code = EXIT_OK
    if args.oracle:
        try:
            if not _run_oracle(env, args.max_len):
                code = EXIT_ORACLE
        except OracleBoundError as exc:
            _emit(env, args.fmt, out)
            print(f"lpa: oracle bound too small: {exc}", file=sys.stderr)
            return EXIT_ORACLE
    if args.verify and _verification_failed(env):
        code = EXIT_VERIFY
    _emit(env, args.fmt, out)
    return code


def cmd_random(args: argparse.Namespace, out) -> int:
    if args.max_vertices < 1:
        raise GraphError("--max-vertices must be at least 1")
    if args.max_edges < 0:
        raise GraphError("--max-edges must be nonnegative")
    if args.count < 0:
        raise GraphError("--count must be nonnegative")
    passed = 0
    total = 0
    for index, g in enumerate(
        graph_stream(args.seed, args.count, args.max_vertices, args.max_edges)
    ):
        env = build_envelope(g, with_center=True, verify=True)
        total += 1
        ok = not _verification_failed(env)
        passed += ok
        if not ok:
            _report_failure(args.seed, index, g, env)
        if args.fmt == "json":
            out.write(env.dumps(index=index) + "\n")
        else:
            out.write(f"--- graph {index} ---\n")
            _emit(env, args.fmt, out)
    out.write(f"summary: {passed}/{total} verified\n")
    return EXIT_OK if passed == total else EXIT_VERIFY


def _report_failure(seed: int, index: int, g: Graph, env: Envelope) -> None:
    """The replay witness of a campaign graph that failed verification: a
    line naming the seed, the index and the first failing generator, then
    the graph document on one line, ready for `lpa center --verify`."""
    label, res = next((label, res) for label, res in env.verification if not res.central)
    print(
        f"lpa: --seed {seed} graph {index}: {label} does not commute with {res.witness}",
        file=sys.stderr,
    )
    print(json.dumps(g.to_document()), file=sys.stderr)


def cmd_schema(out) -> int:
    out.write(json.dumps(load_schema(), indent=2) + "\n")
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out = sys.stdout
    try:
        if args.command == "classify":
            return cmd_classify(args, out)
        if args.command == "center":
            return cmd_center(args, out)
        if args.command == "random":
            return cmd_random(args, out)
        return cmd_schema(out)
    except ValueError as exc:
        print(f"lpa: input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except InvariantError as exc:
        print(f"lpa: internal invariant breach: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
