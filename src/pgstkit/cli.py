"""Command line interface.

Three subcommands:

* analyze: exact cospectrality analysis and certification of one pair,
  optionally followed by a numeric simulation.
* construct: build a certifiable instance from a base graph by one of the
  four recipes (glue-path, glue-pot, change-trace, equitable) and certify
  it.
* simulate: numeric fidelity scan only; all potentials must be numbers
  once --potential-value is applied.

Graphs are given either as @NAME fixture references or as paths to files
in the text format (see graphs module). Reports are JSON on stdout with
schema field 1; identical invocations print identical bytes.

Exit codes: 0 success, 1 parse failure or a closed stdout, 2 precondition or
domain failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from fractions import Fraction
from pathlib import Path

from . import certify as certify_mod
from . import walk
from .errors import DomainError, NotCospectralError, ParseError, StructuralError
from .exact import SparsePoly
from .fixtures import get_fixture
from .graphs import (
    Graph,
    add_apex,
    add_potential,
    glue_path,
    graph_digest,
    parse_graph_text,
    serialize_graph_text,
    to_matrix,
)
from .spectral import CospectralDecomposition, decompose

SCHEMA_VERSION = 1
DEFAULT_SURROGATE = math.pi


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        report = args.handler(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DomainError, StructuralError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        print(_dumps(report))
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout. Point it at devnull, so that the flush at
        # exit finds nowhere to fail.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return 0


# Text of each JSON scalar type, as the json module writes it.
_TEXT = {
    str: json.encoder.encode_basestring_ascii,
    int: int.__repr__,
    float: float.__repr__,
    bool: {False: "false", True: "true"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
}


class _Unwritten(Exception):
    """A value that ``_write`` leaves to ``json.dumps``."""


def _dumps(report) -> str:
    """``json.dumps(report, indent=2, allow_nan=False)``, built directly.

    The json module writes indented text with its pure-Python encoder,
    which costs more than a large report's numeric work. A list of
    same-shape records, such as a report's relations, is written by one
    %-format (see ``_records``), and any other value item by item. A value
    of another type than dict, list, tuple or a scalar of ``_TEXT``, and a
    non-finite float, go to ``json.dumps`` itself, which writes them or
    raises its own error.
    """
    out: list[str] = []
    try:
        _write(report, "\n", out)
    except _Unwritten:
        return json.dumps(report, indent=2, allow_nan=False)
    return "".join(out)


def _write(obj, newline: str, out: list[str]) -> None:
    """Append obj's JSON text to out; newline ends the line before obj's
    closing bracket and holds its indent.

    A list of two or more dicts of one shape takes the record path,
    ``_records``; a list it declines, like any other container, is written
    item by item."""
    kind = type(obj)
    text = _TEXT.get(kind)
    if text is not None:
        out.append(_finite(text(obj), kind))
    elif not obj and (kind is dict or kind is list or kind is tuple):
        out.append("{}" if kind is dict else "[]")
    elif kind is dict:
        inner = newline + "  "
        sep = "{" + inner
        for key, value in obj.items():
            out += (sep, _key(key), ": ")
            _write(value, inner, out)
            sep = "," + inner
        out.append(newline + "}")
    elif kind is list or kind is tuple:
        inner = newline + "  "
        kinds = set(map(type, obj))
        kind = kinds.pop() if len(kinds) == 1 else None
        text = _TEXT.get(kind)
        if text is not None:  # items of one scalar type: no call per item
            out += ("[", inner, _finite(("," + inner).join(map(text, obj)), kind), newline, "]")
        elif kind is dict and len(obj) > 1 and (records := _records(obj, inner)) is not None:
            out += ("[", inner, records, newline, "]")
        else:
            sep = "[" + inner
            for item in obj:
                out.append(sep)
                _write(item, inner, out)
                sep = "," + inner
            out.append(newline + "]")
    else:
        raise _Unwritten


def _records(dicts, newline: str) -> str | None:
    """The items of a list of dicts of one shape, joined, from one %-format
    of a record template built from the first dict; None for a list of
    another kind, which ``_write`` then writes item by item.

    One shape: the same string keys in the same order, each value an
    exact int (``%d``), a finite float, or a nonempty list of one of
    those, with one type and one list length down each column. A ``%`` in
    a key is written ``%%``. A bool, an int or float subclass, a
    non-finite float, a string, None, a nested container, an empty or
    ragged list and an empty dict all return None. A float column goes in
    as its reprs (``%s``), which also show whether every float is finite.
    """
    from itertools import chain

    first = dicts[0]
    keys = tuple(first)
    if set(map(type, keys)) != {str} or set(map(tuple, dicts)) != {keys}:
        return None
    inner, nested = newline + "  ", newline + "    "
    fields, columns = [], []
    for key, column in zip(keys, zip(*map(dict.values, dicts))):
        value = first[key]
        listed = type(value) is list
        if not listed:
            parts = [column]
        elif value and set(map(type, column)) == {list} and set(map(len, column)) == {len(value)}:
            parts = list(zip(*column))
        else:
            return None
        slots = []
        for part in parts:
            kinds = set(map(type, part))
            if kinds == {int}:
                slots.append("%d")
            elif kinds == {float}:
                part = list(map(float.__repr__, part))
                if "n" in "".join(part):  # inf or nan: a finite repr has no n
                    return None
                slots.append("%s")
            else:
                return None
            columns.append(part)
        text = "[" + nested + ("," + nested).join(slots) + inner + "]" if listed else slots[0]
        fields.append(_key(key).replace("%", "%%") + ": " + text)
    template = "{" + inner + ("," + inner).join(fields) + newline + "}"
    return ("," + newline).join([template] * len(dicts)) % tuple(chain.from_iterable(zip(*columns)))


def _finite(text: str, kind: type) -> str:
    """text, unless it holds a float's inf or nan (a finite repr has no n)."""
    if kind is float and "n" in text:
        raise _Unwritten
    return text


def _key(key) -> str:
    """A dict key as json writes it: a string, or a scalar's text quoted."""
    kind = type(key)
    if kind is str:
        return _TEXT[str](key)
    if kind not in _TEXT:
        raise _Unwritten
    return '"' + _finite(_TEXT[kind](key), kind) + '"'


class _ArgumentParser(argparse.ArgumentParser):
    """argparse's usage errors raise ParseError: one error line, exit 1."""

    def error(self, message: str):
        raise ParseError(message)


@functools.cache  # one parser per process; parse_args leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="pgstkit",
        description="exact certificates and numeric scans for pretty good state transfer",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="certify one vertex pair")
    _add_graph_args(pa)
    pa.add_argument("--potential", help="symbol or rational to add at both vertices")
    pa.add_argument("--simulate", action="store_true", help="also run a numeric scan")
    pa.add_argument("--tmax", type=float, default=100.0)
    pa.add_argument("--steps", type=int, default=4000)
    pa.add_argument(
        "--potential-value",
        help="numeric surrogate for potential symbols (default pi)",
    )
    pa.add_argument("--relation-bound", type=int, default=3)
    pa.add_argument("--relation-precision", type=float, default=1e-9)
    pa.set_defaults(handler=cmd_analyze)

    pc = sub.add_parser("construct", help="build and certify an instance")
    pc.add_argument(
        "kind", choices=["glue-path", "glue-pot", "change-trace", "equitable"]
    )
    _add_graph_args(pc)
    pc.add_argument("--q", help="glue-path edge count, or 'auto'")
    pc.add_argument("--k", type=int, help="path vertex count for glue-pot/change-trace")
    pc.add_argument("--potential", default="Q", help="pair potential symbol")
    pc.add_argument("--sym", default="Qp", help="center symbol for change-trace")
    pc.add_argument("--w", help="third vertex for equitable (default: attach apex)")
    pc.add_argument("--sym1", default="Q1", help="pair symbol for equitable")
    pc.add_argument("--sym2", default="Q2", help="outside symbol for equitable")
    pc.add_argument("--out", help="write the constructed graph text here")
    pc.set_defaults(handler=cmd_construct)

    ps = sub.add_parser("simulate", help="numeric fidelity scan")
    _add_graph_args(ps)
    ps.add_argument("--potential", help="symbol or rational to add at both vertices")
    ps.add_argument("--potential-value", help="numeric value for potential symbols")
    ps.add_argument("--tmax", type=float, default=100.0)
    ps.add_argument("--steps", type=int, default=4000)
    ps.add_argument("--csv", help="write the t,fidelity series here")
    ps.set_defaults(handler=cmd_simulate)
    return parser


def _add_graph_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("graph", help="@FIXTURE or path to a graph text file")
    p.add_argument("--u", required=True, help="first vertex (label or index)")
    p.add_argument("--v", required=True, help="second vertex (label or index)")


# ---------------------------------------------------------------------------
# shared plumbing


def _load_graph(ref: str) -> tuple[Graph, str]:
    if ref.startswith("@"):
        try:
            fx = get_fixture(ref)
        except DomainError as exc:
            raise ParseError(str(exc)) from exc
        return fx.graph, fx.name
    path = Path(ref)
    if not path.is_file():
        raise ParseError(f"no such graph file: {ref}")
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read graph file {ref}: {exc}") from None
    return parse_graph_text(text), str(path)


def _load_pair(args) -> tuple[Graph, str, int, int]:
    """The graph named by args.graph, its source, and the distinct pair --u, --v."""
    g, source = _load_graph(args.graph)
    u = _resolve_vertex(g, args.u)
    v = _resolve_vertex(g, args.v)
    if u == v:
        raise DomainError("u and v must differ")
    return g, source, u, v


def _write_output(path: str, write) -> None:
    """Call write on path opened for writing; an OS error becomes a DomainError."""
    try:
        with open(path, "w") as fh:
            write(fh)
    except OSError as exc:
        raise DomainError(f"cannot write {path}: {exc.strerror or exc}") from None


def _resolve_vertex(g: Graph, token: str) -> int:
    if token in g.labels:
        return g.labels.index(token)
    try:
        idx = int(token)
    except ValueError:
        raise DomainError(f"no vertex labeled {token!r}") from None
    if not (0 <= idx < g.n):
        raise DomainError(f"vertex index {idx} out of range 0..{g.n - 1}")
    return idx


def _parse_potential(text: str) -> tuple[SparsePoly, str | None]:
    """Parse a potential flag; returns the value and its symbol if any."""
    value = SparsePoly.parse(text)
    if not value.is_t_free():
        raise DomainError("potentials cannot involve t")
    syms = value.symbols
    if len(syms) > 1:
        raise DomainError(f"potential may use at most one symbol, got {syms}")
    return value, (syms[0] if syms else None)


def _parse_value(text: str) -> float:
    if text.strip().lower() == "pi":
        return math.pi
    try:
        value = float(Fraction(text)) if "/" in text else float(text)
    except (ValueError, ZeroDivisionError, OverflowError):
        raise ParseError(f"bad numeric value {text!r}") from None
    if not math.isfinite(value):
        raise ParseError(f"numeric value must be finite, got {text!r}")
    return value


def _input_block(source: str, g: Graph, u: int, v: int) -> dict:
    return {
        "source": source,
        "digest": graph_digest(g),
        "n": g.n,
        "u": {"index": u, "label": g.labels[u]},
        "v": {"index": v, "label": g.labels[v]},
    }


def _exact_block(dec: CospectralDecomposition | None) -> dict:
    if dec is None:
        return {"cospectral": False, "strongly_cospectral": False, "decomposition": None}
    return {
        "cospectral": True,
        "strongly_cospectral": dec.common_factor.is_one(),
        "decomposition": dec.as_json_dict(),
    }


def _numeric_block(
    g: Graph,
    u: int,
    v: int,
    tmax: float,
    steps: int,
    surrogate: float | None,
) -> tuple[dict, object]:
    params = {s: surrogate for s in g.symbols()} if surrogate is not None else {}
    matrix = walk.numeric_adjacency(g, params)
    spectrum = walk.sym_eig(matrix)
    scan = walk.fidelity_scan(spectrum, u, v, tmax, steps)
    block = {
        "substitutions": {k: params[k] for k in sorted(params)},
        "pgst_ceiling": walk.pgst_ceiling(spectrum, u, v),
        "numeric_strongly_cospectral": walk.numeric_strong_cospectral(spectrum, u, v),
        "best_time": scan.best_time,
        "best_fidelity": scan.best_fidelity,
        "t_max": scan.t_max,
        "steps": steps,
    }
    return block, (spectrum, scan)


# ---------------------------------------------------------------------------
# subcommands


def cmd_analyze(args) -> dict:
    g, source, u, v = _load_pair(args)

    sym: str | None = None
    if args.potential is not None:
        value, sym = _parse_potential(args.potential)
        g = add_potential(g, (u, v), value)
    # the numeric flags are checked before any exact or numeric work, with or without --simulate
    surrogate = DEFAULT_SURROGATE if args.potential_value is None else _parse_value(args.potential_value)
    walk._check_grid(args.tmax, args.steps)
    certify_mod._check_relation_limits(args.relation_bound, args.relation_precision)

    try:
        dec = decompose(to_matrix(g), u, v)
    except NotCospectralError:
        dec = None

    if dec is None:
        certificate = certify_mod.Certificate(
            certify_mod.Verdict.INCONCLUSIVE,
            {
                "failed_hypothesis": "cospectrality",
                "reason": "the pair is not cospectral, so no route applies",
            },
        )
    else:  # tr-deg when a symbol is given, then parity, then no route
        certificate = certify_mod.certify_tr_deg(g, u, v, sym, dec) if sym is not None else None
        if certificate is None or certificate.verdict is not certify_mod.Verdict.PROVEN_PGST:
            certificate = certify_mod.parity_obstruction(dec) or certificate
        if certificate is None:
            certificate = certify_mod.Certificate(
                certify_mod.Verdict.INCONCLUSIVE,
                {
                    "failed_hypothesis": "no_applicable_route",
                    "reason": "no potential symbol was given and the parity "
                    "obstruction does not apply",
                },
            )

    report = {
        "schema": SCHEMA_VERSION,
        "command": "analyze",
        "input": _input_block(source, g, u, v),
        "potential": args.potential,
        "exact": _exact_block(dec),
        "certificate": certificate.as_json_dict(),
    }
    if args.simulate:
        report["numeric"], (spectrum, _) = _numeric_block(g, u, v, args.tmax, args.steps, surrogate)
        if certificate.verdict is certify_mod.Verdict.INCONCLUSIVE:
            lambdas, mus = walk.classify_spectrum(spectrum, u, v)
            heur = certify_mod.heuristic_obstruction(
                lambdas, mus, args.relation_bound, args.relation_precision
            )
            if heur is not None:
                heur.evidence["exact_certificate"] = certificate.as_json_dict()
                report["certificate"] = heur.as_json_dict()
    return report


def cmd_construct(args) -> dict:
    g, source, u, v = _load_pair(args)

    detail: dict = {}
    if args.kind == "equitable":
        if args.w is None:
            base, w = add_apex(g, u, v)
            detail["apex_added"] = True
        else:
            base, w = g, _resolve_vertex(g, args.w)
            detail["apex_added"] = False
        detail["w"] = {"index": w, "label": base.labels[w]}
        detail["symbols"] = [args.sym1, args.sym2]
        certificate, built = certify_mod._certify_equitable(base, u, v, w, args.sym1, args.sym2)
    elif args.kind == "glue-path":
        if args.q is None:
            raise DomainError("glue-path needs --q <edges> or --q auto")
        if args.q == "auto":
            q = certify_mod.choose_glue_length(g, u, v)
            detail["q_mode"] = "auto"
        else:
            try:
                q = int(args.q)
            except ValueError:
                raise ParseError(f"bad --q value {args.q!r}") from None
            detail["q_mode"] = "explicit"
        detail["q"] = q
        built = glue_path(g, u, v, q)
    elif args.k is None:
        raise DomainError("this construction needs --k <odd vertex count>")
    elif args.kind == "glue-pot":
        detail["k"] = args.k
        built = certify_mod.build_glue_pot(g, u, v, args.k)
        detail["path_potential"] = str(built.potential(u) - g.potential(u))
    else:  # change-trace
        detail["k"] = args.k
        built = certify_mod.build_change_trace(g, u, v, args.k, args.sym)
        detail["center_symbol"] = args.sym
    if args.kind != "equitable":  # the path recipes share one tail
        sym = _require_symbol_flag(args.potential)
        if sym == detail.get("center_symbol"):
            raise DomainError("pair symbol and center symbol must differ")
        built = _add_pair_symbol(built, u, v, sym)
        certificate = certify_mod.certify_tr_deg(built, u, v, sym)

    graph_text = serialize_graph_text(built)
    if args.out:
        _write_output(args.out, lambda fh: fh.write(graph_text))

    report = {
        "schema": SCHEMA_VERSION,
        "command": "construct",
        "kind": args.kind,
        "input": _input_block(source, g, u, v),
        "construction": detail,
        "result": {
            "n": built.n,
            "digest": graph_digest(built),
            "graph": graph_text,
            "labels": list(built.labels),
        },
        "certificate": certificate.as_json_dict(),
    }
    if args.out:
        report["out"] = args.out
    return report


def _require_symbol_flag(token: str) -> str:
    value, sym = _parse_potential(token)
    if sym is None or value != SparsePoly.sym(sym):
        raise DomainError(f"--potential must be a bare symbol here, got {token!r}")
    return sym


def _add_pair_symbol(g: Graph, u: int, v: int, sym: str) -> Graph:
    if sym in g.symbols():
        raise DomainError(f"symbol {sym!r} already occurs in the graph")
    return add_potential(g, (u, v), SparsePoly.sym(sym))


def cmd_simulate(args) -> dict:
    g, source, u, v = _load_pair(args)
    if args.potential is not None:
        value, _ = _parse_potential(args.potential)
        g = add_potential(g, (u, v), value)
    syms = g.symbols()
    if syms and args.potential_value is None:
        raise DomainError(
            f"graph carries symbols {list(syms)}; pass --potential-value to bind them"
        )
    surrogate = _parse_value(args.potential_value) if args.potential_value is not None else None
    walk._check_grid(args.tmax, args.steps)
    numeric, (_, scan) = _numeric_block(g, u, v, args.tmax, args.steps, surrogate)
    report = {
        "schema": SCHEMA_VERSION,
        "command": "simulate",
        "input": _input_block(source, g, u, v),
        "numeric": numeric,
    }
    if args.csv:
        _write_output(args.csv, lambda fh: walk.write_fidelity_csv(scan, fh))
        report["csv"] = args.csv
    return report


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
