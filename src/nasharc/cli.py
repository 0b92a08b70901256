"""Command line front end.

Subcommands: ``graph check``, ``cluster build``, ``val compare``,
``val ord``, ``adj obstruct``, ``adj table``, ``euler bound``,
``dfd check``, ``pair canon``.  Every command accepts
``--format text|structured``; structured output is a single JSON document
that parses back to the in-memory report.  Each command computes and
words only its own result; one skeleton (``_report``) stamps the schema and
the command, adds the lattice block, renders each matrix it is handed (in
the format asked for only) and prints.  Reports echo the exact
intersection matrix and its inverse so the sign conventions can be audited
downstream; for a cluster M comes from its one simulation and the inverse
is minus the curvette rows its replay keeps, built from the proximities
and checked against its lattice with no elimination; M itself is swept
once by ``cluster build`` (det M) and ``adj obstruct --returns`` (solves).

Exit codes: 0 analysis completed (the verdict lives inside the report),
2 input or validation error, 3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

from . import __version__
from .canonical import canonical_key
from .clusters import (
    BlowupCluster,
    canonical_coeffs,
    cluster_fixture,
    cluster_fixture_names,
    cluster_from_doc,
    intersection_from_proximity,
    pair_graph,
    proximity_matrix,
    simulate,
)
from .dual_graphs import (
    DualGraph,
    fixture_names,
    graph_from_doc,
    intersection_matrix,
    standard_fixture,
)
from .errors import InternalInvariantError, NashArcError, SingularMatrixError, ValidationError
from .euler_bounds import EulerInput, b0_bound, balls_bound, contradiction_certificate, tubes_bound
from .exact_linalg import ExactMatrix, check_inverse_nonpositive, is_negative_definite
from .lifting import WedgeNumericalModel, lifting_verdict, solve_b, verify_numerical
from .obstructions import (
    KnowledgeBase,
    ObstructionStatus,
    adjacency_table,
    returns_system,
    valuative_obstruction,
)
from .polynomials import parse_poly
from .rationals import format_rational, parse_rational
from .valuations import compare, curvette_order_rows, ord_poly

REPORT_SCHEMA = "report/1"
MAX_DOCUMENT_BYTES = 4 * 1024 * 1024  # a longer input document is refused unparsed (README)
_READ_CHUNK = 64 * 1024  # documents are read in chunks, so a small one needs no limit-sized buffer

# resolved path -> the verdict store kept for the process; each request then
# parses only the records appended since the last (see KnowledgeBase)
_STORES: dict[str, KnowledgeBase] = {}


def _read_json(path: str) -> dict:
    try:
        with open(path, "rb") as handle:
            data = bytearray()
            while len(data) <= MAX_DOCUMENT_BYTES and (chunk := handle.read(_READ_CHUNK)):
                data += chunk
        if len(data) > MAX_DOCUMENT_BYTES:
            raise ValidationError(f"{path}: documents are limited to {MAX_DOCUMENT_BYTES} bytes")
        return json.loads(data.decode("utf-8"))
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path} is not UTF-8 text: {exc.reason}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"{path} is not valid JSON (line {exc.lineno}, column {exc.colno}): {exc.msg}"
        ) from exc
    except (RecursionError, ValueError) as exc:  # nested too deep, or past the digit limit
        raise ValidationError(f"{path} is not a readable JSON document: {exc}") from None


@contextlib.contextmanager
def _naming(path: str):
    """Prefix ``path: `` to a ValidationError raised while reading the file's document."""
    try:
        yield
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None


def _strip_fixture_prefix(name: str) -> str:
    for prefix in ("fixtures/", "fixture:"):
        if name.startswith(prefix):
            return name[len(prefix):]
    return name


# each kind of command input: its document reader, its fixture lookup and the fixtures it names
_INPUTS = {
    "graph": (graph_from_doc, standard_fixture, fixture_names(), ""),
    "cluster":
        (cluster_from_doc, cluster_fixture, cluster_fixture_names(), " (chainN for any small N)"),
}


def _load_input(source: str, kind: str):
    """A path to a ``kind`` document, or the name of a built-in ``kind`` fixture."""
    from_doc, fixture, names, more = _INPUTS[kind]
    if os.path.exists(source):
        doc = _read_json(source)
        with _naming(source):
            return from_doc(doc)
    try:
        return fixture(_strip_fixture_prefix(source))
    except ValidationError:
        raise ValidationError(
            f"{source!r} is neither a readable file nor one of the {kind} fixtures "
            f"{', '.join(names)}{more}"
        ) from None


def _parse_int_csv(text: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))  # an empty field is refused
    except ValueError as exc:
        raise ValidationError(f"--{what} expects comma-separated integers, got {text!r}") from exc


def _parse_vertex_id(text: str, ids):
    """The int ``text`` spells when that names a vertex or the text does not, else the text."""
    try:
        number = int(text)
    except ValueError:
        return text
    return number if number in ids or text not in ids else text


def _lattice(M: ExactMatrix, inverse: ExactMatrix | None) -> list[tuple[str, ExactMatrix]]:
    """The lattice block of a text report, unrendered: M, then M^-1 when there is one."""
    return [("intersection matrix M", M)] + ([] if inverse is None else [("inverse M^-1", inverse)])


def _cluster_lattice(cluster: BlowupCluster) -> tuple[DualGraph, ExactMatrix, ExactMatrix]:
    """The simulated graph, its lattice M and M^-1 read off the curvette rows the replay keeps."""
    graph = simulate(cluster)
    return graph, intersection_matrix(graph), ExactMatrix(curvette_order_rows(cluster)).neg()


def _report(args, fields: dict, lines: list, M=None, inverse=None) -> int:
    """Print one report, as text lines or as a JSON document; the exit code is 0.  The one
    place a matrix is rendered: a ``(title, matrix)`` line, a matrix field, M and M^-1."""
    if args.format == "text":
        text = []
        for line in lines:
            if isinstance(line, str):
                text.append(line)
            else:
                title, matrix = line
                text.append(f"{title}:")
                text += ("  [" + "  ".join(map(format_rational, row)) + "]" for row in matrix.rows)
        print(*text, sep="\n")
        return 0
    report = {"schema": REPORT_SCHEMA, "command": f"{args.group} {args.action}"}
    report.update((k, v.to_doc() if isinstance(v, ExactMatrix) else v) for k, v in fields.items())
    if M is not None:
        report["matrices"] = {
            "M": M.to_doc(),
            "M_inverse": None if inverse is None else inverse.to_doc(),
        }
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0


def _write_dot(graph: DualGraph, path: str, fields: dict, lines: list):
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(graph.to_dot())
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc.strerror}") from exc
    lines.append(f"DOT export written to {path}")
    fields["dot_path"] = path


# -- command implementations ----------------------------------------------------


def _cmd_graph_check(args) -> int:
    graph = _load_input(args.input, "graph")
    M = intersection_matrix(graph)
    connected = graph.is_connected()
    neg_def = is_negative_definite(M)
    det = M.determinant()
    inverse = sign = None
    lines = [
        f"graph: {graph.n} vertices, {len(graph.edges)} edges, "
        f"{'connected' if connected else 'disconnected'}",
        ("intersection matrix M", M),
        f"negative definite: {'yes' if neg_def else 'no'}",
        f"det(M) = {format_rational(det)}",
    ]
    if det != 0:
        inverse = M.inverse()
        sign = check_inverse_nonpositive(M)
        lines.append(("inverse M^-1", inverse))
        if sign.strictly_negative:
            lines.append("inverse sign: all entries strictly negative")
        elif sign.all_nonpositive:
            lines.append(f"inverse sign: non-positive with {len(sign.zero_entries)} zero entries")
        else:
            lines.append(f"inverse sign: {len(sign.offending_entries)} positive entries")
    else:
        lines.append("matrix is singular; no inverse")
    fields = {
        "graph": graph.to_doc(),
        "connected": connected,
        "negative_definite": neg_def,
        "determinant": format_rational(det),
        "inverse_sign": None if sign is None else sign.to_doc(),
    }
    if args.export_dot:
        _write_dot(graph, args.export_dot, fields, lines)
    return _report(args, fields, lines, M, inverse)


def _cmd_cluster_build(args) -> int:
    cluster = _load_input(args.input, "cluster")
    graph, M, inverse = _cluster_lattice(cluster)
    P = proximity_matrix(cluster)
    if intersection_from_proximity(P).rows != M.rows:
        raise InternalInvariantError("simulated intersection matrix disagrees with -P^t P")
    coeffs = canonical_coeffs(cluster)
    det = format_rational(M.determinant())
    lines = [
        f"cluster: {cluster.n} points",
        ("proximity matrix P", P),
        ("intersection matrix M (= -P^t P, cross-checked)", M),
        ("inverse M^-1", inverse),
        f"det(M) = {det}",
        "canonical coefficients: (" + ", ".join(map(str, coeffs)) + ")",
        "dual graph: " + ", ".join(f"{v.id}:{v.self_int}" for v in graph.vertices)
        + " | edges " + ", ".join(f"{a}-{b}" for a, b in graph.edges),
    ]
    fields = {
        "cluster": cluster.to_doc(),
        "graph": graph.to_doc(),
        "proximity_matrix": P,
        "determinant": det,
        "canonical_coefficients": list(coeffs),
    }
    if args.dot:
        _write_dot(graph, args.dot, fields, lines)
    return _report(args, fields, lines, M, inverse)


def _cmd_val_compare(args) -> int:
    cluster = _load_input(args.input, "cluster")
    result = compare(cluster, args.e, args.f)
    _, M, inverse = _cluster_lattice(cluster)
    rows = curvette_order_rows(cluster)
    lines = [
        f"compare components {args.e} and {args.f}: {result.value}",
        f"order row of {args.e}: {rows[args.e]}",
        f"order row of {args.f}: {rows[args.f]}",
    ]
    fields = {
        "e": args.e,
        "f": args.f,
        "comparison": result.value,
        "order_rows": {str(args.e): list(rows[args.e]), str(args.f): list(rows[args.f])},
    }
    return _report(args, fields, lines + _lattice(M, inverse), M, inverse)


def _cmd_val_ord(args) -> int:
    cluster = _load_input(args.input, "cluster")
    poly = parse_poly(args.poly)
    value = ord_poly(cluster, poly, args.e)
    _, M, inverse = _cluster_lattice(cluster)
    lines = [f"ord of {poly} along component {args.e}: {value}"]
    fields = {"e": args.e, "polynomial": str(poly), "ord": value}
    return _report(args, fields, lines + _lattice(M, inverse), M, inverse)


def _cmd_adj_obstruct(args) -> int:
    cluster = _load_input(args.input, "cluster")
    verdict = valuative_obstruction(cluster, args.e, args.f)
    _, M, inverse = _cluster_lattice(cluster)
    lines = [
        f"adjacency {verdict.adjacency}: {verdict.status.value}",
        f"  {verdict.detail}",
    ]
    fields = {"e": args.e, "f": args.f, "valuative": verdict.to_doc()}
    if args.returns is not None:
        b = _parse_int_csv(args.returns, "returns")
        special = args.special if args.special is not None else args.f
        result = returns_system(M, b, special, require_no_lift=not args.allow_lift)
        lines += [
            f"returns system (b = {b}, special = {special}): {result.verdict.status.value}",
            "  solution a = (" + ", ".join(format_rational(v) for v in result.solution) + ")",
            f"  {result.verdict.detail}",
            "  printed-orientation solution = ("
            + ", ".join(format_rational(v) for v in result.printed_solution)
            + ")",
        ]
        fields["returns_system"] = result.to_doc()
        fields["returns_special"] = special
    return _report(args, fields, lines + _lattice(M, inverse), M, inverse)


def _cmd_adj_table(args) -> int:
    cluster = _load_input(args.input, "cluster")
    table = sorted(adjacency_table(cluster).items())
    _, M, inverse = _cluster_lattice(cluster)
    lines = [f"adjacency table over {cluster.n} components (row f into column e):"]
    for (e, f), verdict in table:
        mark = "ruled out" if verdict.ruled_out else "not ruled out"
        lines.append(f"  N_{f} in N_{e}: {mark}")
    fields = {"verdicts": [{"e": e, "f": f, **verdict.to_doc()} for (e, f), verdict in table]}
    return _report(args, fields, lines + _lattice(M, inverse), M, inverse)


def _cmd_euler_bound(args) -> int:
    graph = _load_input(args.input, "graph")
    coeffs = _parse_int_csv(args.coeffs, "coeffs")
    data = EulerInput(graph, coeffs, _parse_vertex_id(args.attach, graph.ids))
    cert = contradiction_certificate(data)
    parts = {
        "b0": b0_bound(data),
        "balls": balls_bound(data),
        "tubes": tubes_bound(data),
        "final": cert.bound,
    }
    M = intersection_matrix(graph)
    try:
        inverse = M.inverse()
    except SingularMatrixError:
        inverse = None
    lines = [
        f"attachment ball bound: {parts['b0']}",
        f"crossing balls bound:  {parts['balls']}",
        f"tubes bound:           {parts['tubes']}",
        f"final bound:           {parts['final']}  (assembly identity verified)",
    ]
    if cert.minimality_flags:
        lines.append(
            "certificate withheld: genus-0 (-1)-vertices "
            + ", ".join(map(str, cert.minimality_flags))
            + " make the model non-minimal"
        )
    elif cert.contradicts_disk:
        lines.append("certificate: a nearby member cannot normalize to a disk (bound < 1)")
    else:
        lines.append("no contradiction: bound does not exclude a disk")
    fields = {"bounds": parts, "certificate": cert.to_doc()}
    return _report(args, fields, lines + _lattice(M, inverse), M, inverse)


WEDGE_SCHEMA = "wedgemodel/1"


def _load_wedge_model(path: str, args) -> WedgeNumericalModel:
    doc = _read_json(path)
    if not isinstance(doc, dict):
        raise ValidationError(f"{path}: expected a JSON object")
    if doc.get("schema") != WEDGE_SCHEMA:
        raise ValidationError(f"{path}: schema: expected {WEDGE_SCHEMA!r}, got {doc.get('schema')!r}")
    cluster_field = doc.get("cluster")
    if isinstance(cluster_field, str):
        cluster = _load_input(cluster_field, "cluster")
    elif isinstance(cluster_field, dict):
        with _naming(path):
            cluster = cluster_from_doc(cluster_field)
    else:
        raise ValidationError(f"{path}: cluster: expected an inline document or a reference string")
    for field in ("special", "c", "d"):
        if field not in doc:
            raise ValidationError(f"{path}: missing field {field!r}")
    for field in ("c", "d", "coeffs", "b"):
        value = doc.get(field)
        if not isinstance(value, list) and (field in ("c", "d") or value is not None):
            raise ValidationError(f"{path}: {field}: expected a list")
    flags = {}
    for field in ("minimal_target", "assert_b1_lt_1", "assert_no_lift"):
        value = doc.get(field, False)
        if not isinstance(value, bool):
            raise ValidationError(f"{path}: {field}: expected true or false, got {value!r}")
        flags[field] = value or getattr(args, field)
    b = doc.get("b")
    coeffs = doc.get("coeffs")
    with _naming(path):  # a referenced cluster file has named itself above
        return WedgeNumericalModel(
            cluster=cluster,
            special=doc["special"],
            c=tuple(doc["c"]),
            d=tuple(doc["d"]),
            coeffs=None if coeffs is None else tuple(coeffs),
            b=None if b is None else tuple(parse_rational(v) for v in b),
            **flags,
        )


def _cmd_dfd_check(args) -> int:
    model = _load_wedge_model(args.input, args)
    _, M, inverse = _cluster_lattice(model.cluster)
    b = solve_b(model)
    lines = [
        "canonical coefficients a = (" + ", ".join(map(str, model.a)) + ")",
        "solved b = (" + ", ".join(format_rational(v) for v in b) + ")",
    ]
    fields = {"a": list(model.a), "b_solved": [format_rational(v) for v in b]}
    if model.b is not None:
        ok = verify_numerical(model)
        lines.append(f"supplied b verifies the identity: {'yes' if ok else 'no'}")
        fields["b_supplied"] = [format_rational(v) for v in model.b]
        fields["identity_holds"] = ok
    if model.minimal_target:
        verdict = lifting_verdict(model)
        lines.append(
            ("lifts" if verdict.lifts else "does not lift")
            + (" (CONTRADICTION)" if verdict.contradiction else "")
            + f": {verdict.reason}"
        )
        fields["lifting"] = verdict.to_doc()
    return _report(args, fields, lines + _lattice(M, inverse), M, inverse)


def _cmd_pair_canon(args) -> int:
    if args.store and not args.kb:
        raise ValidationError("--store needs --kb, the verdict store to record into")
    if args.provenance is not None and not args.store:
        raise ValidationError("--provenance needs --store, the verdict it annotates")
    cluster = _load_input(args.input, "cluster")
    graph = pair_graph(cluster, args.e, args.f)
    key = canonical_key(graph)
    lines = [
        f"pair graph of ({args.e}, {args.f}): "
        + ", ".join(
            f"{v.id}:{v.self_int}" + ("".join(f"[{t}]" for t in sorted(v.labels)) if v.labels else "")
            for v in graph.vertices
        ),
        f"canonical key: {key.as_text()}",
        f"key digest: {key.digest_hex()}",
    ]
    fields = {
        "e": args.e,
        "f": args.f,
        "pair_graph": graph.to_doc(),
        "canonical_key": key.as_text(),
        "key_digest": key.digest_hex(),
    }
    if args.kb:
        path = os.path.realpath(args.kb)
        kb = _STORES.get(path)
        if kb is None:  # built only on a miss: a setdefault default is built every time
            kb = _STORES[path] = KnowledgeBase(os.path.abspath(args.kb))
        if args.store:
            record = kb.store(key, ObstructionStatus(args.store), args.provenance or "")
            lines.append(f"stored verdict {record.status.value} in {args.kb}")
            fields["kb"] = {"action": "store", **record.to_doc()}
        else:
            record = kb.lookup(key)
            if record is None:
                lines.append(f"knowledge base {args.kb}: miss")
                fields["kb"] = {"action": "lookup", "hit": False}
            else:
                lines.append(
                    f"knowledge base {args.kb}: hit, verdict {record.status.value}"
                    + (f" ({record.provenance})" if record.provenance else "")
                )
                fields["kb"] = {"action": "lookup", "hit": True, **record.to_doc()}
    return _report(args, fields, lines)


# -- parser -----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nasharc",
        description="exact lattice and arc-adjacency analysis for surface resolutions",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    groups = parser.add_subparsers(dest="group", required=True)
    actions = {
        group: groups.add_parser(group, help=text).add_subparsers(dest="action", required=True)
        for group, text in (
            ("graph", "dual-graph lattice analysis"),
            ("cluster", "blow-up cluster analysis"),
            ("val", "divisorial valuations"),
            ("adj", "adjacency obstructions"),
            ("euler", "Euler-characteristic bounds"),
            ("dfd", "relative-canonical lifting bookkeeping"),
            ("pair", "canonical pair graphs and the verdict store"),
        )
    }

    def command(group, action, func, text, input_help=None, ints=()):
        """One subcommand: its input, the integer positionals ``ints`` and --format."""
        sub = actions[group].add_parser(action, help=text)
        sub.add_argument("input", help=input_help)
        for name in ints:
            sub.add_argument(name, type=int)
        sub.add_argument(
            "--format",
            choices=("text", "structured"),
            default="text",
            help="report as human-readable text or a JSON document",
        )
        sub.set_defaults(func=func)
        return sub

    command(
        "graph", "check", _cmd_graph_check, "validate and analyze a dual graph",
        "graph document path or fixture name (e.g. fixtures/E8)",
    ).add_argument("--export-dot", metavar="PATH", help="also write a DOT rendering")

    command(
        "cluster", "build", _cmd_cluster_build, "simulate a cluster and cross-check lattices",
        "cluster document path or fixture name (e.g. chain2)",
    ).add_argument("--dot", metavar="PATH", help="write the dual graph in DOT format")

    pair = ("e", "f")
    command("val", "compare", _cmd_val_compare, "compare two components' valuations", ints=pair)
    command(
        "val", "ord", _cmd_val_ord, "order of vanishing of a polynomial germ", ints=("e",)
    ).add_argument("--poly", required=True, help="germ, e.g. 'y - 1/2*x^2'")

    ao = command("adj", "obstruct", _cmd_adj_obstruct, "test the adjacency N_f in N_e", ints=pair)
    ao.add_argument("--returns", metavar="CSV", help="return counts b_0,...,b_r")
    ao.add_argument("--special", type=int, help="special component for the returns system (default f)")
    ao.add_argument("--allow-lift", action="store_true", help="do not require indeterminacy")
    command("adj", "table", _cmd_adj_table, "verdicts for all ordered pairs")

    eb = command(
        "euler", "bound", _cmd_euler_bound, "partial bounds, final bound and certificate",
        "graph document path or fixture name",
    )
    eb.add_argument("--coeffs", required=True, metavar="CSV", help="limit-divisor coefficients")
    eb.add_argument("--attach", required=True, help="id of the attachment vertex")

    dc = command(
        "dfd", "check", _cmd_dfd_check, "solve and audit the numerical identity",
        "wedge model document path",
    )
    for flag in ("--minimal-target", "--assert-b1-lt-1", "--assert-no-lift"):
        dc.add_argument(flag, action="store_true")

    pc = command(
        "pair", "canon", _cmd_pair_canon, "canonical key of a labeled pair graph", ints=pair
    )
    pc.add_argument("--kb", metavar="PATH", help="verdict store file")
    pc.add_argument(
        "--store",
        choices=tuple(s.value for s in ObstructionStatus),
        help="record this verdict under the pair's key",
    )
    pc.add_argument("--provenance", help="free-form note stored with the verdict (needs --store)")

    return parser


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InternalInvariantError as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return 3
    except NashArcError as exc:  # validation, singular matrix, verdict store
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main():  # pragma: no cover
    sys.exit(run())


if __name__ == "__main__":  # pragma: no cover
    main()
