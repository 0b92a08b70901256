"""Command line front end.

Subcommands: ``graph check``, ``cluster build``, ``val compare``,
``val ord``, ``adj obstruct``, ``adj table``, ``euler bound``,
``dfd check``, ``pair canon``.  Every command accepts
``--format text|structured``; structured output is a single JSON document
that parses back to the in-memory report.  Reports echo the exact
intersection matrix and its inverse so the sign conventions can be audited
downstream.

Exit codes: 0 analysis completed (the verdict lives inside the report),
2 input or validation error, 3 internal invariant violation.
"""

from __future__ import annotations

import argparse
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
    validate_graph_doc,
)
from .errors import (
    InternalInvariantError,
    KnowledgeBaseError,
    NashArcError,
    SingularMatrixError,
    ValidationError,
)
from .euler_bounds import (
    EulerInput,
    b0_bound,
    balls_bound,
    contradiction_certificate,
    final_bound,
    tubes_bound,
)
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
from .valuations import cluster_matrix, compare, curvette_order_rows, ord_poly

REPORT_SCHEMA = "report/1"


def _read_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc.strerror}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"{path} is not valid JSON (line {exc.lineno}, column {exc.colno}): {exc.msg}"
        ) from exc


def _strip_fixture_prefix(name: str) -> str:
    for prefix in ("fixtures/", "fixture:"):
        if name.startswith(prefix):
            return name[len(prefix):]
    return name


def load_graph_input(source: str) -> DualGraph:
    """A path to a graph document, or the name of a built-in fixture."""
    if os.path.exists(source):
        doc = _read_json(source)
        diags = validate_graph_doc(doc)
        if diags:
            raise ValidationError(f"{source}: " + "; ".join(diags))
        return graph_from_doc(doc)
    name = _strip_fixture_prefix(source)
    if name.upper() in fixture_names():
        return standard_fixture(name)
    raise ValidationError(
        f"{source!r} is neither a readable file nor one of the graph fixtures "
        f"{', '.join(fixture_names())}"
    )


def load_cluster_input(source: str) -> BlowupCluster:
    """A path to a cluster document, or the name of a built-in cluster fixture."""
    if os.path.exists(source):
        return cluster_from_doc(_read_json(source))
    name = _strip_fixture_prefix(source)
    try:
        return cluster_fixture(name)
    except ValidationError:
        raise ValidationError(
            f"{source!r} is neither a readable file nor one of the cluster fixtures "
            f"{', '.join(cluster_fixture_names())} (chainN for any small N)"
        ) from None


def _parse_int_csv(text: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(int(part.strip()) for part in text.split(",") if part.strip() != "")
    except ValueError as exc:
        raise ValidationError(f"--{what} expects comma-separated integers, got {text!r}") from exc


def _parse_vertex_id(text: str):
    try:
        return int(text)
    except ValueError:
        return text


def _matrix_block(M: ExactMatrix, inverse: ExactMatrix | None) -> dict:
    return {
        "M": M.to_doc(),
        "M_inverse": None if inverse is None else inverse.to_doc(),
    }


def _emit(report: dict, lines: list[str], fmt: str):
    if fmt == "structured":
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)


def _matrix_lines(title: str, M: ExactMatrix) -> list[str]:
    out = [f"{title}:"]
    for row in M.rows:
        out.append("  [" + "  ".join(format_rational(v) for v in row) + "]")
    return out


# -- command implementations ----------------------------------------------------


def _cmd_graph_check(args) -> int:
    graph = load_graph_input(args.input)
    M = intersection_matrix(graph)
    neg_def = is_negative_definite(M)
    det = M.determinant()
    inverse = None
    sign_doc = None
    lines = [
        f"graph: {graph.n} vertices, {len(graph.edges)} edges, "
        f"{'connected' if graph.is_connected() else 'disconnected'}",
    ]
    lines += _matrix_lines("intersection matrix M", M)
    lines.append(f"negative definite: {'yes' if neg_def else 'no'}")
    lines.append(f"det(M) = {format_rational(det)}")
    if det != 0:
        inverse = M.inverse()
        sign = check_inverse_nonpositive(M)
        sign_doc = sign.to_doc()
        lines += _matrix_lines("inverse M^-1", inverse)
        if sign.strictly_negative:
            lines.append("inverse sign: all entries strictly negative")
        elif sign.all_nonpositive:
            lines.append(f"inverse sign: non-positive with {len(sign.zero_entries)} zero entries")
        else:
            lines.append(f"inverse sign: {len(sign.offending_entries)} positive entries")
    else:
        lines.append("matrix is singular; no inverse")
    report = {
        "schema": REPORT_SCHEMA,
        "command": "graph check",
        "graph": graph.to_doc(),
        "connected": graph.is_connected(),
        "negative_definite": neg_def,
        "determinant": format_rational(det),
        "matrices": _matrix_block(M, inverse),
        "inverse_sign": sign_doc,
    }
    if args.export_dot:
        with open(args.export_dot, "w", encoding="utf-8") as handle:
            handle.write(graph.to_dot())
        lines.append(f"DOT export written to {args.export_dot}")
        report["dot_path"] = args.export_dot
    _emit(report, lines, args.format)
    return 0


def _cmd_cluster_build(args) -> int:
    cluster = load_cluster_input(args.input)
    graph = simulate(cluster)
    M = intersection_matrix(graph)
    P = proximity_matrix(cluster)
    cross = intersection_from_proximity(P)
    if cross.rows != M.rows:
        raise InternalInvariantError(
            "simulated intersection matrix disagrees with -P^t P"
        )
    coeffs = canonical_coeffs(cluster)
    inverse = M.inverse()
    lines = [f"cluster: {cluster.n} points"]
    lines += _matrix_lines("proximity matrix P", P)
    lines += _matrix_lines("intersection matrix M (= -P^t P, cross-checked)", M)
    lines += _matrix_lines("inverse M^-1", inverse)
    lines.append(f"det(M) = {format_rational(M.determinant())}")
    lines.append("canonical coefficients: (" + ", ".join(map(str, coeffs)) + ")")
    lines.append("dual graph: " + ", ".join(
        f"{v.id}:{v.self_int}" for v in graph.vertices
    ) + " | edges " + ", ".join(f"{a}-{b}" for a, b in graph.edges))
    report = {
        "schema": REPORT_SCHEMA,
        "command": "cluster build",
        "cluster": cluster.to_doc(),
        "graph": graph.to_doc(),
        "proximity_matrix": P.to_doc(),
        "matrices": _matrix_block(M, inverse),
        "determinant": format_rational(M.determinant()),
        "canonical_coefficients": list(coeffs),
    }
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as handle:
            handle.write(graph.to_dot())
        lines.append(f"DOT export written to {args.dot}")
        report["dot_path"] = args.dot
    _emit(report, lines, args.format)
    return 0


def _cmd_val_compare(args) -> int:
    cluster = load_cluster_input(args.input)
    result = compare(cluster, args.e, args.f)
    M = intersection_matrix(simulate(cluster))
    inverse = M.inverse()
    rows = curvette_order_rows(cluster)
    lines = [
        f"compare components {args.e} and {args.f}: {result.value}",
        f"order row of {args.e}: {rows[args.e]}",
        f"order row of {args.f}: {rows[args.f]}",
    ]
    lines += _matrix_lines("intersection matrix M", M)
    lines += _matrix_lines("inverse M^-1", inverse)
    report = {
        "schema": REPORT_SCHEMA,
        "command": "val compare",
        "e": args.e,
        "f": args.f,
        "comparison": result.value,
        "order_rows": {str(args.e): list(rows[args.e]), str(args.f): list(rows[args.f])},
        "matrices": _matrix_block(M, inverse),
    }
    _emit(report, lines, args.format)
    return 0


def _cmd_val_ord(args) -> int:
    cluster = load_cluster_input(args.input)
    poly = parse_poly(args.poly)
    value = ord_poly(cluster, poly, args.e)
    M = intersection_matrix(simulate(cluster))
    inverse = M.inverse()
    lines = [
        f"ord of {poly} along component {args.e}: {value}",
    ]
    lines += _matrix_lines("intersection matrix M", M)
    lines += _matrix_lines("inverse M^-1", inverse)
    report = {
        "schema": REPORT_SCHEMA,
        "command": "val ord",
        "e": args.e,
        "polynomial": str(poly),
        "ord": value,
        "matrices": _matrix_block(M, inverse),
    }
    _emit(report, lines, args.format)
    return 0


def _cmd_adj_obstruct(args) -> int:
    cluster = load_cluster_input(args.input)
    verdict = valuative_obstruction(cluster, args.e, args.f)
    M = intersection_matrix(simulate(cluster))
    inverse = M.inverse()
    lines = [
        f"adjacency {verdict.adjacency}: {verdict.status.value}",
        f"  {verdict.detail}",
    ]
    report = {
        "schema": REPORT_SCHEMA,
        "command": "adj obstruct",
        "e": args.e,
        "f": args.f,
        "valuative": verdict.to_doc(),
        "matrices": _matrix_block(M, inverse),
    }
    if args.returns is not None:
        b = _parse_int_csv(args.returns, "returns")
        special = args.special if args.special is not None else args.f
        result = returns_system(M, b, special, require_no_lift=not args.allow_lift)
        lines.append(
            f"returns system (b = {b}, special = {special}): {result.verdict.status.value}"
        )
        lines.append(
            "  solution a = (" + ", ".join(format_rational(v) for v in result.solution) + ")"
        )
        lines.append(f"  {result.verdict.detail}")
        lines.append(
            "  printed-orientation solution = ("
            + ", ".join(format_rational(v) for v in result.printed_solution)
            + ")"
        )
        report["returns_system"] = result.to_doc()
        report["returns_special"] = special
    lines += _matrix_lines("intersection matrix M", M)
    lines += _matrix_lines("inverse M^-1", inverse)
    _emit(report, lines, args.format)
    return 0


def _cmd_adj_table(args) -> int:
    cluster = load_cluster_input(args.input)
    table = adjacency_table(cluster)
    M = intersection_matrix(simulate(cluster))
    inverse = M.inverse()
    lines = [f"adjacency table over {cluster.n} components (row f into column e):"]
    for (e, f), verdict in sorted(table.items()):
        mark = "ruled out" if verdict.ruled_out else "not ruled out"
        lines.append(f"  N_{f} in N_{e}: {mark}")
    report = {
        "schema": REPORT_SCHEMA,
        "command": "adj table",
        "verdicts": [
            {"e": e, "f": f, **verdict.to_doc()} for (e, f), verdict in sorted(table.items())
        ],
        "matrices": _matrix_block(M, inverse),
    }
    lines += _matrix_lines("intersection matrix M", M)
    lines += _matrix_lines("inverse M^-1", inverse)
    _emit(report, lines, args.format)
    return 0


def _cmd_euler_bound(args) -> int:
    graph = load_graph_input(args.input)
    coeffs = _parse_int_csv(args.coeffs, "coeffs")
    data = EulerInput(graph, coeffs, _parse_vertex_id(args.attach))
    cert = contradiction_certificate(data)
    parts = {
        "b0": b0_bound(data),
        "balls": balls_bound(data),
        "tubes": tubes_bound(data),
        "final": final_bound(data),
    }
    M = intersection_matrix(graph)
    inverse = M.inverse() if M.determinant() != 0 else None
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
    report = {
        "schema": REPORT_SCHEMA,
        "command": "euler bound",
        "bounds": parts,
        "certificate": cert.to_doc(),
        "matrices": _matrix_block(M, inverse),
    }
    lines += _matrix_lines("intersection matrix M", M)
    if inverse is not None:
        lines += _matrix_lines("inverse M^-1", inverse)
    _emit(report, lines, args.format)
    return 0


WEDGE_SCHEMA = "wedgemodel/1"


def _load_wedge_model(path: str, args) -> WedgeNumericalModel:
    doc = _read_json(path)
    if doc.get("schema") != WEDGE_SCHEMA:
        raise ValidationError(f"{path}: schema: expected {WEDGE_SCHEMA!r}, got {doc.get('schema')!r}")
    cluster_field = doc.get("cluster")
    if isinstance(cluster_field, str):
        cluster = load_cluster_input(cluster_field)
    elif isinstance(cluster_field, dict):
        cluster = cluster_from_doc(cluster_field)
    else:
        raise ValidationError(f"{path}: cluster: expected an inline document or a reference string")
    for field in ("special", "c", "d"):
        if field not in doc:
            raise ValidationError(f"{path}: missing field {field!r}")
    b = doc.get("b")
    if b is not None:
        b = tuple(parse_rational(v) for v in b)
    coeffs = doc.get("coeffs")
    return WedgeNumericalModel(
        cluster=cluster,
        special=doc["special"],
        c=tuple(doc["c"]),
        d=tuple(doc["d"]),
        coeffs=None if coeffs is None else tuple(coeffs),
        b=b,
        minimal_target=bool(doc.get("minimal_target", False)) or args.minimal_target,
        assert_b1_lt_1=bool(doc.get("assert_b1_lt_1", False)) or args.assert_b1_lt_1,
        assert_no_lift=bool(doc.get("assert_no_lift", False)) or args.assert_no_lift,
    )


def _cmd_dfd_check(args) -> int:
    model = _load_wedge_model(args.input, args)
    M = cluster_matrix(model.cluster)
    inverse = M.inverse()
    b = solve_b(model)
    lines = [
        "canonical coefficients a = (" + ", ".join(map(str, model.a)) + ")",
        "solved b = (" + ", ".join(format_rational(v) for v in b) + ")",
    ]
    report = {
        "schema": REPORT_SCHEMA,
        "command": "dfd check",
        "a": list(model.a),
        "b_solved": [format_rational(v) for v in b],
        "matrices": _matrix_block(M, inverse),
    }
    if model.b is not None:
        ok = verify_numerical(model)
        lines.append(f"supplied b verifies the identity: {'yes' if ok else 'no'}")
        report["b_supplied"] = [format_rational(v) for v in model.b]
        report["identity_holds"] = ok
    if model.minimal_target:
        verdict = lifting_verdict(model)
        lines.append(
            ("lifts" if verdict.lifts else "does not lift")
            + (" (CONTRADICTION)" if verdict.contradiction else "")
            + f": {verdict.reason}"
        )
        report["lifting"] = verdict.to_doc()
    lines += _matrix_lines("intersection matrix M", M)
    lines += _matrix_lines("inverse M^-1", inverse)
    _emit(report, lines, args.format)
    return 0


def _cmd_pair_canon(args) -> int:
    cluster = load_cluster_input(args.input)
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
    report = {
        "schema": REPORT_SCHEMA,
        "command": "pair canon",
        "e": args.e,
        "f": args.f,
        "pair_graph": graph.to_doc(),
        "canonical_key": key.as_text(),
        "key_digest": key.digest_hex(),
    }
    if args.kb:
        kb = KnowledgeBase(args.kb)
        if args.store:
            status = ObstructionStatus(args.store)
            record = kb.store(key, status, args.provenance or "")
            lines.append(f"stored verdict {record.status.value} in {args.kb}")
            report["kb"] = {"action": "store", **record.to_doc()}
        else:
            record = kb.lookup(key)
            if record is None:
                lines.append(f"knowledge base {args.kb}: miss")
                report["kb"] = {"action": "lookup", "hit": False}
            else:
                lines.append(
                    f"knowledge base {args.kb}: hit, verdict {record.status.value}"
                    + (f" ({record.provenance})" if record.provenance else "")
                )
                report["kb"] = {"action": "lookup", "hit": True, **record.to_doc()}
    _emit(report, lines, args.format)
    return 0


# -- parser -----------------------------------------------------------------------


def _add_format(parser: argparse.ArgumentParser):
    parser.add_argument(
        "--format",
        choices=("text", "structured"),
        default="text",
        help="report as human-readable text or a JSON document",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nasharc",
        description="exact lattice and arc-adjacency analysis for surface resolutions",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    groups = parser.add_subparsers(dest="group", required=True)

    graph = groups.add_parser("graph", help="dual-graph lattice analysis")
    graph_actions = graph.add_subparsers(dest="action", required=True)
    check = graph_actions.add_parser("check", help="validate and analyze a dual graph")
    check.add_argument("input", help="graph document path or fixture name (e.g. fixtures/E8)")
    check.add_argument("--export-dot", metavar="PATH", help="also write a DOT rendering")
    _add_format(check)
    check.set_defaults(func=_cmd_graph_check)

    cluster = groups.add_parser("cluster", help="blow-up cluster analysis")
    cluster_actions = cluster.add_subparsers(dest="action", required=True)
    build = cluster_actions.add_parser("build", help="simulate a cluster and cross-check lattices")
    build.add_argument("input", help="cluster document path or fixture name (e.g. chain2)")
    build.add_argument("--dot", metavar="PATH", help="write the dual graph in DOT format")
    _add_format(build)
    build.set_defaults(func=_cmd_cluster_build)

    val = groups.add_parser("val", help="divisorial valuations")
    val_actions = val.add_subparsers(dest="action", required=True)
    vc = val_actions.add_parser("compare", help="compare two components' valuations")
    vc.add_argument("input")
    vc.add_argument("e", type=int)
    vc.add_argument("f", type=int)
    _add_format(vc)
    vc.set_defaults(func=_cmd_val_compare)
    vo = val_actions.add_parser("ord", help="order of vanishing of a polynomial germ")
    vo.add_argument("input")
    vo.add_argument("e", type=int)
    vo.add_argument("--poly", required=True, help="germ, e.g. 'y - 1/2*x^2'")
    _add_format(vo)
    vo.set_defaults(func=_cmd_val_ord)

    adj = groups.add_parser("adj", help="adjacency obstructions")
    adj_actions = adj.add_subparsers(dest="action", required=True)
    ao = adj_actions.add_parser("obstruct", help="test the adjacency N_f in N_e")
    ao.add_argument("input")
    ao.add_argument("e", type=int)
    ao.add_argument("f", type=int)
    ao.add_argument("--returns", metavar="CSV", help="return counts b_0,...,b_r")
    ao.add_argument("--special", type=int, help="special component for the returns system (default f)")
    ao.add_argument("--allow-lift", action="store_true", help="do not require indeterminacy")
    _add_format(ao)
    ao.set_defaults(func=_cmd_adj_obstruct)
    at = adj_actions.add_parser("table", help="verdicts for all ordered pairs")
    at.add_argument("input")
    _add_format(at)
    at.set_defaults(func=_cmd_adj_table)

    euler = groups.add_parser("euler", help="Euler-characteristic bounds")
    euler_actions = euler.add_subparsers(dest="action", required=True)
    eb = euler_actions.add_parser("bound", help="partial bounds, final bound and certificate")
    eb.add_argument("input", help="graph document path or fixture name")
    eb.add_argument("--coeffs", required=True, metavar="CSV", help="limit-divisor coefficients")
    eb.add_argument("--attach", required=True, help="id of the attachment vertex")
    _add_format(eb)
    eb.set_defaults(func=_cmd_euler_bound)

    dfd = groups.add_parser("dfd", help="relative-canonical lifting bookkeeping")
    dfd_actions = dfd.add_subparsers(dest="action", required=True)
    dc = dfd_actions.add_parser("check", help="solve and audit the numerical identity")
    dc.add_argument("input", help="wedge model document path")
    dc.add_argument("--minimal-target", action="store_true")
    dc.add_argument("--assert-b1-lt-1", action="store_true")
    dc.add_argument("--assert-no-lift", action="store_true")
    _add_format(dc)
    dc.set_defaults(func=_cmd_dfd_check)

    pair = groups.add_parser("pair", help="canonical pair graphs and the verdict store")
    pair_actions = pair.add_subparsers(dest="action", required=True)
    pc = pair_actions.add_parser("canon", help="canonical key of a labeled pair graph")
    pc.add_argument("input")
    pc.add_argument("e", type=int)
    pc.add_argument("f", type=int)
    pc.add_argument("--kb", metavar="PATH", help="verdict store file")
    pc.add_argument(
        "--store",
        choices=tuple(s.value for s in ObstructionStatus),
        help="record this verdict under the pair's key",
    )
    pc.add_argument("--provenance", help="free-form note stored with the verdict")
    _add_format(pc)
    pc.set_defaults(func=_cmd_pair_canon)

    return parser


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InternalInvariantError as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return 3
    except (ValidationError, SingularMatrixError, KnowledgeBaseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NashArcError as exc:  # pragma: no cover
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main():  # pragma: no cover
    sys.exit(run())


if __name__ == "__main__":  # pragma: no cover
    main()
