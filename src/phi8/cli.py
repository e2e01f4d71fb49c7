"""Command line interface.

Subcommands:
  verify    run the matrix identity suite
  powers    show the power pattern for one exponent
  roots     enumerate roots of a Cartan-like matrix
  lattice   E8 lattice and Hamming code checks
  project   convex hull layer analysis of the signed root vertices
  dump      print a named or file-loaded matrix as a literal

Exit status: 0 all checks hold, 1 a check failed, 2 usage error,
3 unexpected internal error (traceback on stderr).
Output is deterministic: no timestamps, sorted keys, fixed orderings.
Relative output file paths honor the PHI8_OUT_DIR environment variable.
"""
from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

# build_parser and `dump FILE` need only field and matrix, each cmd_* imports
# its module, and the vocabulary below is names, pinned by test_constants.py
from .matrix import MATRIX_NAMES, resolve_matrix

BASES = ("U", "cmU")
VERIFIER_GROUP_NAMES = (
    "products", "golden-cartan", "row-reversed", "powers",
    "odd-powers", "brackets", "char-polys", "schlafli-probe",
)
LATTICE_CHECK_NAMES = ("roots", "hamming", "construction-a", "hadamard-map", "vertex-coords")
MODES = ("normalized-pairing", "raw-pairing", "pair-coupling")
MAX_ROOTS = 10_000


def _json_dump(obj: object) -> str:
    import json

    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _out_path(path: str) -> Path:
    if not path:
        raise ValueError("output path is empty")
    base = os.environ.get("PHI8_OUT_DIR")
    p = Path(path)
    if base and not p.is_absolute():
        p = Path(base) / p
    p.parent.mkdir(parents=True, exist_ok=True)
    return p


def _emit_reports(reports, as_json: bool) -> int:
    """Write the reports as a JSON list of their to_dict() or as text lines."""
    from .report import exit_code

    if as_json:
        sys.stdout.write(_json_dump([r.to_dict() for r in reports]))
    else:
        sys.stdout.write("\n".join(r.line() for r in reports) + "\n")
    return exit_code(reports)


def cmd_verify(args: argparse.Namespace) -> int:
    from . import identities

    reports = identities.run_group(args.only) if args.only else identities.run_all()
    return _emit_reports(reports, args.json)


def cmd_powers(args: argparse.Namespace) -> int:
    from . import identities

    n = args.n
    reports = identities.verify_power_pattern(n)
    if not args.json:
        sum_scalar, diff_scalar = (rep.details["scalar"] for rep in reports[:2])
        sys.stdout.write(f"cmU^{n} + cmU^-{n} = ({sum_scalar}) * I\n"
                         f"cmU^{n} - cmU^-{n} = ({diff_scalar}) * J\n")
    return _emit_reports(reports, args.json)


def cmd_roots(args: argparse.Namespace) -> int:
    from . import roots

    matrix = resolve_matrix(args.matrix)
    rule = roots.EnumerationRule(args.mode, args.max_height, args.max_roots)
    records = roots.enumerate_roots(matrix, rule)
    summary = roots.summarize(records)
    listing = roots.event_listing(records) if args.no_dedup else records
    if args.dot is not None:
        _out_path(args.dot).write_text(roots.emit_hasse_dot(records))
    if args.csv is not None:
        _out_path(args.csv).write_text(roots.emit_csv(listing))
    if args.json:
        payload = dict(summary)
        payload["records"] = len(listing)
        payload["by_height"] = [[h, c] for h, c in sorted(summary["by_height"].items())]
        payload["cumulative"] = [[h, c] for h, c in sorted(summary["cumulative"].items())]
        payload["matrix"] = args.matrix
        payload["mode"] = args.mode
        payload["max_height"] = args.max_height
        sys.stdout.write(_json_dump(payload))
    else:
        lines = [
            f"matrix {args.matrix} mode {args.mode} max height {args.max_height}",
            "height counts: "
            + " ".join(f"{h}:{c}" for h, c in sorted(summary["by_height"].items())),
            f"{summary['total']} positive roots "
            f"(max height {summary['max_height']}, "
            f"through height 8: {summary['cumulative_through_8']})",
        ]
        if not summary["weights_all_integer"]:
            lines.append("weights include non-integer values")
        sys.stdout.write("\n".join(lines) + "\n")
    return 0


def cmd_lattice(args: argparse.Namespace) -> int:
    from . import lattice

    groups = lattice.CHECK_GROUPS if args.check == "all" else (args.check,)
    reports = [r for g in groups for r in lattice.CHECK_GROUPS[g]()]
    return _emit_reports(reports, args.json)


def _parse_dims(text: str) -> tuple[int, int, int]:
    try:
        parts = tuple(int(t) for t in text.split(","))
    except ValueError as exc:
        raise ValueError(f"cannot parse dims {text!r}; expected like 2,3,4") from exc
    if len(parts) != 3:
        raise ValueError("dims must name exactly three coordinates")
    return parts  # range/distinctness checked by project()


def cmd_project(args: argparse.Namespace) -> int:
    from . import hulls

    vset = hulls.build_vertices(basis=args.basis)
    if args.all:
        reports = hulls.tally_all(vset)
    else:
        reports = [hulls.analyze(vset, _parse_dims(args.dims))]
    if args.csv is not None:
        rows = ["dims,point_count,signature"]
        for rep in reports:
            rows.append(
                "\"{}\",{},\"{}\"".format(
                    " ".join(str(d) for d in rep.dims), rep.point_count, rep.signature
                )
            )
        _out_path(args.csv).write_text("\n".join(rows) + "\n")
    if args.obj is not None:
        base = _out_path(args.obj)
        base.mkdir(parents=True, exist_ok=True)
        for rep in reports:
            tag = "".join(str(d) for d in rep.dims)
            for k, layer in enumerate(rep.layers):
                if not layer.faces:
                    continue
                name = f"dims{tag}_layer{k}"
                (base / f"{name}.obj").write_text(hulls.emit_layer_obj(layer, name))
    if args.json:
        payload = {
            "basis": args.basis,
            "vertex_count": len(vset.points),
            "positive_root_count": vset.positive_root_count,
            "reports": [rep.to_dict() for rep in reports],
        }
        if args.all:
            payload["signature_groups"] = {
                sig: [list(d) for d in dims]
                for sig, dims in hulls.group_by_signature(reports).items()
            }
        sys.stdout.write(_json_dump(payload))
    else:
        lines = [
            f"basis {args.basis}: {len(vset.points)} vertices from "
            f"{vset.positive_root_count} positive roots"
        ]
        for rep in reports:
            dims_txt = ",".join(str(d) for d in rep.dims)
            lines.append(f"dims ({dims_txt}) -> {rep.point_count} points: {rep.signature}")
        if args.all:
            lines.append(f"{len(reports)} coordinate triples, "
                         f"{len(hulls.group_by_signature(reports))} distinct signatures")
        sys.stdout.write("\n".join(lines) + "\n")
    return 0


def cmd_dump(args: argparse.Namespace) -> int:
    matrix = resolve_matrix(args.name)
    sys.stdout.write(matrix.to_literal() + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phi8",
        description="Golden-ratio matrix identities, root enumeration, "
        "E8 lattice checks and hull projections.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run the identity suite")
    p_verify.add_argument(
        "--only", choices=sorted(VERIFIER_GROUP_NAMES), help="run one group"
    )
    p_verify.add_argument("--json", action="store_true")
    p_verify.set_defaults(func=cmd_verify)

    p_powers = sub.add_parser("powers", help="power pattern for one exponent")
    p_powers.add_argument("-n", type=int, required=True, help="exponent, n >= 1")
    p_powers.add_argument("--json", action="store_true")
    p_powers.set_defaults(func=cmd_powers)

    p_roots = sub.add_parser("roots", help="enumerate roots layer by layer")
    p_roots.add_argument(
        "--matrix",
        default="cmE8",
        help="named matrix (%s) or a file path" % ", ".join(sorted(MATRIX_NAMES)),
    )
    p_roots.add_argument("--mode", choices=MODES, default="normalized-pairing")
    p_roots.add_argument("--max-height", type=int, default=10)
    p_roots.add_argument("--max-roots", type=int, default=MAX_ROOTS,
                         help="exit 2 if more roots than this are found (default %(default)s)")
    p_roots.add_argument(
        "--no-dedup", action="store_true", help="list one CSV row per acceptance event"
    )
    p_roots.add_argument("--json", action="store_true")
    p_roots.add_argument("--dot", metavar="PATH", help="write Hasse diagram DOT")
    p_roots.add_argument("--csv", metavar="PATH", help="write root listing CSV")
    p_roots.set_defaults(func=cmd_roots)

    p_lattice = sub.add_parser("lattice", help="E8 lattice and code checks")
    p_lattice.add_argument(
        "--check", choices=(*LATTICE_CHECK_NAMES, "all"), default="all"
    )
    p_lattice.add_argument("--json", action="store_true")
    p_lattice.set_defaults(func=cmd_lattice)

    p_project = sub.add_parser("project", help="hull layers of projected vertices")
    group = p_project.add_mutually_exclusive_group(required=True)
    group.add_argument("--dims", help="three 1-based coordinates, like 2,3,4")
    group.add_argument("--all", action="store_true", help="every 3-coordinate choice")
    p_project.add_argument("--basis", choices=sorted(BASES), default="U")
    p_project.add_argument("--json", action="store_true")
    p_project.add_argument("--csv", metavar="PATH", help="write signature CSV")
    p_project.add_argument("--obj", metavar="DIR", help="write per-layer OBJ meshes")
    p_project.set_defaults(func=cmd_project)

    p_dump = sub.add_parser("dump", help="print a matrix literal")
    p_dump.add_argument("name", help="named matrix or file path")
    p_dump.set_defaults(func=cmd_dump)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        import traceback

        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
