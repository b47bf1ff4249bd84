"""Batch command-line front end.

Subcommands: bsigma, psi, homology, cohomology, cyclotomic and
reproduce-paper.  Text output is deterministic; --json switches every
subcommand to machine-readable output.  The bsigma payload and the input
of the psi payload read back through the library's deserializers; the
other payloads are reports for reading only.  Exit codes: 0 on success
(and when every check passes), 1 when a requested check fails, 2 on usage
errors, including inputs the library rejects, which print one line to
stderr.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import cohomology as cohomology_mod
from .bsigma import bsigma
from .cyclotomic import MAX_P, verify_cyclotomic_identities
from .galois_kummer import KummerCoordinates, coordinate_sum, psi_from_kummer
from .group_ring import GroupRingElement
from .homology import RelativeClass, h1U_basis, h1X_subquotient, stab_basis
from .reproduction import (
    CHECK_IDS,
    RunInputs,
    format_results,
    run_checks,
    run_reproduction,
)
from .scalars import Zmod


def _print_grid(element: GroupRingElement) -> None:
    for row in element.grid():
        print(" ".join(str(x) for x in row))


def _emit_json(payload) -> None:
    print(json.dumps(payload, sort_keys=True))


def _emit_scorecard(results, as_json: bool) -> int:
    """Print scorecard rows as text or JSON; exit code 1 if any row fails."""
    if as_json:
        _emit_json(
            [
                {"name": r.name, "passed": r.passed, "detail": r.detail, "flag": r.flag}
                for r in results
            ]
        )
    else:
        print(format_results(results))
    return 0 if all(r.passed for r in results) else 1


def _run_bsigma(args) -> int:
    element = bsigma(args.p, (args.c0, args.c1))
    if args.verify_all:
        run = RunInputs()
        (oracle,) = run_checks(["c03.gamma-closed-form"], run)
        structural, linear = run.structural, run.b_map
        if args.json:
            _emit_json(
                {
                    "structural": {
                        f"({c0},{c1})": rep.to_json() for (c0, c1), rep in structural.items()
                    },
                    "oracle_equivalence": oracle.passed,
                    "linear_structure": linear.to_json(),
                }
            )
        else:
            for (c0, c1), rep in structural.items():
                status = "PASS" if rep.all_pass else "FAIL"
                print(f"{status}  structural facts at ({c0},{c1})")
            print(f"{'PASS' if oracle.passed else 'FAIL'}  gamma oracle equivalence")
            print(f"{'PASS' if linear.all_pass else 'FAIL'}  linear structure of the B-map")
        ok = all(rep.all_pass for rep in structural.values())
        return 0 if ok and oracle.passed and linear.all_pass else 1
    if args.json:
        _emit_json(element.to_json())
    else:
        _print_grid(element)
    return 0


def _run_psi(args) -> int:
    coords = tuple(int(x) for x in args.coords.split(","))
    k = KummerCoordinates(args.p, coords)
    psi = psi_from_kummer(k)
    if args.json:
        _emit_json({"input": k.to_json(), "psi": psi.to_json(), "sum": coordinate_sum(psi)})
    else:
        print(" ".join(str(x) for x in psi.entries))
        print(f"coordinate sum: {coordinate_sum(psi)}")
    return 0


def _grids_payload(classes) -> list:
    return [rc.grid() for rc in classes]


def _run_homology(args) -> int:
    n = args.n
    if n < 3:
        raise ValueError(f"exponent must be at least 3, got {n}")
    if n > MAX_P:
        raise ValueError(f"n={n} exceeds the configured bound {MAX_P}")
    if args.which == "relative":
        generator = RelativeClass(GroupRingElement.one(n, 1))
        payload = {
            "which": "relative",
            "n": n,
            "rank": n * n,
            "generator": generator.grid(),
        }
        if args.json:
            _emit_json(payload)
        else:
            print(f"free of rank one over the group ring; additive rank {n * n}")
            _print_grid(generator.w)
        return 0
    if args.which == "affine":
        classes = h1U_basis(n)
    elif args.which == "stab":
        classes = stab_basis(n)
    else:
        report = h1X_subquotient(n)
        if args.json:
            _emit_json({"which": "projective", "n": n, "report": report.to_json()})
        else:
            print(f"dimension {report.dim}")
            for vec in report.coset_basis:
                print("--")
                _print_grid(GroupRingElement(n, 1, Zmod(n), tuple(vec)))
        return 0
    if args.json:
        _emit_json({"which": args.which, "n": n, "classes": _grids_payload(classes)})
    else:
        print(f"dimension {len(classes)}")
        for rc in classes:
            print("--")
            _print_grid(rc.w)
    return 0


_MODULE_BUILDERS = {
    "lambda1": cohomology_mod.lambda1_module,
    "h1u": cohomology_mod.h1u_module,
    "h1x": cohomology_mod.h1x_module,
    "wedge": cohomology_mod.wedge_module,
}


def _run_cohomology(args) -> int:
    if args.validate_paper:
        listed = [check_id for check_id in CHECK_IDS if check_id.startswith("c08.")]
        return _emit_scorecard(run_checks(listed), args.json)
    builder = _MODULE_BUILDERS[args.module]
    groups = cohomology_mod.h_groups(builder())
    if args.json:
        _emit_json({"module": args.module, "groups": groups.to_json()})
    else:
        print(f"module {args.module}: h0 = {groups.h0.dim}, h1 = {groups.h1.dim}, h2 = {groups.h2.dim}")
        for label, report in (("h1", groups.h1), ("h2", groups.h2)):
            print(f"{label} coset basis:")
            for vec in report.coset_basis:
                print("  " + " ".join(str(x) for x in vec))
    return 0


def _run_cyclotomic(args) -> int:
    report = verify_cyclotomic_identities(args.p)
    if args.json:
        _emit_json(report.to_json())
    else:
        print(f"p = {args.p}")
        print(f"{'PASS' if report.product_is_p else 'FAIL'}  product of 1 - zeta^i equals p")
        print(f"{'PASS' if all(report.reflections) else 'FAIL'}  reflection identities")
        print(f"{'PASS' if report.b_square else 'FAIL'}  half-product square identity")
        print(f"{'PASS' if all(report.unit_norms) else 'FAIL'}  cyclotomic unit norms")
    return 0 if report.all_pass else 1


def _run_reproduce(args) -> int:
    return _emit_scorecard(run_reproduction(), args.json)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fermat-homology",
        description="Exact homology and group cohomology for Fermat curves of prime exponent",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_bsigma = sub.add_parser("bsigma", help="B multiplier from Kummer coordinates")
    p_bsigma.add_argument("--p", type=int, default=3)
    p_bsigma.add_argument("--c0", type=int, default=0)
    p_bsigma.add_argument("--c1", type=int, default=0)
    p_bsigma.add_argument("--verify-all", action="store_true")
    p_bsigma.add_argument("--json", action="store_true")
    p_bsigma.set_defaults(func=_run_bsigma)

    p_psi = sub.add_parser("psi", help="differential coefficients of a group element")
    p_psi.add_argument("--p", type=int, default=3)
    p_psi.add_argument("--coords", type=str, required=True, help="comma-separated residues")
    p_psi.add_argument("--json", action="store_true")
    p_psi.set_defaults(func=_run_psi)

    p_hom = sub.add_parser("homology", help="bases of the homology modules")
    p_hom.add_argument("--n", type=int, default=3)
    p_hom.add_argument(
        "--which",
        choices=["relative", "affine", "projective", "stab"],
        default="affine",
    )
    p_hom.add_argument("--json", action="store_true")
    p_hom.set_defaults(func=_run_homology)

    p_coh = sub.add_parser("cohomology", help="group cohomology of the standard modules")
    p_coh.add_argument("--module", choices=sorted(_MODULE_BUILDERS), default="lambda1")
    p_coh.add_argument("--validate-paper", action="store_true")
    p_coh.add_argument("--json", action="store_true")
    p_coh.set_defaults(func=_run_cohomology)

    p_cyc = sub.add_parser("cyclotomic", help="multiplicative identity report")
    p_cyc.add_argument("--p", type=int, default=3)
    p_cyc.add_argument("--json", action="store_true")
    p_cyc.set_defaults(func=_run_cyclotomic)

    p_rep = sub.add_parser(
        "reproduce-paper", help="run every reference check and print a scorecard"
    )
    p_rep.add_argument("--json", action="store_true")
    p_rep.set_defaults(func=_run_reproduce)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
