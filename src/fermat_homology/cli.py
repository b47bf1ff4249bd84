"""Batch command-line front end.

Subcommands: bsigma, psi, homology, cohomology, cyclotomic and
reproduce-paper.  Text output is deterministic; --json switches every
subcommand to machine-readable output that round-trips through the
library's deserializers.  Exit codes: 0 on success (and when every check
passes), 1 when a requested check fails, 2 on usage errors, including
inputs the library rejects, which print one line to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import cohomology as cohomology_mod
from . import fp_linalg
from .bsigma import (
    b_map_analysis,
    bsigma,
    bsigma_p3,
    gamma_oracle_p3,
    prime_field_image,
    verify_bsigma,
)
from .cyclotomic import verify_cyclotomic_identities
from .galois_kummer import KummerCoordinates, coordinate_sum, psi_from_kummer
from .group_ring import GroupRingElement, d_prime
from .homology import RelativeClass, h1U_basis, h1X_subquotient, stab_basis
from .reproduction import format_results, run_reproduction
from .scalars import Zmod


def _print_grid(element: GroupRingElement) -> None:
    for row in element.grid():
        print(" ".join(str(x) for x in row))


def _emit_json(payload) -> None:
    print(json.dumps(payload, sort_keys=True))


def _run_bsigma(args) -> int:
    if args.verify_all:
        results = []
        for c0 in range(3):
            for c1 in range(3):
                report = verify_bsigma(bsigma_p3(c0, c1))
                results.append(((c0, c1), report))
        oracle_ok = all(
            prime_field_image(d_prime(gamma)) == bsigma_p3((c2 - c1) % 3, c1)
            for c1 in range(3)
            for c2 in range(3)
            for _, gamma in gamma_oracle_p3(c1, c2)
        )
        linear = b_map_analysis()
        if args.json:
            _emit_json(
                {
                    "structural": {
                        f"({c0},{c1})": rep.to_json() for (c0, c1), rep in results
                    },
                    "oracle_equivalence": oracle_ok,
                    "linear_structure": linear.to_json(),
                }
            )
        else:
            for (c0, c1), rep in results:
                status = "PASS" if rep.all_pass else "FAIL"
                print(f"{status}  structural facts at ({c0},{c1})")
            print(f"{'PASS' if oracle_ok else 'FAIL'}  gamma oracle equivalence")
            print(f"{'PASS' if linear.all_pass else 'FAIL'}  linear structure of the B-map")
        ok = all(rep.all_pass for _, rep in results) and oracle_ok and linear.all_pass
        return 0 if ok else 1
    element = bsigma(args.p, (args.c0, args.c1))
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
        results = [
            r
            for r in run_reproduction()
            if r.name.startswith("listed")
        ]
        if args.json:
            _emit_json(
                [
                    {"name": r.name, "passed": r.passed, "detail": r.detail, "flag": r.flag}
                    for r in results
                ]
            )
        else:
            print(format_results(results))
        return 0 if all(r.passed for r in results) else 1
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
    results = run_reproduction()
    if args.json:
        _emit_json(
            [
                {"name": r.name, "passed": r.passed, "detail": r.detail, "flag": r.flag}
                for r in results
            ]
        )
    else:
        print(format_results(results))
    return 0 if all(r.passed for r in results) else 1


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
    p_cyc.add_argument("--verify", action="store_true")
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
