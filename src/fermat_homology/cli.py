"""Batch command-line front end.

Subcommands: bsigma, psi, homology, cohomology, cyclotomic and
reproduce-paper.  Each returns its JSON payload, its text lines and its
exit code, and ``main`` prints one of the two forms once the command has
finished: --json switches every subcommand to machine-readable output,
and only text mode consumes the lines.  Text output is deterministic.
The bsigma payload and the input of the psi payload read back through the
library's deserializers; the other payloads are reports for reading only.
B has a closed form at p = 3 only, so bsigma rejects any other p itself.
Exit codes: 0 on success (and when every check passes), 1 when a
requested check fails, 2 on usage errors, including inputs the library
rejects, which print one line to stderr.  When the reader closes the pipe
early, the command prints nothing more, not even to stderr, and keeps its
exit code.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys

from . import cohomology as cohomology_mod
from .bsigma import bsigma_p3
from .cyclotomic import MAX_P, verify_cyclotomic_identities
from .galois_kummer import KummerCoordinates, coordinate_sum, psi_from_kummer
from .group_ring import GroupRingElement
from .homology import h1U_basis, h1X_subquotient, stab_basis
from .reproduction import (
    CHECK_IDS,
    RunInputs,
    format_results,
    run_checks,
    run_reproduction,
)


def _grid_lines(n, coeffs):
    """The n x n coefficient grid of a two-variable element, a row a line."""
    return (" ".join(str(x) for x in coeffs[i : i + n]) for i in range(0, n * n, n))


def _status_lines(rows):
    return [f"{'PASS' if ok else 'FAIL'}  {label}" for ok, label in rows]


def _scorecard(results):
    """Scorecard rows as JSON and text; exit code 1 if any row fails."""
    payload = [
        {"name": r.name, "passed": r.passed, "detail": r.detail, "flag": r.flag}
        for r in results
    ]
    return payload, [format_results(results)], 0 if all(r.passed for r in results) else 1


def _run_bsigma(args):
    if args.p != 3:
        raise ValueError(f"B reconstruction is implemented for p=3, got p={args.p}")
    element = bsigma_p3(args.c0, args.c1)
    if not args.verify_all:
        return element.to_json(), _grid_lines(element.n, element.coeffs), 0
    run = RunInputs()
    (oracle,) = run_checks(["c03.gamma-closed-form"], run)
    linear = run_checks([c for c in CHECK_IDS if c.startswith("c04.")], run)
    structural = {f"({c0},{c1})": rep for (c0, c1), rep in run.structural.items()}
    payload = {
        "structural": {point: rep.to_json() for point, rep in structural.items()},
        "oracle_equivalence": oracle.passed,
        "linear_structure": run.b_map.to_json(),
    }
    rows = [(rep.all_pass, f"structural facts at {point}") for point, rep in structural.items()]
    rows.append((oracle.passed, "gamma oracle equivalence"))
    rows.append((all(r.passed for r in linear), "linear structure of the B-map"))
    return payload, _status_lines(rows), 0 if all(ok for ok, _ in rows) else 1


def _run_psi(args):
    coords = tuple(int(x) for x in args.coords.split(","))
    k = KummerCoordinates(args.p, coords)
    psi = psi_from_kummer(k)
    total = coordinate_sum(psi)
    lines = [" ".join(str(x) for x in psi.entries), f"coordinate sum: {total}"]
    return {"input": k.to_json(), "psi": psi.to_json(), "sum": total}, lines, 0


def _dimension_lines(n, vectors):
    yield f"dimension {len(vectors)}"
    for vec in vectors:
        yield "--"
        yield from _grid_lines(n, vec)


def _run_homology(args):
    n = args.n
    if n < 3:
        raise ValueError(f"exponent must be at least 3, got {n}")
    if n > MAX_P:
        raise ValueError(f"n={n} exceeds the configured bound {MAX_P}")
    if args.which == "relative":
        generator = GroupRingElement.one(n, 1)
        payload = {"which": "relative", "n": n, "rank": n * n, "generator": generator.grid()}
        header = f"free of rank one over the group ring; additive rank {n * n}"
        return payload, itertools.chain([header], _grid_lines(n, generator.coeffs)), 0
    if args.which == "projective":
        report = h1X_subquotient(n)
        payload = {"which": "projective", "n": n, "report": report.to_json()}
        return payload, _dimension_lines(n, report.coset_basis), 0
    classes = (h1U_basis if args.which == "affine" else stab_basis)(n)
    payload = {"which": args.which, "n": n, "classes": [rc.w.grid() for rc in classes]}
    return payload, _dimension_lines(n, [rc.w.coeffs for rc in classes]), 0


def _run_cohomology(args):
    if args.validate_paper:
        return _scorecard(run_checks([c for c in CHECK_IDS if c.startswith("c08.")]))
    if args.module == "wedge":
        mod = cohomology_mod.wedge_module()
    else:
        mod = cohomology_mod.module(args.module, bsigma_p3(1, 0), bsigma_p3(0, 1))
    groups = cohomology_mod.h_groups(mod)
    dims = f"h0 = {groups.h0.dim}, h1 = {groups.h1.dim}, h2 = {groups.h2.dim}"
    lines = [f"module {args.module}: {dims}"]
    for label, report in (("h1", groups.h1), ("h2", groups.h2)):
        lines.append(f"{label} coset basis:")
        lines += ("  " + " ".join(str(x) for x in vec) for vec in report.coset_basis)
    return {"module": args.module, "groups": groups.to_json()}, lines, 0


def _run_cyclotomic(args):
    report = verify_cyclotomic_identities(args.p)
    rows = [
        (report.product_is_p, "product of 1 - zeta^i equals p"),
        (all(report.reflections), "reflection identities"),
        (report.b_square, "half-product square identity"),
        (all(report.unit_norms), "cyclotomic unit norms"),
    ]
    return report.to_json(), [f"p = {args.p}", *_status_lines(rows)], 0 if report.all_pass else 1


def _run_reproduce(args):
    return _scorecard(run_reproduction())


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
    p_coh.add_argument("--module", choices=["h1u", "h1x", "lambda1", "wedge"], default="lambda1")
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
        payload, lines, code = args.func(args)
    except ValueError as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 2
    try:
        for line in [json.dumps(payload, sort_keys=True)] if args.json else lines:
            print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe.  Python flushes stdout again at exit,
        # so fd 1 is pointed at devnull to keep that flush from failing too.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
