"""Workload inputs, self-checking tasks and the golden comparison.

Inputs are plain JSON-ready data drawn from ``random.Random`` seeded by
the workload name and the seed, so one seed always yields byte-identical
inputs.  The library only ever receives these generated inputs.  Every
task checks an invariant that holds for any seed (u * u^-1 = 1,
d'' o d' = 1, GModule validation, the cohomology dimensions); for the
default seed the digest of each task's output must also match the one
stored under ``golden/``.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from pathlib import Path

DEFAULT_SEED = 0
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

# (n, arity) of the random units inverted over Z/n.  Prime n takes the
# exponent path of ``invert``; the prime powers 4, 8, 9 keep its cycle
# detection (a random unit-augmentation element over Z/6 need not be a unit).
ZMOD_INVERT = [(5, 2), (7, 2), (11, 2), (13, 2), (5, 3), (7, 3), (4, 2), (8, 2), (9, 2)]
DPP_PRIMES = (5, 7, 11)
F27_ARITIES = (1, 2, 3)

H1U_PRIMES = (5, 7, 11, 13)
H1X_PRIMES = (5, 7, 11)
LAMBDA1_PRIMES = (5, 7, 11)
EXPECTED_DIMS = {"h1u": (1, 2, 3), "h1x": (1, 2, 3), "lambda1": (1, 0, 0)}


class CheckFailed(Exception):
    """A task's output broke one of its invariants."""


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}/{seed}")


def _smallest_prime_factor(n: int) -> int:
    return next(d for d in range(2, n + 1) if n % d == 0)


def _zmod_unit(rng: random.Random, n: int, size: int) -> list[int]:
    """Coefficients of a unit of (Z/n)[G] for n a prime power and G a
    group of exponent n: the ring is local, so a unit is exactly an element
    whose augmentation is prime to n."""
    p = _smallest_prime_factor(n)
    coeffs = [rng.randrange(n) for _ in range(size)]
    target = rng.choice([r for r in range(1, n) if r % p])
    coeffs[0] = (coeffs[0] + target - sum(coeffs)) % n
    return coeffs


def _f27_unit(rng: random.Random, size: int) -> list[list[int]]:
    """Coefficients (as F_3-coordinate triples) of a unit of F_27[(Z/3)^a]:
    a local ring, so any element with nonzero augmentation."""
    coeffs = [[rng.randrange(3) for _ in range(3)] for _ in range(size)]
    target = [0, 0, 0]
    while target == [0, 0, 0]:
        target = [rng.randrange(3) for _ in range(3)]
    sums = [sum(c[k] for c in coeffs) for k in range(3)]
    coeffs[0] = [(coeffs[0][k] + target[k] - sums[k]) % 3 for k in range(3)]
    return coeffs


def ladder_group_ring_inputs(seed: int) -> list[dict]:
    rng = _rng("ladder_group_ring", seed)
    inputs = []
    for n, arity in ZMOD_INVERT:
        inputs.append(
            {"kind": "invert", "ring": "zmod", "n": n, "arity": arity,
             "coeffs": _zmod_unit(rng, n, n**arity)}
        )
    for p in DPP_PRIMES:
        inputs.append({"kind": "d_prime_prime", "ring": "zmod", "n": p, "arity": 1,
                       "coeffs": _zmod_unit(rng, p, p)})
    for arity in F27_ARITIES:
        inputs.append({"kind": "invert", "ring": "gf27", "n": 3, "arity": arity,
                       "coeffs": _f27_unit(rng, 3**arity)})
    return inputs


def ladder_cohomology_inputs(seed: int) -> list[dict]:
    """Each module under the natural (e_0, e_1) action, its basis listed in
    a seed-chosen order; the cohomology dimensions do not depend on it."""
    rng = _rng("ladder_cohomology", seed)
    sizes = {"h1u": lambda p: (p - 1) ** 2, "h1x": lambda p: (p - 1) * (p - 2),
             "lambda1": lambda p: p * p}
    inputs = []
    for kind, primes in (("h1u", H1U_PRIMES), ("h1x", H1X_PRIMES), ("lambda1", LAMBDA1_PRIMES)):
        for p in primes:
            order = list(range(sizes[kind](p)))
            rng.shuffle(order)
            inputs.append({"kind": kind, "p": p, "order": order})
    return inputs


def label(spec: dict) -> str:
    if "arity" in spec:
        return f"{spec['kind']}/{spec['ring']}/n={spec['n']}/arity={spec['arity']}"
    return f"{spec['kind']}/p={spec['p']}"


# -- tasks --------------------------------------------------------------


def _element(fh, spec):
    if spec["ring"] == "gf27":
        ring, coeffs = fh.GF27, tuple(tuple(c) for c in spec["coeffs"])
    else:
        ring, coeffs = fh.Zmod(spec["n"]), tuple(spec["coeffs"])
    return fh.GroupRingElement(spec["n"], spec["arity"] - 1, ring, coeffs)


def group_ring_task(fh, spec: dict):
    """Run one ladder_group_ring task; returns the output to digest."""
    g = _element(fh, spec)
    if spec["kind"] == "invert":
        inverse = fh.invert(g)
        if g * inverse != fh.GroupRingElement.one(g.n, g.m, g.ring):
            raise CheckFailed("u * invert(u) != 1")
        return inverse.coeffs
    f = fh.d_prime(g)
    if fh.d_prime_prime(f) != fh.GroupRingElement.one(g.n, 2, g.ring):
        raise CheckFailed("d_prime_prime(d_prime(g)) != 1")
    return f.coeffs


def _permuted(fh, matrix, order):
    rows = matrix.entries
    return fh.FpMatrix.from_rows(matrix.p, [[rows[i][j] for j in order] for i in order])


def cohomology_task(fh, spec: dict):
    """Run one ladder_cohomology task; returns the output to digest."""
    kind, p, order = spec["kind"], spec["p"], spec["order"]
    e0 = fh.GroupRingElement.monomial(p, 1, (1, 0))
    e1 = fh.GroupRingElement.monomial(p, 1, (0, 1))
    if kind == "lambda1":
        sigma = _permuted(fh, fh.multiplication_matrix(e0), order)
        tau = _permuted(fh, fh.multiplication_matrix(e1), order)
    else:
        modulo = None
        if kind == "h1u":
            basis = fh.h1U_basis(p)
        else:
            zmod = fh.Zmod(p)
            basis = [
                fh.RelativeClass(fh.GroupRingElement(p, 1, zmod, tuple(v)))
                for v in fh.h1X_subquotient(p).coset_basis
            ]
            modulo = fh.stab_basis(p)
        basis = [basis[i] for i in order]
        sigma = fh.action_matrix(e0, basis, modulo=modulo)
        tau = fh.action_matrix(e1, basis, modulo=modulo)
    groups = fh.h_groups(fh.GModule(p, len(order), sigma, tau))
    if groups.dims() != EXPECTED_DIMS[kind]:
        raise CheckFailed(f"dims {groups.dims()} != {EXPECTED_DIMS[kind]}")
    return {"sigma": sigma.entries, "tau": tau.entries, "groups": groups.to_json()}


def digest(output) -> str:
    return hashlib.sha256(json.dumps(output, sort_keys=True).encode()).hexdigest()


def run_tasks(tasks, clock=time.perf_counter) -> dict:
    """Run (label, thunk) pairs one at a time.

    A thunk that raises, or whose output's digest differs from an expected
    digest, counts as failed; the run goes on.  ``seconds`` sums the time
    inside the thunks, so digesting and bookkeeping are not timed.
    """
    seconds = 0.0
    failures = []
    digests = {}
    for name, thunk in tasks:
        start = clock()
        try:
            output = thunk()
        except Exception as exc:  # a failing task must not abort the run
            seconds += clock() - start
            failures.append({"task": name, "error": f"{type(exc).__name__}: {exc}"})
            continue
        seconds += clock() - start
        digests[name] = digest(output)
    return {"attempted": len(tasks), "failed": len(failures), "failures": failures,
            "seconds": seconds, "digests": digests}


def check_digests(result: dict, expected: dict) -> None:
    """Count tasks whose digest differs from ``expected`` as failed."""
    for name, value in sorted(result["digests"].items()):
        if expected.get(name) != value:
            result["failed"] += 1
            result["failures"].append({"task": name, "error": "output digest differs from golden"})


def load_golden(name: str):
    return json.loads((GOLDEN_DIR / name).read_text())


def matches_golden(golden, actual) -> bool:
    """Whether ``actual`` agrees with ``golden`` on every key golden has.

    Keys only ``actual`` has (additive fields such as timings) are ignored;
    lists must agree element by element; scalars must agree in type and value.
    """
    if isinstance(golden, dict):
        return isinstance(actual, dict) and all(
            key in actual and matches_golden(value, actual[key]) for key, value in golden.items()
        )
    if isinstance(golden, list):
        return (
            isinstance(actual, list)
            and len(golden) == len(actual)
            and all(matches_golden(g, a) for g, a in zip(golden, actual))
        )
    return type(golden) is type(actual) and golden == actual
