"""Value semantics of the package's immutable record classes.

Every record class is constructed positionally and by keyword, compared,
hashed, printed and frozen the same way; the field names, their order,
the defaults and the literal reprs below are pinned.  One test parses the
package and fails on a class outside `_value` that defines any of these
protocol methods itself.  A last test checks in a fresh interpreter that
importing the CLI pulls in neither `dataclasses` nor `inspect` nor
`importlib.resources`.
"""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

from fermat_homology.bsigma import BMapReport, VerificationReport
from fermat_homology.cohomology import BasisValidation, CohomologyGroups, GModule
from fermat_homology.cyclotomic import CyclotomicInt, IdentityReport
from fermat_homology.errors import InvalidAction
from fermat_homology.fp_linalg import FpMatrix, SubquotientReport
from fermat_homology.galois_kummer import KummerCoordinates, PsiVector
from fermat_homology.group_ring import DifferentialElement, GroupRingElement
from fermat_homology.homology import BoundaryClass, RelativeClass
from fermat_homology.reference_tables import TableFinding
from fermat_homology.reproduction import CheckResult
from fermat_homology.scalars import GF27, PrimeExtensionField, Zmod

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def _element(n, m, first):
    coeffs = [0] * n ** (m + 1)
    coeffs[0] = first
    return GroupRingElement(n, m, Zmod(n), tuple(coeffs))


def _report(dim):
    return SubquotientReport(2, ((1, 0), (0, 1)), ((1, 0),), ((0, 1),)[:dim])


def _cases():
    """(class, field names in order, values, values differing in the last field)."""
    identity = FpMatrix(3, 2, 2, ((1, 0), (0, 1)))
    shear = FpMatrix(3, 2, 2, ((1, 1), (0, 1)))
    zero = _element(3, 0, 0)
    return [
        (VerificationReport,
         ("symmetric", "zero_row_col_sums", "augmentation_ideal", "d_second_trivial"),
         (True, True, False, True), (True, True, False, False)),
        (BMapReport,
         ("image_dim", "kernel_dim", "relations", "relation_names", "image_shape_matches"),
         (4, 5, (True,), ("r",), True), (4, 5, (True,), ("r",), False)),
        (GModule, ("p", "dim", "act_sigma", "act_tau"),
         (3, 2, identity, identity), (3, 2, identity, shear)),
        (CohomologyGroups, ("p", "h0", "h1", "h2"),
         (3, _report(1), _report(1), _report(1)), (3, _report(1), _report(1), _report(0))),
        (BasisValidation,
         ("memberships", "independent_mod_image", "count_matches", "expected_dim"),
         ((True, True), True, True, 2), ((True, True), True, True, 3)),
        (CyclotomicInt, ("p", "coeffs"), (3, (1, 2)), (3, (1, 3))),
        (IdentityReport,
         ("p", "product_is_p", "reflections", "reflection_product_consistent",
          "b_square", "unit_norms"),
         (3, True, (True,), True, True, (True,)), (3, True, (True,), True, True, (False,))),
        (FpMatrix, ("p", "rows", "cols", "entries"),
         (3, 1, 2, ((1, 2),)), (3, 1, 2, ((2, 1),))),
        (SubquotientReport, ("ambient_dim", "kernel_basis", "image_basis", "coset_basis"),
         (2, ((1, 0),), (), ((1, 0),)), (2, ((1, 0),), (), ())),
        (KummerCoordinates, ("p", "c"), (3, (1, 2)), (3, (1, 0))),
        (PsiVector, ("p", "entries"), (3, (1, 2)), (3, (1, 0))),
        (GroupRingElement, ("n", "m", "ring", "coeffs"),
         (3, 0, Zmod(3), (1, 0, 0)), (3, 0, Zmod(3), (0, 1, 0))),
        (DifferentialElement, ("n", "m", "ring", "components"),
         (3, 0, Zmod(3), (zero,)), (3, 0, Zmod(3), (_element(3, 0, 1),))),
        (RelativeClass, ("w",), (_element(3, 1, 1),), (_element(3, 1, 2),)),
        (BoundaryClass, ("r", "q"), (zero, zero), (zero, _element(3, 0, 1))),
        (TableFinding, ("key", "index", "printed", "reading", "reason"),
         ("k", 0, ("e",), None, "why"), ("k", 0, ("e",), None, "other")),
        (CheckResult, ("name", "passed", "detail", "flag"),
         ("c01", True, "d", "f"), ("c01", True, "d", "g")),
        (Zmod, ("n",), (3,), (5,)),
        # t^3 - t - 1 and t^3 + 2t + 1, both irreducible over F_3
        (PrimeExtensionField, ("p", "modulus"), (3, (2, 2, 0, 1)), (3, (1, 2, 0, 1))),
    ]


CASES = _cases()
IDS = [case[0].__name__ for case in CASES]


@pytest.mark.parametrize("cls, names, values, other", CASES, ids=IDS)
def test_keyword_and_positional_construction_agree(cls, names, values, other):
    by_keyword = cls(**dict(zip(names, values)))
    by_position = cls(*values)
    assert by_keyword == by_position
    assert tuple(getattr(by_keyword, name) for name in names) == values


@pytest.mark.parametrize("cls, names, values, other", CASES, ids=IDS)
def test_equality_and_hash_follow_the_fields(cls, names, values, other):
    a, b, c = cls(*values), cls(*values), cls(*other)
    assert a == b and not a != b
    assert hash(a) == hash(b) == hash(values)
    assert a != c and not a == c
    assert a.__eq__(object()) is NotImplemented


@pytest.mark.parametrize("cls, names, values, other", CASES, ids=IDS)
def test_missing_or_unexpected_arguments_raise_type_error(cls, names, values, other):
    required = [name for name in names if not (cls is CheckResult and name in ("detail", "flag"))]
    with pytest.raises(TypeError):
        cls(*values[: len(required) - 1])
    with pytest.raises(TypeError):
        cls(*values, unexpected=1)
    with pytest.raises(TypeError):
        cls(*values, values[0])


@pytest.mark.parametrize("cls, names, values, other", CASES, ids=IDS)
def test_fields_can_be_neither_assigned_nor_deleted(cls, names, values, other):
    x = cls(*values)
    for name in names:
        with pytest.raises(AttributeError):
            setattr(x, name, values[0])
        with pytest.raises(AttributeError):
            delattr(x, name)
    with pytest.raises(AttributeError):
        x.extra = 1
    assert tuple(getattr(x, name) for name in names) == values


def test_records_of_different_classes_never_compare_equal():
    same_fields = [KummerCoordinates(3, (1, 2)), PsiVector(3, (1, 2)), CyclotomicInt(3, (1, 2))]
    for i, a in enumerate(same_fields):
        for b in same_fields[i + 1:]:
            assert a != b and b != a


def test_check_result_defaults_and_repr():
    assert CheckResult("c01", True) == CheckResult("c01", True, "", "")
    assert CheckResult(name="c01", passed=False, flag="f").detail == ""
    assert repr(CheckResult("c01", True)) == "CheckResult(name='c01', passed=True, detail='', flag='')"
    assert repr(CheckResult("c02", False, "a 'b'", "F")) == (
        "CheckResult(name='c02', passed=False, detail=\"a 'b'\", flag='F')"
    )


def test_fp_matrix_repr():
    assert repr(FpMatrix.from_rows(3, [[1, 5], [0, -1]])) == (
        "FpMatrix(p=3, rows=2, cols=2, entries=((1, 2), (0, 2)))"
    )


def test_gmodule_equality_and_repr_ignore_the_cached_blocks():
    ident = FpMatrix(3, 1, 1, ((1,),))
    a, b = GModule(3, 1, ident, ident), GModule(3, 1, ident, ident)
    assert a._blocks is not b._blocks
    object.__setattr__(b, "_blocks", None)
    assert a == b and hash(a) == hash(b)
    assert repr(a) == (
        "GModule(p=3, dim=1, act_sigma=FpMatrix(p=3, rows=1, cols=1, entries=((1,),)), "
        "act_tau=FpMatrix(p=3, rows=1, cols=1, entries=((1,),)))"
    )
    with pytest.raises(TypeError):
        GModule(3, 1, a.act_sigma, a.act_tau, a._blocks)


def test_post_init_is_looked_up_on_the_class_at_construction(monkeypatch):
    calls = []
    original = GModule.__post_init__

    def counted(self):
        calls.append(self.dim)
        original(self)

    monkeypatch.setattr(GModule, "__post_init__", counted)
    ident = FpMatrix(3, 2, 2, ((1, 0), (0, 1)))
    GModule(3, 2, ident, ident)
    assert calls == [2]


def test_kummer_and_psi_reduce_mod_p():
    assert KummerCoordinates(3, (4, -1)).c == (1, 2)
    assert KummerCoordinates(3, (4, -1)) == KummerCoordinates(3, (1, 2))
    assert PsiVector(5, (5, 6, -1, 9)).entries == (0, 1, 4, 4)


@pytest.mark.parametrize("cls, entries", [(KummerCoordinates, (1, 2.5)), (PsiVector, (0.5, 1))])
def test_kummer_and_psi_reject_non_integer_entries(cls, entries):
    with pytest.raises(TypeError):
        cls(3, entries)


@pytest.mark.parametrize(
    "make",
    [
        lambda: CyclotomicInt(3, (0.5, 0)),
        lambda: GroupRingElement(3, 0, Zmod(3), (0.5, 0, 0)),
        lambda: GroupRingElement(3, 0, GF27, ((0.5, 0, 0), GF27.zero, GF27.zero)),
        lambda: GF27.reduce((0.5, 0, 0)),
        # a float modulus, though 3.0 == 3
        lambda: Zmod(3.0),
        lambda: PrimeExtensionField(3.0, (2, 2, 0, 1)),
        lambda: FpMatrix(3.0, 1, 1, ((1,),)),
        lambda: FpMatrix.from_rows(3.0, [[1, 2], [2, 1]]),
        lambda: KummerCoordinates(3.0, (1, 0)),
        lambda: PsiVector(3.0, (1, 0)),
        lambda: CyclotomicInt(3.0, (1, 0)),
    ],
    ids=["CyclotomicInt", "GroupRingElement-Zmod", "GroupRingElement-GF27", "GF27.reduce",
         *(f"{name}-3.0" for name in ("Zmod", "PrimeExtensionField", "FpMatrix",
                                      "FpMatrix.from_rows", "KummerCoordinates", "PsiVector",
                                      "CyclotomicInt"))],
)
def test_integer_tables_reject_non_integer_entries(make):
    with pytest.raises(TypeError):
        make()


@pytest.mark.parametrize(
    "make, shape",
    [
        (lambda: FpMatrix(3, 2, 2, ((5, 0),)), "2 rows of 2"),
        (lambda: FpMatrix(3, 2, 2, ((1, 0), (0, 1), (0, 0))), "2 rows of 2"),
        (lambda: FpMatrix(3, 2, 2, ((1,), (0, 1))), "2 rows of 2"),
        (lambda: FpMatrix(3, 1, 0, ()), "1 rows of 0"),
        (lambda: FpMatrix.from_rows(3, [[1, 0], [0]]), "2 rows of 2"),
    ],
)
def test_fp_matrix_checks_the_shape(make, shape):
    with pytest.raises(ValueError, match=f"^entries are not {shape}$"):
        make()


@pytest.mark.parametrize(
    "p, rows, cols, entries",
    [
        *((p, 1, 1, ((1,),)) for p in (0, 1, 4, 9, -3)),
        (4, 2, 2, ((1,),)),  # the shape is wrong too, and checked second
        (4, 2, 2, ((1, 0), (0, 1))),
        # (2, 0) M = 0 over Z/4, but elimination as over a field finds rank 2
        (4, 2, 2, ((2, 0), (0, 1))),
        (6, 0, 0, ()),
    ],
)
def test_fp_matrix_checks_the_modulus_first(p, rows, cols, entries):
    with pytest.raises(ValueError, match=f"^modulus must be prime, got {p}$"):
        FpMatrix(p, rows, cols, entries)


@pytest.mark.parametrize(
    "sigma, tau, message",
    [
        ([[1, 0]], [[1, 0], [0, 1]], "sigma action has the wrong shape or modulus"),
        ([[1, 0], [0, 1]], [[1, 0], [0, 0]], "tau action is not invertible"),
        ([[2, 0], [0, 1]], [[1, 0], [0, 1]], "sigma action does not have order dividing p"),
        ([[1, 1], [0, 1]], [[1, 0], [1, 1]], "the two actions do not commute"),
    ],
)
def test_gmodule_invalid_action_messages(sigma, tau, message):
    with pytest.raises(InvalidAction) as info:
        GModule(3, 2, FpMatrix.from_rows(3, sigma), FpMatrix.from_rows(3, tau))
    assert str(info.value) == message


def test_only_value_defines_the_value_protocol():
    """Every class of the package gets equality, hashing, repr and
    immutability from `_value.frozen`, or keeps the object defaults."""
    protocol = {"__eq__", "__hash__", "__repr__", "__setattr__", "__delattr__"}
    found = []
    for path in sorted((SRC / "fermat_homology").glob("*.py")):
        if path.name == "_value.py":
            continue
        for cls in ast.walk(ast.parse(path.read_text())):
            if isinstance(cls, ast.ClassDef):
                for node in cls.body:
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        names = [node.name]
                    elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                        names = [t.id for t in targets if isinstance(t, ast.Name)]
                    else:
                        names = []
                    found += [f"{path.stem}.{cls.name}.{name}" for name in names if name in protocol]
    assert found == []


def test_cli_import_pulls_in_no_dataclasses_inspect_or_resources():
    # -S keeps site .pth files from importing these modules first.
    code = (
        "import sys, fermat_homology.cli; "
        "print(sorted(m for m in ('dataclasses', 'inspect', 'importlib.resources') "
        "if m in sys.modules))"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
