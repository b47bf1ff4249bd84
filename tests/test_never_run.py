"""Every function in the package runs under the CLI commands, or is on
``ALLOWLIST`` with the reason it stays.

The commands run in a fresh interpreter whose profile hook is installed
before ``fermat_homology`` is imported: some code runs only at import
(``frozen`` building the record classes,
``PrimeExtensionField.__post_init__`` checking GF27's modulus), and
``load_tables`` is cached, so a probe inside the test process would miss
them.  Functions are named by module and qualified name, read from the
source with ``ast``: Python 3.10 has no ``co_qualname``, and a decorated
function's code starts at the line of its first decorator.
"""

import ast
import json
import pathlib
import subprocess
import sys

import fermat_homology
from test_cli_golden import _README

PACKAGE = pathlib.Path(fermat_homology.__file__).resolve().parent

# The README's commands and the other choices of the two module selectors;
# together they also enter every function the benchmark's ladders enter.
COMMANDS = [
    form
    for cmd in _README
    + [f"homology --n 4 --which {which}" for which in ("relative", "projective", "stab")]
    + [f"cohomology --module {module}" for module in ("lambda1", "h1u", "h1x")]
    for form in (cmd, cmd + " --json")
]

_VALUE_PROTOCOL = "protocol method of a value class"

ALLOWLIST = {
    "_value.frozen.<locals>.__repr__": _VALUE_PROTOCOL,
    "_value._immutable": _VALUE_PROTOCOL,
    "group_ring.GroupRingElement.from_json": "the cli promises the bsigma payload reads back",
    "galois_kummer.KummerCoordinates.from_json": "the cli promises the psi input reads back",
    "galois_kummer.KummerCoordinates.__add__": "the law psi(g + h) = psi(g) + psi(h), tested",
    "galois_kummer.PsiVector.__add__": "the law psi(g + h) = psi(g) + psi(h), tested",
    "cyclotomic.CyclotomicInt.__add__": "additivity of conjugation, tested",
    "group_ring.DifferentialElement.__add__": "dlog(uv) = dlog u + dlog v, tested",
    "group_ring.DifferentialElement.is_zero": "dlog of a constant is 0, tested",
}

_PROBE = """
import contextlib, io, json, os, sys

entered = set()

def hook(frame, event, arg):
    if event == "call":
        entered.add(frame.f_code)

sys.path.insert(0, sys.argv[1])
sys.setprofile(hook)
import fermat_homology
from fermat_homology.cli import main

for command in json.loads(sys.argv[2]):
    with contextlib.redirect_stdout(io.StringIO()):
        main(command.split())
sys.setprofile(None)
package = os.path.dirname(os.path.abspath(fermat_homology.__file__))
print(json.dumps(sorted(
    [os.path.basename(code.co_filename)[:-3], code.co_firstlineno, code.co_name]
    for code in entered
    if os.path.dirname(os.path.abspath(code.co_filename)) == package
)))
"""


def defined_functions() -> dict[tuple[str, int, str], str]:
    """(module, first line of its code, name) -> "module.qualname" for every
    function and lambda in the package."""
    names = {}

    def visit(node, module, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                name = getattr(child, "name", "<lambda>")
                decorators = getattr(child, "decorator_list", [])
                first = min([d.lineno for d in decorators] + [child.lineno])
                names[module, first, name] = f"{module}.{prefix}{name}"
                visit(child, module, f"{prefix}{name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, module, f"{prefix}{child.name}.")
            else:
                visit(child, module, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, "")
    return names


def never_run() -> set[str]:
    """Qualified names of the package's functions that none of ``COMMANDS``
    enters; a name shared by several functions (lambdas) counts as run when
    any of them runs."""
    probe = subprocess.run(
        [sys.executable, "-c", _PROBE, str(PACKAGE.parent), json.dumps(COMMANDS)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert probe.returncode == 0 and not probe.stderr, probe.stderr
    defined = defined_functions()
    entered = {defined[tuple(key)] for key in json.loads(probe.stdout) if tuple(key) in defined}
    return set(defined.values()) - entered


def test_every_function_runs_under_the_commands_or_is_allowlisted():
    missing = never_run()
    assert sorted(missing - ALLOWLIST.keys()) == [], "never run and not allowlisted"
    assert sorted(ALLOWLIST.keys() - missing) == [], "allowlisted but run"
