"""Source-level rules for the witgeo package."""

import ast
import subprocess
import sys
from pathlib import Path

import witgeo

SOURCES = sorted(Path(witgeo.__file__).parent.glob("*.py"))


def test_no_assert_statements():
    # invariant checks raise explicitly: python -O strips assert statements
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert SOURCES
    assert not found, f"assert statements in witgeo: {found}"


def test_no_einsum_calls():
    # contractions go through matmul and kron: einsum plans its path on every call
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", getattr(node.func, "id", None)) == "einsum"
    ]
    assert not found, f"einsum calls in witgeo: {found}"


EIGENSOLVERS = {"eig", "eigh", "eigvalsh"}


def test_no_eigensolver_in_spin_or_measurements():
    # the measurement bases have closed forms: no spectrum is taken to find them
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        if path.name in ("measurements.py", "spin.py")
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", getattr(node.func, "id", None)) in EIGENSOLVERS
    ]
    assert not found, f"eigensolver calls in spin.py or measurements.py: {found}"


# The one writer path of io.py: every document is encoded there.
WRITER = {"_save"}


def test_io_encodes_json_only_in_its_writer():
    # json.dumps or tolist anywhere else in io.py would be a second encoder,
    # one that formats every float of a matrix on its own
    io_py = Path(witgeo.__file__).parent / "io.py"
    found = sorted(
        f"{getattr(node, 'name', 'module level')}:{sub.lineno}"
        for node in ast.parse(io_py.read_text()).body
        for sub in ast.walk(node)
        if isinstance(sub, ast.Attribute)
        and sub.attr in ("dumps", "tolist")
        and getattr(node, "name", None) not in WRITER
    )
    assert not found, f"json.dumps or tolist outside the io writer: {found}"


def test_package_never_loads_scipy():
    # a fresh interpreter: other test modules import scipy into this one
    src = str(Path(witgeo.__file__).parent.parent)
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import witgeo, witgeo.cli; "
        "witgeo.cli.build_parser(); "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, src], capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]", f"scipy modules loaded: {out.stdout.strip()}"


def test_kron_only_in_tensor():
    # one Kronecker routine: products of party factors and stacks of them go
    # through linalg.tensor, so np.kron appears nowhere and no other module
    # defines a function of its own with kron in its name
    found = sorted(
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text()))
        if (isinstance(node, ast.Attribute) and node.attr == "kron")
        or (
            isinstance(node, ast.FunctionDef)
            and "kron" in node.name.lower()
            and path.name != "linalg.py"
        )
    )
    assert not found, f"Kronecker products outside linalg.tensor: {found}"


def test_settings_build_no_joint_isometry():
    # a setting's kernels contract party by party: no Kronecker product of its bases
    path = Path(witgeo.__file__).parent / "measurements.py"
    found = [
        f"{path.name}:{node.lineno}"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", getattr(node.func, "id", None)) == "tensor"
    ]
    assert not found, f"tensor calls in measurements.py: {found}"


def test_no_literal_basis_tables():
    # qubit and qudit bases come from their closed forms (spin.eigenbasis and
    # the equatorial axis bases), not from hand-typed module-level arrays
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        if path.name in ("measurements.py", "spin.py")
        for node in ast.parse(path.read_text()).body
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None
        and any(
            isinstance(sub, ast.Call) and getattr(sub.func, "attr", None) == "array"
            for sub in ast.walk(node.value)
        )
    ]
    assert not found, f"module-level array literals in spin.py or measurements.py: {found}"


# Public names that only the benchmark's probe calls (perfbench/probe.py), not
# the CLI or another package module.  ROADMAP item 3 repoints the probe at the
# program's own routes and empties this set.
PINNED_BY_BENCHMARK = {"ghz_decomposition", "ghz_dephased", "load_witness_matrix"}


def _public(nodes):
    return [
        node
        for node in nodes
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    ]


def _referenced(path) -> set:
    """Every name, attribute and imported name in the module at path."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name)
    return found


def test_every_public_name_has_a_caller():
    # a public function, class, method or property of the package must be
    # referenced (as a name, an attribute or an import) by another package
    # module, or be pinned by the benchmark; names that only the tests call
    # belong in tests/
    modules = [path for path in SOURCES if path.name != "__init__.py"]
    defined = {}
    for path in modules:
        for node in _public(ast.parse(path.read_text()).body):
            defined[node.name] = path.stem
            if isinstance(node, ast.ClassDef):
                for member in _public(node.body):
                    defined[member.name] = f"{path.stem}.{node.name}"
    referenced = set().union(*map(_referenced, modules))
    assert defined
    unused = sorted(
        f"{module}.{name}"
        for name, module in defined.items()
        if name not in referenced and name not in PINNED_BY_BENCHMARK
    )
    assert not unused, f"public names without a caller in the package: {unused}"
    probe = Path(__file__).resolve().parent.parent / "perfbench" / "probe.py"
    stale = sorted((PINNED_BY_BENCHMARK - _referenced(probe)) | (PINNED_BY_BENCHMARK & referenced))
    assert not stale, f"pinned names the probe no longer calls or the package calls: {stale}"


# Where input enters: the CLI parses argv, io reads files.
EDGE = ("cli.py", "io.py")


def test_exceptions_handled_only_at_the_edge():
    # bad input is one exception raised where input enters, and cli.main picks
    # the exit code by type alone; a handler anywhere else could turn a fault
    # in the program into bad input, or hide it
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        if path.name not in EDGE
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ExceptHandler)
    ]
    assert not found, f"exception handlers outside {EDGE}: {found}"
    cli_py = Path(witgeo.__file__).parent / "cli.py"
    (main,) = [
        node
        for node in ast.parse(cli_py.read_text()).body
        if isinstance(node, ast.FunctionDef) and node.name == "main"
    ]
    handlers = [node for node in ast.walk(main) if isinstance(node, ast.ExceptHandler)]
    assert [ast.unparse(h.type) for h in handlers] == ["(BadInput, OSError)", "Exception"]


def test_no_private_imports_across_modules():
    # a name with a leading underscore belongs to its module: another module
    # that needs it calls the public function built on it, so each formula
    # has one home and one set of checks
    found = [
        f"{path.name}:{node.lineno} {alias.name}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "witgeo")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert not found, f"private names imported from another package module: {found}"


# The one default a caller relies on: main() reads sys.argv.
DEFAULTS_ALLOWED = {"cli.main"}


def test_no_defaults_on_public_functions():
    # every caller of a package function passes each argument, so a default
    # would be a second form of the call that nothing uses
    found = [
        f"{path.stem}.{name}:{func.lineno}"
        for path in SOURCES
        for node in _public(ast.parse(path.read_text()).body)
        for func, name in (
            [(sub, f"{node.name}.{sub.name}") for sub in _public(node.body)]
            if isinstance(node, ast.ClassDef)
            else [(node, node.name)]
        )
        if isinstance(func, ast.FunctionDef)
        and (func.args.defaults or any(func.args.kw_defaults))
        and f"{path.stem}.{name}" not in DEFAULTS_ALLOWED
    ]
    assert not found, f"public functions with default arguments: {found}"
