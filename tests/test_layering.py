"""Layering guards.

The coefficient layout of cyclotomic numbers stays behind Cyc and CycMatrix:
only repkit, home of the flat CycMatrix kernel, may import the underscore
helpers of hypermono.algebra.cyc; every other module goes through Cyc.

F_q has one binary power, numth's _power: FieldSpec reads its powers off
its exp table and has no pow.

The cap is set in one place: no function but numth's _cap and _powers
takes a cap, the CLI has no --cap option, and no module-level name ending
in _CAP is bound outside CAP_NAMES.

A closed FqMatrix group keeps one index, keyed by data: no digit key.

Gauss-Jordan over F_q is written once, in the kernel module.

Every public module-level function and class has a caller in the package or
in perfbench, or is a reference implementation that a named test compares
against.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CYC = "hypermono.algebra.cyc"
ALLOWED = {"hypermono.repkit"}


def _imports_from(path: Path):
    """(importing module, imported-from module, names) for every from-import
    in the file, with relative imports resolved against the file's package."""
    parts = list(path.relative_to(SRC).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
        package = parts
    else:
        package = parts[:-1]
    module = ".".join(parts)
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom):
            base = package[: len(package) - node.level + 1] if node.level else []
            target = ".".join(base + ([node.module] if node.module else []))
            yield module, target, [alias.name for alias in node.names]


def test_only_repkit_imports_private_cyc_names():
    offenders = [
        (module, name)
        for path in sorted(SRC.rglob("*.py"))
        for module, target, names in _imports_from(path)
        if target == CYC and module not in ALLOWED
        for name in names
        if name.startswith("_")
    ]
    assert offenders == []


def test_the_guard_sees_relative_imports():
    """stonevn and weilgl import cyc relatively; the walk must resolve them."""
    seen = {
        module
        for path in SRC.rglob("*.py")
        for module, target, _ in _imports_from(path)
        if target == CYC
    }
    assert {"hypermono.stonevn", "hypermono.weilgl", "hypermono.repkit"} <= seen


def test_one_power_and_one_walk_and_no_setattr_override():
    """The binary power and the capped walk over group elements are defined
    once, in numth: the only >>= in src halves _power's exponent, and
    FieldSpec has no pow of its own (its powers are read off its exp table).
    No value type guards its slots by overriding __setattr__ or writes them
    through object.__setattr__."""
    homes, setattr_uses, shifts, field_methods, power = {}, [], [], None, None
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.FunctionDef) and node.name in ("_power", "_powers"):
                homes.setdefault(node.name, []).append(path.relative_to(SRC).as_posix())
                power = node if node.name == "_power" else power
            if isinstance(node, ast.AugAssign) and isinstance(node.op, ast.RShift):
                shifts.append((path.relative_to(SRC).as_posix(), node.lineno))
            if isinstance(node, ast.ClassDef) and node.name == "FieldSpec":
                field_methods = {n.name for n in node.body if isinstance(n, ast.FunctionDef)}
            if isinstance(node, ast.FunctionDef) and node.name == "__setattr__":
                setattr_uses.append((path.name, node.lineno))
            if (
                isinstance(node, ast.Attribute)
                and node.attr == "__setattr__"
                and isinstance(node.value, ast.Name)
                and node.value.id == "object"
            ):
                setattr_uses.append((path.name, node.lineno))
    numth = "hypermono/algebra/numth.py"
    assert homes == {"_power": [numth], "_powers": [numth]}
    assert [home for home, _ in shifts] == [numth] and power.lineno <= shifts[0][1] <= power.end_lineno
    assert "subfield_power_map" in field_methods and "pow" not in field_methods
    assert setattr_uses == []


def test_one_cap_parameter_and_no_cap_option():
    """The cap is set in one place, HYPERMONO_CAP: only numth._cap (which
    reads it) and numth._powers (whose walks CYC_ORDER_CAP also bounds) take
    a parameter named cap, and the CLI declares no --cap option."""
    takers, options = [], []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                a = node.args
                if any(arg.arg == "cap" for arg in a.posonlyargs + a.args + a.kwonlyargs):
                    takers.append((path.relative_to(SRC).as_posix(), getattr(node, "name", "<lambda>")))
            if isinstance(node, ast.FunctionDef) and node.name == "build_parser":
                options += [
                    arg.value
                    for call in ast.walk(node)
                    if isinstance(call, ast.Call) and getattr(call.func, "attr", None) == "add_argument"
                    for arg in call.args
                    if isinstance(arg, ast.Constant)
                ]
    numth = "hypermono/algebra/numth.py"
    assert sorted(takers) == [(numth, "_cap"), (numth, "_powers")]
    assert "--out" in options and "--cap" not in options  # the walk sees the options


# the module-level names ending in _CAP: the cap's default, the bound on a
# CycMatrix walk (which may never end), the exit code of a refusal, and the
# element scan that perfbench still traces
CAP_NAMES = {
    "hypermono.algebra.numth.DEFAULT_CAP",
    "hypermono.repkit.CYC_ORDER_CAP",
    "hypermono.cli.EXIT_CAP",
    "hypermono.weilgl.ELEMENT_SCAN_CAP",
}


def test_no_second_cap():
    """No module in src binds a module-level name ending in _CAP beyond
    CAP_NAMES: a model's or a loop's size is held to the one cap."""
    names = set()
    for path in sorted(SRC.rglob("*.py")):
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        for node in ast.parse(path.read_text(), str(path)).body:
            targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
            names |= {f"{module}.{t.id}" for t in targets if isinstance(t, ast.Name) and t.id.endswith("_CAP")}
    assert names == CAP_NAMES


# the digit key of an FqMatrix and the index over it, which its data and
# closure's one index replace
SECOND_INDEX_NAMES = {"digits", "digit_bytes", "_digit_positions"}


def test_no_second_index():
    """No module in src defines or reads FqMatrix.digits, FieldSpec.digit_bytes
    or MatGroup._digit_positions: a closed FqMatrix group keeps one index,
    keyed by data, that closure and the class search share."""
    names = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            name = node.name if isinstance(node, ast.FunctionDef) else getattr(node, "attr", None)
            if name in SECOND_INDEX_NAMES:
                names.append((path.relative_to(SRC).as_posix(), node.lineno, name))
    assert names == []


def test_one_gauss_jordan_over_fq():
    """Gauss-Jordan over F_q is written once, as the kernel's rref, and
    mat_rank calls it with no loop of its own; the only other rref is cyc's,
    over Fraction and Cyc entries."""
    homes, mat_rank = [], None
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.FunctionDef) and node.name == "rref":
                homes.append(path.relative_to(SRC).as_posix())
            if isinstance(node, ast.FunctionDef) and node.name == "mat_rank" and path.name == "_fqcore_py.py":
                mat_rank = node
    assert homes == ["hypermono/algebra/_fqcore_py.py", "hypermono/algebra/cyc.py"]
    calls = {n.func.id for n in ast.walk(mat_rank) if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)}
    assert "rref" in calls
    assert not any(isinstance(n, (ast.For, ast.While)) for n in ast.walk(mat_rank))


# public names with no caller outside the tests: each is the reference a test
# holds the package to, and its docstring names that test
REFERENCES = {
    "hypermono.gates.landau_bruteforce": "tests/test_acceptance.py::test_criterion_7_gate_regression",
    "hypermono.repkit.spectrum": "tests/test_repkit.py::TestSpectrum",
    "hypermono.stonevn.sp_halves": "tests/test_stonevn.py::TestHalves",
    "hypermono.weilgl.group_scalars": "tests/test_acceptance.py::test_criterion_4_weil_identities",
    "hypermono.weilgl.gl_classes": "tests/test_weilgl.py::TestClassData",
    "hypermono.weilgl.gu_block_torus": "tests/test_weilgl.py::TestTori",
    "hypermono.weilgl.simple_cycle_types": "tests/test_acceptance.py::test_criterion_2_alternating_oracle",
    "hypermono.weilgl.the_group": "tests/test_acceptance.py::test_criterion_4_weil_identities",
}
# a re-export is not a use
REEXPORTS = {SRC / "hypermono" / "algebra" / "__init__.py"}


def _public_definitions():
    """(qualified name, node, path) of every public module-level def and class."""
    for path in sorted(SRC.rglob("*.py")):
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        for node in ast.parse(path.read_text(), str(path)).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                yield f"{module}.{node.name}", node, path


def _identifier_lines(paths):
    """name -> [(path, line)] for every name and attribute name read in the files."""
    out = {}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.Name, ast.Attribute)):
                out.setdefault(node.id if isinstance(node, ast.Name) else node.attr, []).append((path, node.lineno))
    return out


def test_public_names_have_callers():
    """A name defined in src/hypermono is used where it is read outside its
    own definition, in src (re-exports aside) or in perfbench; the names used
    nowhere are exactly REFERENCES, each naming a real test in its docstring."""
    files = [p for p in sorted(SRC.rglob("*.py")) if p not in REEXPORTS] + sorted((ROOT / "perfbench").rglob("*.py"))
    where = _identifier_lines(files)
    uncalled = {
        name: ast.get_docstring(node) or ""
        for name, node, home in _public_definitions()
        if all(path == home and node.lineno <= line <= node.end_lineno for path, line in where.get(node.name, []))
    }
    assert set(uncalled) == set(REFERENCES)
    for name, test in REFERENCES.items():
        path, _, target = test.partition("::")
        tree = ast.parse((ROOT / path).read_text())
        assert target in {n.name for n in tree.body if isinstance(n, (ast.FunctionDef, ast.ClassDef))}, test
        assert target in " ".join(uncalled[name].split()), f"{name}'s docstring does not name {target}"
