"""Structure of the pottsim package, read from its source with ast.

The package's modules must form an acyclic import graph, and no module may
import a _private name from another pottsim module. The scripts under tools/
keep to pottsim's public surface: they read no _private attribute of it and
assign none of its attributes. A module's __all__ lists only names the
module itself defines, not names it imports. Every import sits at module
level, and every absolute one names a standard-library module or numpy, the
one runtime dependency. No function calls itself:
searches keep explicit stacks, so their depth is not bounded by the
interpreter's recursion limit.
"""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "pottsim"
TOOLS = PACKAGE.parents[1] / "tools"
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def parsed_modules():
    """(module name, ast tree) for each pottsim module."""
    return [(path.stem, ast.parse(path.read_text(), str(path)))
            for path in sorted(PACKAGE.glob("*.py"))]


def intra_package_imports():
    """{module: [(imported module, [imported names]), ...]} within pottsim."""
    graph = {}
    for module, tree in parsed_modules():
        edges = graph.setdefault(module, [])
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                if node.level == 1:
                    target = node.module or ""
                elif node.module and node.module.startswith("pottsim."):
                    target = node.module.removeprefix("pottsim.")
                else:
                    continue
                names = [alias.name for alias in node.names]
                if not target:  # from . import x
                    edges += [(name, []) for name in names]
                else:
                    edges.append((target, names))
            elif isinstance(node, ast.Import):
                edges += [(alias.name.removeprefix("pottsim."), [])
                          for alias in node.names if alias.name.startswith("pottsim.")]
    return graph


def exports_and_definitions():
    """{module: (names in __all__, names bound at module level other than by
    an import)} for each pottsim module that sets __all__."""
    found = {}
    for module, tree in parsed_modules():
        exported, defined = None, set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.col_offset == 0:
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)) and node.col_offset == 0:
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    if isinstance(target, ast.Name):
                        defined.add(target.id)
                        if target.id == "__all__":
                            exported = [ast.literal_eval(elt) for elt in node.value.elts]
        if exported is not None:
            found[module] = (exported, defined)
    return found


def self_calls(tree):
    """(function name, line) for each call a function makes to itself by
    name or as a self./cls. attribute, from its nested functions too."""
    found = []
    for function in ast.walk(tree):
        if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(function):
            if not isinstance(node, ast.Call):
                continue
            callee = node.func
            if isinstance(callee, ast.Name):
                name = callee.id
            elif (isinstance(callee, ast.Attribute) and isinstance(callee.value, ast.Name)
                  and callee.value.id in ("self", "cls")):
                name = callee.attr
            else:
                continue
            if name == function.name:
                found.append((function.name, node.lineno))
    return found


def find_cycle(graph):
    """One import cycle as a list of modules, or None."""
    state = {}

    def visit(module, path):
        state[module] = "open"
        for target, _ in graph.get(module, []):
            if state.get(target) == "open":
                return path[path.index(target):] + [target]
            if target not in state:
                cycle = visit(target, path + [target])
                if cycle:
                    return cycle
        state[module] = "done"
        return None

    for module in graph:
        if module not in state:
            cycle = visit(module, [module])
            if cycle:
                return cycle
    return None


def test_every_module_is_read():
    graph = intra_package_imports()
    assert {"cli", "scheduler", "metrics", "oracle", "dynamics", "graph"} <= set(graph)
    assert ("graph", ["Graph"]) in graph["dynamics"]


def test_import_graph_is_acyclic():
    assert find_cycle(intra_package_imports()) is None


def test_find_cycle_sees_a_cycle():
    assert find_cycle({"a": [("b", [])], "b": [("c", [])], "c": [("a", [])]}) == ["a", "b", "c", "a"]


def test_no_private_name_imported_from_another_module():
    private = [
        (module, target, name)
        for module, edges in intra_package_imports().items()
        for target, names in edges
        for name in names
        if name.startswith("_") and target != module
    ]
    assert private == []


def test_all_lists_only_names_the_module_defines():
    found = exports_and_definitions()
    assert {"cli", "scheduler", "metrics", "oracle", "dynamics", "graph"} <= set(found)
    imported = [
        (module, name)
        for module, (exported, defined) in found.items()
        for name in exported
        if name not in defined
    ]
    assert imported == []


def test_no_import_inside_a_function():
    nested = [
        (module, node.lineno)
        for module, tree in parsed_modules()
        for function in ast.walk(tree) if isinstance(function, FUNCTIONS)
        for node in ast.walk(function) if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert nested == []


def test_absolute_imports_name_stdlib_or_numpy():
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    outside = []
    for module, tree in parsed_modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [(module, name) for name in names if name.split(".")[0] not in allowed]
    assert outside == []


def test_no_function_calls_itself():
    recursive = [(module, *call) for module, tree in parsed_modules() for call in self_calls(tree)]
    assert recursive == []


def test_self_calls_sees_a_nested_recursive_search():
    source = """
def exact_coloring(graph, k):
    def backtrack(colored, used):
        if colored == graph.n:
            return True
        return backtrack(colored + 1, used)

    return backtrack(0, 0)


class Walker:
    def visit(self, node):
        return [self.visit(child) for child in node]
"""
    assert self_calls(ast.parse(source)) == [("backtrack", 6), ("visit", 13)]


def test_only_the_validate_module_imports_numbers():
    """Argument checks live in pottsim.validate; a module that imports
    numbers is writing its own."""
    importers = [
        module
        for module, tree in parsed_modules()
        for node in ast.walk(tree)
        if (isinstance(node, ast.Import) and "numbers" in [alias.name for alias in node.names])
        or (isinstance(node, ast.ImportFrom) and node.module == "numbers")
    ]
    assert importers == ["validate"]


def test_only_the_validate_module_compares_shapes():
    """Array shapes are checked by validate.shaped; a module that compares a
    .shape or .ndim is writing its own check."""
    def shape_like(node):
        node = node.value if isinstance(node, ast.Subscript) else node
        return isinstance(node, ast.Attribute) and node.attr in ("shape", "ndim")

    comparers = sorted({
        module
        for module, tree in parsed_modules()
        for node in ast.walk(tree)
        if isinstance(node, ast.Compare)
        and any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops)
        and any(map(shape_like, [node.left, *node.comparators]))
    })
    assert comparers == ["validate"]


# the messages of validate.finite, validate.broadcast and validate.integers
VALIDATE_MESSAGES = ("must be finite", "must be a real array", "does not broadcast",
                     "must be an integer array")


def value_error_texts(tree):
    """(line, literal text) of each ValueError raised with a message, in line
    order; an f-string's text is its literal parts joined."""
    found = []
    for node in ast.walk(tree):
        exc = node.exc if isinstance(node, ast.Raise) else None
        if not (isinstance(exc, ast.Call) and isinstance(exc.func, ast.Name)
                and exc.func.id == "ValueError" and exc.args):
            continue
        message = exc.args[0]
        parts = message.values if isinstance(message, ast.JoinedStr) else [message]
        found.append((node.lineno, "".join(
            part.value for part in parts
            if isinstance(part, ast.Constant) and isinstance(part.value, str))))
    return sorted(found)


def test_only_the_validate_module_checks_finiteness_broadcasting_and_integer_labels():
    """Finiteness, broadcasting and integer labels are checked by
    validate.finite, validate.broadcast and validate.integers; a module that
    raises one of their messages is writing its own check."""
    raisers = sorted({
        module
        for module, tree in parsed_modules()
        for _, text in value_error_texts(tree)
        if any(phrase in text for phrase in VALIDATE_MESSAGES)
    })
    assert raisers == ["validate"]


def test_value_error_texts_sees_plain_and_formatted_messages():
    source = """
def check(xi, name):
    if bad(xi):
        raise ValueError("xi must be finite, got NaN or inf")
    raise ValueError(f"{name} must be an integer array, got dtype {xi.dtype}")
"""
    assert value_error_texts(ast.parse(source)) == [
        (4, "xi must be finite, got NaN or inf"), (5, " must be an integer array, got dtype ")]


def tool_reaches(tree):
    """(line, attribute) for each _private name a script imports or reads from
    a pottsim module, and each attribute it assigns or deletes on one,
    directly or through setattr or delattr."""
    def private(name):
        return name.startswith("_") and not name.endswith("__")

    modules, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {(alias.asname or alias.name).split(".")[0] for alias in node.names
                        if alias.name.split(".")[0] == "pottsim"}
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "pottsim":
            modules |= {alias.asname or alias.name for alias in node.names}
            found += [(node.lineno, alias.name) for alias in node.names if private(alias.name)]

    def of_pottsim(node):
        while isinstance(node, ast.Attribute):
            node = node.value
        return isinstance(node, ast.Name) and node.id in modules

    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and of_pottsim(node.value) and (
                private(node.attr) or not isinstance(node.ctx, ast.Load)):
            found.append((node.lineno, node.attr))
        elif isinstance(node, ast.Call) and node.args and of_pottsim(node.args[0]):
            callee = getattr(node.func, "id", getattr(node.func, "attr", None))
            if callee in ("setattr", "delattr"):
                found.append((node.lineno, callee))
    return sorted(found)


def test_tools_keep_to_the_public_surface():
    """A tool that reads a private function of pottsim, or swaps one of its
    attributes, runs pottsim as no caller does; the tests may, to spy on the
    kernel."""
    reaches = [(path.name, *reach) for path in sorted(TOOLS.glob("*.py"))
               for reach in tool_reaches(ast.parse(path.read_text(), str(path)))]
    assert {"dt_frontier.py", "window_times.py"} <= {path.name for path in TOOLS.glob("*.py")}
    assert reaches == []


def test_tool_reaches_sees_private_reads_and_assignments():
    source = """
from pottsim import dynamics
import pottsim.scheduler as sched
from pottsim.dynamics import _line_aligned, integrate

lattice = dynamics._lattice_coupling
dynamics._lattice_coupling = spy
setattr(sched, "solve_batch", spy)
integrate.calls += 1
print(dynamics.__doc__, sched.solve_batch, integrate(_phases))
"""
    assert tool_reaches(ast.parse(source)) == [
        (4, "_line_aligned"), (6, "_lattice_coupling"), (7, "_lattice_coupling"),
        (8, "setattr"), (9, "calls")]
