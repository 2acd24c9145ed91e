"""Route independence: what each route may share with the others.

The routes are compared against each other (``verify cto1``-``cto3``, the
filter's ``--compare``, the gamma rules in the tests), so a helper that two
routes reach moves both when it is wrong, and no comparison of the two can
see it.  The north star's rule is that no oracle is merged into the route
it checks.  This file checks it on an ``ast`` call graph of ``src/tfloc``.

The graph resolves a call by class where it can: on ``self`` and ``cls``,
on a tfloc class or module named in the call, on a parameter annotated with
a tfloc class, and on a local assigned from a call whose class or return
annotation is known.  A method called on anything else resolves to every
tfloc method of that name, so the graph over-reports.  Every function name
a function reads counts as a call (callbacks, ``functools.partial``), and
so does a property read on a receiver of known class.  ``gamma`` runs one
rule per call, so a call that names its rule reaches that rule's branch
alone.

Shared helpers are grouped, and each group allowed to a route is pinned on
its own by the test named in ``PINS``.  A route that reaches a new shared
helper fails ``test_each_route_shares_only_its_pinned_helpers`` until the
allow-list grows, with that helper's own pin.
"""

import ast
import re
from pathlib import Path

import pytest

import tfloc

SRC = Path(tfloc.__file__).parent
TESTS = Path(__file__).parent

# group -> the test that pins the group on its own (file, or file::test)
PINS = {
    "_lag_table": "test_operators.py::test_lag_table_is_the_index_formula",
    "_sandwich": "test_fourier.py",
    "Fibers": "test_fiber_windows.py",
    "actions": "test_grids_io.py::test_each_first_axis_action_states_its_facts",
    "profiles": "test_atoms.py",
    "range checks": "test_symbols.py::test_the_scale_helpers",
    "grids": "test_grids_io.py",
    "seam": "test_symbols.py::test_one_seam_where_a_symbol_meets_the_grid",
    "symbols": "test_symbols.py",
    "records": ("test_operators.py::"
                "test_operator_matrix_holds_float64_exactly_when_real"),
    "_check_gamma": ("test_symbols.py::"
                     "test_gamma_function_realness_check_is_relative"),
    "blocks": "test_transforms.py",
    "compound": ("test_operators.py::"
                 "test_integral_route_is_the_compound_route_with_alpha_one"),
    "omega side back": ("test_grids_io.py::"
                        "test_each_first_axis_action_states_its_facts"),
    "gamma grid rule": ("test_symbols.py::"
                        "test_gamma_table_matches_the_adaptive_pass"),
}

# function -> group, by the first pattern that matches "module:qualname";
# a function that matches none is a group of its own
GROUPS = [
    (r"operators:_lag_table$", "_lag_table"),
    (r"fourier:", "_sandwich"),
    (r"atoms:_row_blocks$", "blocks"),
    (r"atoms:(Fibers(\.|$)|_lattice_record|_window_bounds|_flush|_hull|"
     r"_nonzero_words|Atom\.(fibers|ell_matrix|_fiber_dtype)$)", "Fibers"),
    (r"grids:(_Action|_Dilation|_Translation|action_of)", "actions"),
    (r"atoms:Atom\.(eval_time|eval_freq|eval_power|case)$", "profiles"),
    (r"symbols:(_in_range|_largest_part|_exponent|_ldexp)$", "range checks"),
    (r"grids:", "grids"),
    (r"symbols:(Symbol1D\.(cell_values|sample)|SymbolSpec\.(cell_field|"
     r"_compact_field))$", "seam"),
    (r"symbols:", "symbols"),
    (r"kernels:(OperatorMatrix|GammaFunction)(\.|$)", "records"),
    (r"kernels:_check_gamma$", "_check_gamma"),
    # integral and pseudodiff are one assembly; neither checks the other
    (r"(operators:(_compound|_beta_hat_on_lattice)|"
     r"kernels:(weighted_)?overlap_kernel)$", "compound"),
    (r"operators:filter_signal\.back$", "omega side back"),
    (r"kernels:gamma\[grid\]$", "gamma grid rule"),
]

# the four builders, the two gamma rules and the two filter paths
ROUTES = {
    "direct": "operators:build_direct",
    "multiplication": "operators:build_multiplication",
    "integral": "operators:build_integral",
    "pseudodiff": "operators:build_pseudodiff",
    "gamma grid": "kernels:gamma[grid]",
    "gamma adaptive": "kernels:gamma[adaptive]",
    "slow filter": "operators:filter_signal.slow_path",
    "fast filter": "operators:filter_signal.fast_path",
}

# what the routes that read an atom's fiber record share
_RECORD = {"Fibers", "actions", "profiles", "range checks", "blocks", "seam"}
# route -> the groups it may share with another route
ALLOWED = {
    "direct": _RECORD | {"grids", "symbols", "records", "_sandwich",
                         "_lag_table"},
    "multiplication": {"records", "blocks"},
    "integral": _RECORD | {"grids", "symbols", "records", "_sandwich",
                           "_lag_table", "compound"},
    "pseudodiff": _RECORD | {"grids", "symbols", "records", "_sandwich",
                             "_lag_table", "compound"},
    "gamma grid": _RECORD | {"records", "_check_gamma", "gamma grid rule"},
    "gamma adaptive": {"actions", "profiles", "range checks", "seam",
                       "records", "_check_gamma"},
    "slow filter": _RECORD | {"grids", "symbols", "_sandwich",
                              "omega side back"},
    # the fast path is h times the grid-rule gamma: it runs that rule
    "fast filter": _RECORD | {"grids", "records", "_check_gamma",
                              "_sandwich", "omega side back",
                              "gamma grid rule"},
}


def _group(name: str) -> str:
    for pattern, group in GROUPS:
        if re.match(pattern, name):
            return group
    return name


class _Module:
    """The definitions and imports of one module of ``src/tfloc``."""

    def __init__(self, path: Path):
        self.name = path.stem
        self.tree = ast.parse(path.read_text(), str(path))
        self.defs = {}  # qualname -> FunctionDef or ClassDef
        self.imports = {}  # local name -> "module:name" of tfloc
        self.modules = {}  # local name -> tfloc module
        self.external = set()  # names of modules outside tfloc
        self._collect(self.tree, "")
        for node in ast.walk(self.tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    local = alias.asname or alias.name
                    if node.module is None:
                        self.modules[local] = alias.name
                    else:
                        self.imports[local] = f"{node.module}:{alias.name}"
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    self.external.add((alias.asname or alias.name)
                                      .split(".")[0])

    def _collect(self, node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                qual = f"{prefix}.{child.name}" if prefix else child.name
                self.defs[qual] = child
                self._collect(child, qual)
            else:
                self._collect(child, prefix)


def _annotation_names(node) -> list:
    """The names an annotation expression mentions: ``Fibers``,
    ``"Fibers"`` and ``Fibers | None`` alike."""
    if node is None:
        return []
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return re.findall(r"[A-Za-z_]\w*", node.value)
    return [n.id for n in ast.walk(node) if isinstance(n, ast.Name)]


class CallGraph:
    """``edges[name]``: the tfloc functions that function ``name``
    ("module:qualname") may call."""

    def __init__(self, src: Path = SRC):
        self.mods = {p.stem: _Module(p) for p in sorted(src.glob("*.py"))}
        self.defs = {f"{m}:{q}": node for m, mod in self.mods.items()
                     for q, node in mod.defs.items()}
        self.by_attr = {}  # method name -> every "module:Class.method"
        for name, node in self.defs.items():
            head, _, attr = name.rpartition(".")
            if isinstance(node, ast.FunctionDef) and head and isinstance(
                    self.defs.get(head), ast.ClassDef):
                self.by_attr.setdefault(attr, set()).add(name)
        self.edges = {}
        for name, node in self.defs.items():
            if isinstance(node, ast.ClassDef):
                self.edges[name] = {f"{name}.{m}" for m in ("__init__",
                                                            "__post_init__")
                                    if f"{name}.{m}" in self.defs}
            else:
                self.edges[name] = self._calls(name, node)
        # gamma runs one rule per call: each rule's branch is a node
        for rule, keep in (("adaptive", "body"), ("grid", "orelse")):
            self.edges[f"kernels:gamma[{rule}]"] = self._calls(
                "kernels:gamma", self.defs["kernels:gamma"],
                skip=self._rule_branch("kernels:gamma",
                                       "orelse" if keep == "body" else "body"))

    def _rule_branch(self, name, part):
        """The statements of ``name``'s ``if rule == ...`` branch ``part``."""
        for node in ast.walk(self.defs[name]):
            if (isinstance(node, ast.If) and isinstance(node.test, ast.Compare)
                    and isinstance(node.test.left, ast.Name)
                    and node.test.left.id == "rule"
                    and isinstance(node.test.ops[0], ast.Eq)):
                return getattr(node, part)
        raise AssertionError(f"{name} has no rule branch")

    # -- resolution ---------------------------------------------------------

    def _class_attr(self, cls: str, attr: str) -> set:
        """``attr`` of the tfloc class ``cls`` or of its bases."""
        if f"{cls}.{attr}" in self.defs:
            return {f"{cls}.{attr}"}
        mod = cls.split(":")[0]
        for base in self.defs[cls].bases:
            target = self._name(mod, "", base.id) if isinstance(
                base, ast.Name) else None
            if target and isinstance(self.defs.get(target), ast.ClassDef):
                found = self._class_attr(target, attr)
                if found:
                    return found
        return set()

    def _name(self, mod: str, scope: str, name: str):
        """The tfloc definition a bare ``name`` read in ``scope`` of ``mod``
        names, innermost scope first; None when it names none."""
        parts = scope.split(".") if scope else []
        for k in range(len(parts), -1, -1):
            qual = ".".join(parts[:k] + [name])
            if f"{mod}:{qual}" in self.defs:
                return f"{mod}:{qual}"
        target = self.mods[mod].imports.get(name)
        return target if target in self.defs else None

    def _class_of(self, mod, scope, expr, types):
        """The tfloc class of ``expr``'s value where it is known, else
        None."""
        if isinstance(expr, ast.Name):
            if expr.id in types:
                return types[expr.id]
            target = self._name(mod, scope, expr.id)
            if target and isinstance(self.defs[target], ast.ClassDef):
                return target
            return None
        if isinstance(expr, ast.IfExp):
            return self._class_of(mod, scope, expr.body, types)
        if isinstance(expr, ast.Call):
            for target in self._callee(mod, scope, expr.func, types):
                node = self.defs[target]
                if isinstance(node, ast.ClassDef):
                    return target
                for name in _annotation_names(node.returns):
                    cls = self._name(target.split(":")[0], "", name)
                    if cls and isinstance(self.defs[cls], ast.ClassDef):
                        return cls
        return None

    def _callee(self, mod, scope, func, types) -> set:
        """The tfloc definitions a call of ``func`` may run."""
        if isinstance(func, ast.Name):
            target = self._name(mod, scope, func.id)
            return {target} if target else set()
        if not isinstance(func, ast.Attribute):
            return set()
        root = func.value
        while isinstance(root, (ast.Attribute, ast.Call, ast.Subscript)):
            root = root.func if isinstance(root, ast.Call) else root.value
        if isinstance(root, ast.Name) and root.id in self.mods[mod].external:
            return set()
        recv = func.value
        if isinstance(recv, ast.Name) and recv.id in self.mods[mod].modules:
            target = f"{self.mods[mod].modules[recv.id]}:{func.attr}"
            return {target} if target in self.defs else set()
        if isinstance(recv, ast.Name) and recv.id in ("self", "cls"):
            cls = self._enclosing_class(mod, scope)
        else:
            cls = self._class_of(mod, scope, recv, types)
        if cls:
            found = self._class_attr(cls, func.attr)
            if found:
                return found
        return set(self.by_attr.get(func.attr, ()))

    def _enclosing_class(self, mod, scope):
        parts = scope.split(".")
        for k in range(len(parts), 0, -1):
            qual = f"{mod}:{'.'.join(parts[:k])}"
            if isinstance(self.defs.get(qual), ast.ClassDef):
                return qual
        return None

    def _calls(self, name, fn, skip=()) -> set:
        mod, scope = name.split(":")
        types = {}
        for arg in fn.args.args + fn.args.kwonlyargs:
            for ann in _annotation_names(arg.annotation):
                cls = self._name(mod, "", ann)
                if cls and isinstance(self.defs[cls], ast.ClassDef):
                    types[arg.arg] = cls
        skipped = {id(s) for s in skip}
        out = set()

        def visit(node):
            if id(node) in skipped:
                return
            if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                    and isinstance(node.targets[0], ast.Name):
                cls = self._class_of(mod, scope, node.value, types)
                if cls:
                    types[node.targets[0].id] = cls
            if isinstance(node, ast.Call):
                targets = self._callee(mod, scope, node.func, types)
                rule = next((k.value.value for k in node.keywords
                             if k.arg == "rule"
                             and isinstance(k.value, ast.Constant)), None)
                if targets == {"kernels:gamma"} and rule is not None:
                    targets = {"kernels:gamma[adaptive]" if rule == "adaptive"
                               else "kernels:gamma[grid]"}
                out.update(targets)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                target = self._name(mod, scope, node.id)
                if target:
                    out.add(target)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx,
                                                                ast.Load):
                # a property read on a receiver of known class
                cls = self._class_of(mod, scope, node.value, types)
                if cls is None and isinstance(node.value, ast.Name) \
                        and node.value.id == "self":
                    cls = self._enclosing_class(mod, scope)
                if cls:
                    out.update(t for t in self._class_attr(cls, node.attr)
                               if _is_property(self.defs[t]))
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                    out.add(f"{mod}:{scope}.{child.name}")
                elif not (isinstance(node, ast.Call) and child is node.func
                          and isinstance(child, ast.Name)):
                    visit(child)  # a called name is resolved as its call

        for statement in fn.body:
            visit(statement)
        out.discard(name)
        return out

    def reach(self, start: str) -> set:
        seen, todo = set(), [start]
        while todo:
            name = todo.pop()
            if name not in seen:
                seen.add(name)
                todo.extend(self.edges.get(name, ()))
        return seen


def _is_property(node) -> bool:
    return isinstance(node, ast.FunctionDef) and any(
        (isinstance(d, ast.Name) and d.id in ("property", "cached_property"))
        or (isinstance(d, ast.Attribute) and d.attr == "cached_property")
        for d in node.decorator_list)


def shared_groups(graph: CallGraph) -> dict:
    """route -> the groups it reaches that another route reaches too."""
    groups = {route: {_group(n) for n in graph.reach(start)}
              for route, start in ROUTES.items()}
    return {route: {g for g in mine
                    if any(g in theirs for other, theirs in groups.items()
                           if other != route)}
            for route, mine in groups.items()}


@pytest.fixture(scope="module")
def graph():
    return CallGraph()


def test_the_routes_and_their_helpers_are_in_the_graph(graph):
    for start in ROUTES.values():
        assert graph.edges.get(start), start
    # the resolution the allow-lists rest on: methods by class, the
    # actions' methods by name, the gamma rules by branch, properties read
    assert "atoms:Fibers.gram" in graph.reach("operators:build_direct")
    assert "grids:_Dilation.fiber_block" in graph.reach("atoms:Atom.fibers")
    assert "atoms:Atom._profile_table" in graph.reach("kernels:_profile_at")
    assert "kernels:_gamma_adaptive" not in graph.reach(
        "operators:filter_signal.fast_path")
    assert "atoms:Fibers.power_sums" not in graph.reach(
        "kernels:gamma[adaptive]")


def test_each_route_shares_only_its_pinned_helpers(graph):
    shared = shared_groups(graph)
    wrong = {route: {"not allowed": sorted(shared[route] - allowed),
                     "no longer shared": sorted(allowed - shared[route])}
             for route, allowed in ALLOWED.items()
             if shared[route] != allowed}
    assert not wrong, wrong


def test_each_allowed_helper_names_an_existing_pin():
    for group in set().union(*ALLOWED.values()):
        where, _, test = PINS[group].partition("::")
        path = TESTS / where
        assert path.is_file(), PINS[group]
        if test:
            assert re.search(rf"^def {test}\(", path.read_text(), re.M), \
                PINS[group]


def test_the_direct_reference_reads_none_of_the_direct_helpers(graph):
    # the test-side column loop checks the direct route at n <= 64: it
    # builds the record (ell_matrix) and the sandwich, both pinned on their
    # own, and none of the direct route's own helpers
    tree = ast.parse((TESTS / "test_operators.py").read_text())
    loop = next(n for n in tree.body if isinstance(n, ast.FunctionDef)
                and n.name == "_direct_column_loop")
    read = {n.attr if isinstance(n, ast.Attribute) else n.id
            for n in ast.walk(loop) if isinstance(n, (ast.Name,
                                                      ast.Attribute))}
    own = {name.split(":")[1].split(".")[-1]
           for name in graph.reach("operators:build_direct")
           if _group(name) == name or _group(name) == "_lag_table"}
    assert own and not read & own, read & own
