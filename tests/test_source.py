"""Checks on the library's source text."""

import ast
import contextlib
import importlib
import io
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "thompsonf"


def test_library_checks_survive_optimized_mode():
    # python -O strips assert statements, so no library or demo check may be one
    sources = sorted(SRC.glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))
    assert len(sources) > 12
    asserts = [f"{path.name}:{node.lineno}" for path in sources
               for node in ast.walk(ast.parse(path.read_text(), str(path)))
               if isinstance(node, ast.Assert)]
    assert asserts == []


def test_no_functools_caches():
    # a functools cache is module-level mutable state, which the library keeps
    # out: its only module-level values are immutable tables
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                names = [alias.name for alias in node.names]
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id == "functools"):
                names = [node.attr]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name in ("lru_cache", "cache")]
    assert found == []


def test_no_threads_or_processes():
    # nothing in the library takes a lock or starts a worker: every object is
    # unchanged after it is made, so none needs one
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {module}" for module in modules
                      if module.split(".")[0] in ("threading", "_thread",
                                                  "multiprocessing", "concurrent")]
    assert found == []


def _top_level_names(path):
    names = set()
    for node in ast.parse(path.read_text(), str(path)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return names


def _names_used(code):
    names = set(code.co_names)
    for const in code.co_consts:
        if hasattr(const, "co_names"):
            names |= _names_used(const)
    return names


def test_rewriting_oracle_is_independent_of_the_tree_route():
    # rewrite_to_normal_form cross-checks the tree route, so the rewriting
    # code may name nothing that the trees or group modules define
    words = importlib.import_module("thompsonf.words")
    tree_route = {"trees", "group"}
    for module in ("trees", "group"):
        tree_route |= _top_level_names(SRC / f"{module}.py")
    assert {"TreePair", "leaf_exponents", "multiply", "element_of_word"} <= tree_route
    for name in ("_semi_normalize", "_runs", "rewrite_to_normal_form"):
        assert _names_used(getattr(words, name).__code__) & tree_route == set(), name


def test_exact_lengths_import_only_trees():
    # word_length and the sphere counter are checked against the breadth-first
    # search, so their module may import nothing of the library but trees
    path = SRC / "lengths.py"
    named = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            named |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module] if node.module else [a.name for a in node.names]
            named |= {"." * node.level + module for module in modules}
    assert {name for name in named if name.startswith(".")} == {".trees"}
    assert {name for name in named if name.split(".")[0] == "thompsonf"} == set()


def test_sphere_count_reads_only_the_automaton_rows():
    # what a reading state means lives in lengths._reading_automaton alone:
    # the packed fold names no state by a string and asks no state its h
    path = SRC / "lengths.py"
    fold = next(node for node in ast.parse(path.read_text(), str(path)).body
                if isinstance(node, ast.FunctionDef) and node.name == "_count_spheres")
    strings = [node.value for statement in fold.body[1:] for node in ast.walk(statement)
               if isinstance(node, ast.Constant) and isinstance(node.value, str)]
    names = {node.id for node in ast.walk(fold) if isinstance(node, ast.Name)}
    assert ast.get_docstring(fold) and strings == []
    assert "_reading_automaton" in names and "_heavy_to_read" not in names


def test_sweep_and_metric_paths_grow_no_ball():
    # exact lengths on these paths come from word_length; the search stays
    # for ball and for the tests that check word_length against it
    metric = importlib.import_module("thompsonf.metric")
    cli = importlib.import_module("thompsonf.cli")
    search = {"WordMetricOracle", "exact_length", "_search"}
    for function in (metric.metric_estimate, metric._estimate, metric.distortion_sweep,
                     cli._cmd_metric, cli._cmd_sweep):
        assert _names_used(function.__code__) & search == set(), function.__name__


def test_only_ball_and_the_bounds_check_search():
    # level stats come from the counted spheres and exact lengths from the
    # weights, so the search's only callers build a whole ball
    callers = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                callers += [f"{path.stem}.{node.name}" for call in ast.walk(node)
                            if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                            and call.func.id == "_search"]
    assert sorted(callers) == ["metric.ball", "metric.check_bounds_on_ball"]


def test_only_cancel_probes():
    # reduce_pair and every product cancel through trees._cancel, the one
    # routine that probes; no separate product reduction is left
    callers = []
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        assert "reduce_product" not in text, path.name
        for node in ast.walk(ast.parse(text, str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                callers += [f"{path.stem}.{node.name}" for call in ast.walk(node)
                            if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                            and call.func.id == "_probe"]
    assert set(callers) == {"trees._cancel"}


def _defaulted_parameters(node, prefix):
    """(function, parameter) names of every defaulted parameter below node."""
    found = []
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = f"{prefix}.{child.name}"
            if not isinstance(child, ast.ClassDef):
                args = child.args
                positional = args.posonlyargs + args.args
                defaulted = positional[len(positional) - len(args.defaults):]
                defaulted += [a for a, d in zip(args.kwonlyargs, args.kw_defaults)
                              if d is not None]
                found += [f"{name}.{a.arg}" for a in defaulted]
            found += _defaulted_parameters(child, name)
        else:
            found += _defaulted_parameters(child, prefix)
    return found


def test_every_defaulted_parameter_is_listed():
    # each knob has a program caller (library, CLI, demos or benchmark) that
    # sets a second value, or a reason in the change log; a new one must
    # extend this list, as a new export must extend EXPORTS
    found = [name for path in sorted(SRC.glob("*.py"))
             for name in _defaulted_parameters(ast.parse(path.read_text(), str(path)),
                                               path.stem)]
    assert found == [
        "cli.build_parser.command", "cli.main.argv", "embeddings.shift.k",
        "metric._check_radius.cap", "metric.WordMetricOracle.__init__.cap",
        "metric.WordMetricOracle.exact_length.max_radius",
        "metric.metric_estimate.search_radius", "metric.random_element.nontrivial",
        "metric.distortion_sweep.seed", "metric.distortion_sweep.max_carets",
        "metric.distortion_sweep.max_z", "metric.distortion_sweep.oracle",
        "metric.distortion_sweep.search_radius", "trees.Tree.__init__.left",
        "trees.Tree.__init__.right", "words.tree_pair_to_normal_form.check",
    ]


ROOT = SRC.parents[1]

EXPORTS = {
    "EmbeddingSpec", "GroupElement", "LEAF", "Letter", "MetricEstimate",
    "NormalForm", "ParseError", "Tree", "TreePair", "WordMetricOracle",
    "address_interval", "affine_fit", "caret", "caret_count",
    "check_bounds_on_ball", "clone_map", "commutator",
    "commutator_is_trivial", "distortion_envelopes", "distortion_sweep",
    "element_of_word", "embed_f_z", "embed_product", "envelope_fit",
    "f_z_spec", "format_pair", "format_tree", "format_word", "generator",
    "graft_at", "identity", "inverse", "is_prefix_free", "is_reduced",
    "leaf_exponents", "length_bounds", "metric_estimate", "multiply",
    "normal_form_to_tree_pair", "pair_to_dot", "parse_pair", "parse_tree",
    "parse_word", "power", "product_spec", "random_element", "random_tree",
    "reduce_pair", "rewrite_to_normal_form", "right_subtree_claims",
    "right_subtree_of_root_empty", "shift", "subtree_at", "sweep_to_csv",
    "tree_from_exponents", "tree_pair_to_normal_form", "tree_to_dot",
    "verify_relators", "word_inverse", "x", "xinv", "z_generator",
}


def test_benchmark_boundaries_resolve():
    # the traced benchmark rebinds these (module, attribute) names, so each
    # must stay where it reads it; the tuple is read from its source text
    tracing = ROOT / "perfbench" / "tracing.py"
    boundaries = next(
        ast.literal_eval(node.value)
        for node in ast.parse(tracing.read_text()).body
        if isinstance(node, ast.Assign)
        and getattr(node.targets[0], "id", None) == "BOUNDARIES"
    )
    names = [(path, attr) for path, attr, _ in boundaries]
    names += [("trees", "caret_count"), ("trees", "caret"), ("metric", "random_element")]
    assert len(names) > 20
    for path, attr in names:
        module, _, cls = path.partition(".")
        owner = importlib.import_module(f"thompsonf.{module}")
        if cls:
            owner = getattr(owner, cls)
        assert callable(getattr(owner, attr)), (path, attr)


def test_star_import_binds_the_exports():
    namespace = {}
    exec("from thompsonf import *", namespace)
    assert set(namespace) - {"__builtins__"} == EXPORTS
    assert len(EXPORTS) == 62


def test_readme_names_every_module():
    readme = (ROOT / "README.md").read_text()
    table = readme.split("## What is inside", 1)[1].split("\n## ", 1)[0]
    named = {line.split("`")[1] for line in table.splitlines() if line.startswith("| `")}
    modules = {f"thompsonf.{path.stem}" for path in SRC.glob("*.py")
               if path.stem != "__init__"}
    assert named == modules != set()


def test_readme_quick_start_runs():
    readme = (ROOT / "README.md").read_text()
    block = readme.split("## Library quick start", 1)[1]
    code = block.split("```python\n", 1)[1].split("```", 1)[0]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(code, {})
    lines = out.getvalue().splitlines()
    assert len(lines) == 7
    assert [lines[0], *lines[2:]] == ["x2", "7", "3", "(5, 24)", "8", "4 1"]
