"""Source hygiene: no `assert` invariants, no random sampling, one canonical layout,
three constructor bypasses, one maker of provenance labels, one writer per index fact,
one Sure-Thing Principle test and one disjoint-family walk, one compile for both
theorems' entries, and one reader of a caller's field.

``python -O`` strips ``assert`` statements, so a runtime invariant written as
one silently disappears; every check the library runs is exact, so it has no
use for the ``random`` module; the indented JSON layout is defined once,
in ``serialization.canonical_json``; and ``__new__`` skips a constructor, so
only the entry points that take parts already checked, or that run the
constructor's own checks, call it. Provenance labels are made in one place,
from the counterfactual structure's table, when they are first read.
Each kind of per-structure fact is written by one module, so that one module
owns how it is built and keyed, and each agent's successor rows are grouped in
one place, the ``("rows", agent)`` fact. The principle's per-pair test and the walk
over disjoint event families are each written once, in ``decisions.py``. Both theorems'
verdicts read the hypotheses off entries from one branch-free ``agreement._compile``, not
through the public checks. Every entry point that takes a field checks it through
``decisions._read_field``, so the field rule cannot drift apart between them.
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parent.parent / "src" / "epistemic").glob("*.py"))


def test_sources_found():
    assert len(SOURCES) > 5


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_and_no_random(path):
    tree = ast.parse(path.read_text("utf-8"), filename=str(path))
    for node in ast.walk(tree):
        where = f"{path.name}:{getattr(node, 'lineno', '?')}"
        assert not isinstance(node, ast.Assert), f"assert statement at {where}"
        if isinstance(node, ast.Import):
            names = [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [(node.module or "").split(".")[0]]
        else:
            continue
        assert "random" not in names, f"import of random at {where}"


def test_indented_json_is_written_only_by_canonical_json():
    writers = []
    for path in SOURCES:
        tree = ast.parse(path.read_text("utf-8"), filename=str(path))
        funcs = [n for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and any(kw.arg == "indent" for kw in node.keywords)):
                continue
            if getattr(node.func, "attr", getattr(node.func, "id", None)) != "dumps":
                continue
            enclosing = [f for f in funcs if f.lineno <= node.lineno <= f.end_lineno]
            name = max(enclosing, key=lambda f: f.lineno).name if enclosing else "<module>"
            writers.append((path.name, name))
    assert writers == [("serialization.py", "canonical_json")]


def test_new_is_called_only_by_the_two_checked_parts_entry_points():
    callers = []
    for path in SOURCES:
        tree = ast.parse(path.read_text("utf-8"), filename=str(path))
        scopes = [n for n in ast.walk(tree) if isinstance(n, (ast.ClassDef, ast.FunctionDef))]
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "__new__":
                around = [s for s in scopes if s.lineno <= node.lineno <= s.end_lineno]
                callers.append((path.name, ".".join(s.name for s in sorted(around, key=lambda s: s.lineno))))
    assert sorted(callers) == [
        ("counterfactual.py", "CounterfactualStructure._from_labels"),
        ("decisions.py", "DecisionFunction._built"),
        ("structures.py", "InformationStructure._from_rows"),
    ]


def test_labels_are_made_only_by_the_labels_property():
    callers = []
    for path in SOURCES:
        tree = ast.parse(path.read_text("utf-8"), filename=str(path))
        scopes = [n for n in ast.walk(tree) if isinstance(n, (ast.ClassDef, ast.FunctionDef))]
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "CounterfactualLabel":
                around = [s for s in scopes if s.lineno <= node.lineno <= s.end_lineno]
                callers.append((path.name, ".".join(s.name for s in sorted(around, key=lambda s: s.lineno))))
    assert callers == [("counterfactual.py", "CounterfactualStructure.labels")]


def test_each_fact_kind_is_written_by_one_module():
    writers: dict[str, set[str]] = {}
    touching = set()  # modules that read or write _facts at all
    stores = []
    for path in SOURCES:
        tree = ast.parse(path.read_text("utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "_memo":
                key = node.args[0]
                where = f"{path.name}:{node.lineno}"
                assert isinstance(key, ast.Tuple) and isinstance(key.elts[0], ast.Constant), where
                writers.setdefault(key.elts[0].value, set()).add(path.stem)
            elif isinstance(node, ast.Attribute) and node.attr == "_facts":
                touching.add(path.stem)
            if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store):
                if getattr(node.value, "attr", None) == "_facts":
                    stores.append(path.stem)
    assert writers == {
        "report": {"structures"}, "rows": {"structures"}, "agent": {"structures"}, "reach": {"structures"},
        "reach_groups": {"structures"}, "gamma": {"partitions"}, "shared": {"decisions"},
    }
    assert stores == ["structures"]  # the one store, in InformationStructure._memo
    assert touching == {"structures", "partitions", "decisions"}


def test_rows_are_grouped_only_by_the_rows_fact_and_the_reach_classes():
    callers = []
    for path in SOURCES:
        tree = ast.parse(path.read_text("utf-8"), filename=str(path))
        scopes = [n for n in ast.walk(tree) if isinstance(n, (ast.ClassDef, ast.FunctionDef))]
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_grouped":
                around = [s for s in scopes if s.lineno <= node.lineno <= s.end_lineno]
                callers.append((path.name, ".".join(s.name for s in sorted(around, key=lambda s: s.lineno))))
    assert sorted(callers) == [
        ("structures.py", "InformationStructure._reach_groups"),
        ("structures.py", "InformationStructure._rows"),
    ]


def _innermost(scopes, node):
    around = [s for s in scopes if s.lineno <= node.lineno <= s.end_lineno]
    return max(around, key=lambda s: s.lineno).name if around else "<module>"


def _walk_stack_poppers(tree, scopes):
    """Functions that pop the name a ``while`` loop tests: a depth-first walk from a stack."""
    poppers = set()
    for loop in ast.walk(tree):
        if isinstance(loop, ast.While) and isinstance(loop.test, ast.Name):
            for node in ast.walk(loop):
                if (isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "pop" and not node.args
                        and getattr(node.func.value, "id", None) == loop.test.id):
                    poppers.add(_innermost(scopes, node))
    return poppers


def _union_action_comparers(tree, scopes):
    """Functions that compare, with == or !=, a value read at a union's position (``x[union]``, or a
    name assigned from one): the Sure-Thing Principle's per-pair test."""
    def at_union(node):
        return (isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Load)
                and isinstance(node.slice, ast.Name) and "union" in node.slice.id)

    from_union = {(_innermost(scopes, node), target.id) for node in ast.walk(tree)
                  if isinstance(node, ast.Assign) and at_union(node.value)
                  for target in node.targets if isinstance(target, ast.Name)}
    comparers = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare) and all(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
            scope = _innermost(scopes, node)
            for side in (node.left, *node.comparators):
                if at_union(side) or (isinstance(side, ast.Name) and (scope, side.id) in from_union):
                    comparers.add(scope)
    return comparers


def test_field_stp_has_one_break_test_and_one_family_walk():
    """The principle's per-pair test lives only in ``decisions._first_break``, and the one stack walk
    over disjoint event families is ``decisions._disjoint_walk``, which the field's pairs and
    ``complete_stp_field`` both read; a third copy of either fails here."""
    poppers, comparers = {}, {}
    for path in SOURCES:
        tree = ast.parse(path.read_text("utf-8"), filename=str(path))
        scopes = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)]
        poppers[path.name] = _walk_stack_poppers(tree, scopes)
        comparers[path.name] = _union_action_comparers(tree, scopes)
    assert poppers["decisions.py"] == {"_disjoint_walk"}
    assert {name: found for name, found in comparers.items() if found} == {"decisions.py": {"_first_break"}}


def test_both_theorems_read_their_hypotheses_off_one_compile():
    """``agreement.py`` names neither public hypothesis check of field tables, and ``_compile``,
    which builds the entries of both modes, has no branch."""
    tree = ast.parse((SOURCES[0].parent / "agreement.py").read_text("utf-8"))
    names = {getattr(node, attr) for node in ast.walk(tree) for attr in ("id", "attr", "name")
             if isinstance(getattr(node, attr, None), str)}
    assert not names & {"check_like_minded", "check_stp_field"}
    compile_ = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "_compile"]
    assert len(compile_) == 1
    branches = (ast.If, ast.IfExp, ast.Match, ast.Try, ast.BoolOp)
    assert not [node.lineno for node in ast.walk(compile_[0]) if isinstance(node, branches)]


def test_the_field_rule_is_written_only_in_the_field_reader():
    """The messages of the field rule (not an iterable of events, an empty event, an event over
    another state) are raised only by ``decisions._read_field``."""
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text("utf-8"), filename=str(path))
        scopes = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.startswith(
                    ("field must be an iterable of events", "field events must be non-empty")):
                found.append((path.name, _innermost(scopes, node), node.value))
    assert found and {where[:2] for where in found} == {("decisions.py", "_read_field")}
    assert len(found) == 3
