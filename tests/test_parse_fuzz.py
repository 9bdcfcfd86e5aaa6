"""Fuzzing the parse boundary: mutated golden documents either parse or raise
ParseError, and `validate` exits 0, 1 or 2 on them without a traceback."""

import contextlib
import io
import json
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from epistemic import ParseError, parse_structure
from epistemic.cli import main

GOLDEN = Path(__file__).parent / "golden"
DOCUMENTS = [json.loads((GOLDEN / name).read_text("utf-8")) for name in ("d1.json", "d1_counterfactual.json")]

# names that make a mutated document likelier to get past the first checks:
# a state replaced by another keeps a relation pair or a label well formed
NAMES = st.sampled_from([
    "w0", "w1", "w2", "w3", "a", "b", "", "w0+w1", "w1+w0", "w2+w3", "cf:a:w0:w0+w1", "cf:b:w3:w3",
    "version", "provenance", "labels", "origin_hash",
])
SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 3), st.floats(allow_nan=False), NAMES, st.text(max_size=4)
)
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.one_of(st.lists(inner, max_size=3), st.dictionaries(NAMES, inner, max_size=3)),
    max_leaves=6,
)


def _paths(node, path=()):
    """The path to every node of a JSON tree, children before their parent, so
    that the root, whose replacement is the least interesting, comes last."""
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _paths(child, path + (key,))
    yield path


def _mutate(data, doc):
    path = data.draw(st.sampled_from(list(_paths(doc))))
    parent = None
    node = doc
    for key in path:
        parent, node = node, node[key]
    kinds = ["replace"]
    if isinstance(parent, dict):
        kinds.append("drop")
    if isinstance(node, dict):
        kinds.append("add key")
    if isinstance(node, list):
        kinds.append("append")
        if node:
            kinds.append("remove entry")
    kind = data.draw(st.sampled_from(kinds))
    if kind == "replace":
        value = data.draw(st.one_of(NAMES, VALUES))
        if parent is None:
            return value
        parent[path[-1]] = value
    elif kind == "drop":
        del parent[path[-1]]
    elif kind == "add key":
        node[data.draw(NAMES)] = data.draw(VALUES)
    elif kind == "append":
        node.append(data.draw(VALUES))
    else:
        node.pop(data.draw(st.integers(0, len(node) - 1)))
    return doc


@settings(derandomize=True, deadline=None, max_examples=150)
@given(data=st.data(), which=st.sampled_from(range(len(DOCUMENTS))), rounds=st.integers(1, 2))
def test_mutated_documents_parse_or_raise_parse_error(tmp_path_factory, data, which, rounds):
    doc = json.loads(json.dumps(DOCUMENTS[which]))
    for _ in range(rounds):
        doc = _mutate(data, doc)
    text = json.dumps(doc)
    try:
        parse_structure(text)
    except ParseError:
        pass
    path = tmp_path_factory.mktemp("fuzz") / "doc.json"
    path.write_text(text, "utf-8")
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(["validate", str(path), "--json"])
    assert code in (0, 1, 2)
