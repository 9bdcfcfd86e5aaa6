"""Bundled example structures."""

from importlib import resources

from .serialization import parse_structure
from .structures import InformationStructure


def d1() -> InformationStructure:
    """The desk example used throughout the tests: two agents over four states.

    Agent a cannot tell w0 from w1, nor w2 from w3; agent b pins w0 and w3
    exactly but confuses w1 with w2. Small enough for exhaustive runs, rich
    enough that the agents' union closures differ and the classic definedness
    flaws show up.
    """
    return parse_structure(d1_document())


def d1_document() -> str:
    """Canonical document text of the bundled example (also shipped as data/d1.json)."""
    return resources.files("epistemic").joinpath("data/d1.json").read_text("utf-8")
