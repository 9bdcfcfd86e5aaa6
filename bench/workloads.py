"""What one round of each workload runs, and how its verdicts are checked.

A round issues the workload's CLI calls in a fixed order through ``call``,
which times each call and captures its output. Known-answer checks run
afterwards, outside the timed calls, and mark each failed verdict with an
error. They also return the round's work counts and output digests, which must
repeat exactly from round to round and match the pins in ``expected.json``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from inputs import Input, canonical_json

SWEEP_SEARCHES = (
    ("stp", ["--relax", "stp"]),
    ("like_minded", ["--relax", "like_minded"]),
    ("theorem1", ["--mode", "theorem1"]),
)
NO_WITNESS = {"witness": None}


@dataclass
class Verdict:
    """One CLI call: its exit code (None if it raised), stdout and latency.

    ``started`` and ``ended`` are clock readings around the call; ``seconds``
    is the time between them less the probes taken inside, and ``scaled`` is
    that latency scaled to the reference host speed (speed.py).
    """

    key: str
    argv: list[str]
    code: int | None
    out: str
    started: float
    ended: float
    seconds: float
    error: str = ""
    scaled: float = 0.0

    def fail(self, message: str) -> None:
        if not self.error:
            self.error = message


Call = Callable[[str, list[str]], Verdict]
Files = list[tuple[Input, Path]]


def sha256(data: str | bytes) -> str:
    return hashlib.sha256(data.encode("utf-8") if isinstance(data, str) else data).hexdigest()


def _json(v: Verdict):
    try:
        return json.loads(v.out)
    except ValueError:
        v.fail("output is not JSON")
        return None


def _expect_code(v: Verdict, codes: tuple[int, ...]) -> bool:
    if v.code not in codes:
        v.fail(f"exit code {v.code}, expected {' or '.join(map(str, codes))}")
        return False
    return True


# ---------------------------------------------------------------------------
# rounds
# ---------------------------------------------------------------------------


def exhaustive_round(call: Call, files: Files, workdir: Path) -> list[Verdict]:
    actions = {"d1": "3", "chain6": "2"}
    return [
        call(f"{item.name}:search", ["search", str(path), "--actions", actions[item.name], "--json"])
        for item, path in files
    ]


def cf_round(call: Call, files: Files, workdir: Path) -> list[Verdict]:
    out = []
    for item, path in files:
        cf = workdir / f"{item.name}.cf.json"
        cf.unlink(missing_ok=True)
        out.append(call(f"{item.name}:counterfactual", ["counterfactual", str(path), "-o", str(cf)]))
        out.append(call(f"{item.name}:validate", ["validate", str(cf), "--json"]))
    return out


def sweep_round(call: Call, files: Files, workdir: Path) -> list[Verdict]:
    out = []
    for item, path in files:
        for tag, extra in SWEEP_SEARCHES:
            key = f"{item.name}:{tag}"
            v = call(key, ["search", str(path), "--actions", "2", "--json", *extra])
            out.append(v)
            witness = _witness(v)
            if witness is None:
                continue
            family = workdir / f"{item.name}.{tag}.family.json"
            family.write_text(canonical_json(witness["family"]), "utf-8")
            out.append(call(f"{key}:replay", ["check-agreement", str(path), str(family), "--json"]))
    return out


def _witness(v: Verdict):
    if v.code != 1:
        return None
    try:
        witness = json.loads(v.out)["witness"]
    except (ValueError, KeyError, TypeError):
        return None
    return witness if isinstance(witness, dict) and "family" in witness else None


# ---------------------------------------------------------------------------
# known-answer checks
# ---------------------------------------------------------------------------


def check_exhaustive(verdicts: list[Verdict], files: Files, workdir: Path):
    digests = {}
    for v in verdicts:
        digests[v.key] = sha256(v.out)
        if _expect_code(v, (0,)) and _json(v) != NO_WITNESS:
            v.fail("the theorem holds, yet the search reported a witness")
    return {"verdicts": len(verdicts)}, digests


def check_cf(verdicts: list[Verdict], files: Files, workdir: Path):
    digests = {}
    states = size = 0
    by_key = {v.key: v for v in verdicts}
    for item, _ in files:
        build = by_key[f"{item.name}:counterfactual"]
        validate = by_key[f"{item.name}:validate"]
        cf = workdir / f"{item.name}.cf.json"
        if _expect_code(build, (0,)):
            data = cf.read_bytes()
            digests[build.key] = sha256(data)
            size += len(data)
        if not _expect_code(validate, (0,)):
            continue
        doc = _json(validate)
        if doc is None:
            continue
        states += doc.get("states", 0)
        want = {
            "classification": "kd4",
            "states": item.counterfactual_states(),
            "actual_states": item.states,
            "counterfactual_states": item.counterfactual_states() - item.states,
        }
        got = {k: doc.get(k) for k in want}
        if got != want:
            validate.fail(f"validate reported {got}, expected {want}")
        elif not doc.get("verification", {}).get("passed"):
            validate.fail("verification did not pass")
    return {"verdicts": len(verdicts), "cf_states": states, "cf_bytes": size}, digests


def check_sweep(verdicts: list[Verdict], files: Files, workdir: Path):
    digests = {}
    witnesses = 0
    by_key = {v.key: v for v in verdicts}
    for item, _ in files:
        for tag, _ in SWEEP_SEARCHES:
            v = by_key[f"{item.name}:{tag}"]
            digests[v.key] = sha256(v.out)
            if tag == "theorem1":
                if _expect_code(v, (0,)) and _json(v) != NO_WITNESS:
                    v.fail("the theorem holds, yet the search reported a witness")
                continue
            if not _expect_code(v, (0, 1)):
                continue
            if v.code == 0:
                if _json(v) != NO_WITNESS:
                    v.fail("exit 0 with a witness")
                continue
            witness = _witness(v)
            if witness is None:
                v.fail("exit 1 without a witness")
                continue
            witnesses += 1
            if witness.get("relaxed") != [tag]:
                v.fail(f"witness relaxes {witness.get('relaxed')}, expected [{tag!r}]")
            replay = by_key.get(f"{v.key}:replay")
            if replay is None or not _expect_code(replay, (1,)):
                continue
            doc = _json(replay) or {}
            if not any(x.get("profile") == witness.get("profile") for x in doc.get("violations", ())):
                replay.fail("the replay does not reproduce the witness profile")
    return {"verdicts": len(verdicts), "witnesses": witnesses}, digests


# workload -> (issue one round's calls, check them and return counts and digests)
ROUNDS = {
    "exhaustive-search": (exhaustive_round, check_exhaustive),
    "cf-audit": (cf_round, check_cf),
    "witness-sweep": (sweep_round, check_sweep),
}


def check_pins(verdicts: list[Verdict], counts: dict, digests: dict, pins: dict) -> list[str]:
    """Compare digests and counts with the pins that apply to this seed.

    A digest mismatch fails its verdict; a count mismatch is returned as an
    error of the round.
    """
    by_key = {v.key: v for v in verdicts}
    errors = []
    for key, want in pins.get("digests", {}).items():
        if key not in by_key:
            errors.append(f"pinned verdict {key} was not issued")
        elif digests.get(key) != want:
            by_key[key].fail(f"output digest {digests.get(key)} differs from the pinned {want}")
    errors.extend(
        f"work count {name} is {counts[name]}, pinned {want}"
        for name, want in pins.get("counts", {}).items()
        if name in counts and counts[name] != want
    )
    return errors
