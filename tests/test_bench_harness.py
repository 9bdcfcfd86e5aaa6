"""The benchmark harness's own self-tests, run as part of the suite."""

import contextlib
import io
import json
import re
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_self_tests_pass():
    result = subprocess.run(
        [sys.executable, "-m", "unittest", "discover", "-s", "bench"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    ran = re.search(r"^Ran (\d+) tests?", result.stderr, re.MULTILINE)
    assert ran and int(ran.group(1)) >= 13, result.stderr


def test_field_searches_match_pinned_sweep_digests(tmp_path, monkeypatch):
    """The seed-1 witness-sweep searches on every 3-state input and on s00 and
    s01 print exactly the output whose digest bench/expected.json pins."""
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import inputs
    import workloads

    from epistemic import cli

    expected = json.loads((ROOT / "bench" / "expected.json").read_text("utf-8"))
    pinned = expected["workloads"]["witness-sweep"]["default_seed"]["digests"]
    checked = 0
    for item, path in inputs.write_inputs("witness-sweep", expected["default_seed"], tmp_path):
        if item.states != 3 and item.name not in ("s00", "s01"):
            continue
        for tag, extra in workloads.SWEEP_SEARCHES:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                cli.main(["search", str(path), "--actions", "2", "--json", *extra])
            key = f"{item.name}:{tag}"
            assert workloads.sha256(out.getvalue()) == pinned[key], key
            checked += 1
    assert checked == 36


def test_traced_exhaustive_round_meets_the_pinned_counts(tmp_path, monkeypatch):
    """One traced exhaustive-search round at the default seed, run by the harness's own
    session and tracer, meets every pin of bench/expected.json: the two search counts
    (families enumerated and profiles checked) as well as the output digests."""
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import inputs
    import run
    from tracer import Tracer

    from epistemic import cli

    expected = run.load_expected()
    seed = expected["default_seed"]
    pins = run.pins_for(expected, "exhaustive-search", seed)
    files = inputs.write_inputs("exhaustive-search", seed, tmp_path / "inputs")
    alarm = signal.getsignal(signal.SIGALRM)  # the session's speed log installs its own handler
    try:
        session = run.Session(cli, "exhaustive-search", files, tmp_path, pins)
        session.tracer = Tracer()
        session.tracer.install()
        try:
            rnd = session.one_round()
        finally:
            session.tracer.uninstall()
    finally:
        signal.signal(signal.SIGALRM, alarm)
    assert rnd.errors == []
    assert [v.error for v in rnd.verdicts if v.error] == []
    assert {name: rnd.counts.get(name) for name in pins["counts"]} == pins["counts"]
    assert rnd.counts["decisions.families_enumerated"] == 8075
    assert rnd.counts["agreement.profiles_checked"] == 46427
