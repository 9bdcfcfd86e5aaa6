"""Benchmark harness for the epistemic CLI.

Run from the repository root:

    python3 bench/run.py --workload exhaustive-search --seed 1 --seconds 40 --trace 0

Workloads and metrics are listed in BENCHMARK.json. The harness imports the
program from ``src/`` and drives ``epistemic.cli.main(argv)`` in-process with
stdout captured, one caller, closed loop: each call starts when the previous one
has returned. A round is the workload's fixed list of CLI calls (its verdicts);
rounds repeat until ``--seconds`` is spent. Each verdict's latency is scaled to
a reference host speed (speed.py) and the end-to-end timings come from each
verdict's median over the rounds. Set-up is timed in fresh processes, several
times per run. Every verdict is checked against a known answer after its round,
outside the timed calls. ``--trace 1`` measures untraced rounds for half the
time, then wraps the library's public functions (tracer.py) and reports
per-layer metrics from traced rounds for the other half.

The last line of stdout is one JSON object: correct, attempted, failed, metrics.
A run record (host, commit, load, work counts, unscaled timings) goes to
.bench_work/runs/, and the per-verdict span aggregates of a traced run to
.bench_work/traces/. ``python3 bench/compare.py A B`` compares two directories
of run records; ``python3 -m unittest discover -s bench`` runs the self-tests.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from inputs import DEFAULT_SEED, WORKLOADS, write_inputs
from speed import REFERENCE_S, SpeedLog, probe
from tracer import Tracer, summarize
from workloads import ROUNDS, Verdict, check_pins

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
EXPECTED = BENCH / "expected.json"
SETUP_SAMPLES = 9
# Counts read from outputs and the two search counters that no optimization
# may move; these are the ones pinned in expected.json.
PINNED_COUNTS = ("verdicts", "witnesses", "cf_states", "cf_bytes",
                 "decisions.families_enumerated", "agreement.profiles_checked")


class ProgramMissing(Exception):
    pass


def import_cli():
    """Import ``epistemic.cli`` from this checkout's ``src/``, never from elsewhere."""
    package = SRC / "epistemic"
    if not (package / "__init__.py").is_file():
        raise ProgramMissing(f"no program to measure: {package} is missing")
    sys.path.insert(0, str(SRC))
    import epistemic.cli

    if Path(epistemic.cli.__file__).resolve().parent != package.resolve():
        raise ProgramMissing(f"epistemic was imported from {epistemic.cli.__file__}")
    return epistemic.cli


# ---------------------------------------------------------------------------
# rounds
# ---------------------------------------------------------------------------


@dataclass
class Round:
    verdicts: list[Verdict]
    cpu_s: float
    counts: dict
    digests: dict
    errors: list[str]
    layers: dict | None = None
    trace: tuple[dict, dict] | None = None   # span aggregates, counters


class Session:
    def __init__(self, cli, workload: str, files, workdir: Path, pins: dict | None):
        self.cli = cli
        self.workload = workload
        self.files = files
        self.workdir = workdir
        self.pins = pins
        self.tracer: Tracer | None = None
        self.speed = SpeedLog()
        self.rounds: list[Round] = []

    def call(self, key: str, argv: list[str]) -> Verdict:
        self.speed.sample()
        if self.tracer is not None:
            self.tracer.verdict = key
        out, err = io.StringIO(), io.StringIO()
        error = ""
        self.speed.start_inside()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = self.cli.main(argv)
                except Exception as exc:  # a verdict that raises fails; the run goes on
                    code = None
                    error = f"raised {type(exc).__name__}: {exc}"
        finally:
            self.speed.stop_inside()
        end = time.perf_counter()
        self.speed.sample()
        seconds = end - start - self.speed.paused(start, end)
        return Verdict(key, argv, code, out.getvalue(), start, end, seconds, error)

    def one_round(self) -> Round:
        issue, check = ROUNDS[self.workload]
        self.speed.sample(force=True)
        began, cpu = time.perf_counter(), time.process_time()
        verdicts = issue(self.call, self.files, self.workdir)
        cpu = time.process_time() - cpu - self.speed.paused(began, time.perf_counter())
        self.speed.sample(force=True)
        for v in verdicts:
            v.scaled = v.seconds * self.speed.scale(v.started, v.ended)
        counts, digests = check(verdicts, self.files, self.workdir)
        layers = trace = None
        if self.tracer is not None:
            trace = self.tracer.take()
            layers = summarize(*trace)
            counts.update({
                k: v for k, v in layers.items()
                if not k.endswith(("_s", "_ratio", "_per_profile"))
            })
        errors = [] if self.pins is None else check_pins(verdicts, counts, digests, self.pins)
        same_mode = [r for r in self.rounds if (r.layers is None) == (layers is None)]
        if same_mode and same_mode[0].counts != counts:
            errors.append(f"work counts differ between rounds: {same_mode[0].counts} then {counts}")
        r = Round(verdicts, cpu, counts, digests, errors, layers, trace)
        self.rounds.append(r)
        return r

    def run_for(self, budget: float, between: Callable[[], None] = lambda: None) -> list[Round]:
        """Repeat rounds while the next one is expected to end within ``budget``,
        calling ``between`` after each."""
        done = []
        start = time.perf_counter()
        while True:
            began = time.perf_counter()
            done.append(self.one_round())
            between()
            last = time.perf_counter() - began
            if time.perf_counter() - start + last > budget:
                return done


# ---------------------------------------------------------------------------
# set-up, pins and the run record
# ---------------------------------------------------------------------------


def setup_sample(workload: str, seed: int, workdir: Path, reference) -> tuple[float, float]:
    """Time one fresh process from start until epistemic is imported and the
    inputs are written; check that it wrote the same bytes as this process.

    The process probes the host speed before and after its set-up; return the
    time less those probes, unscaled and scaled as speed.py describes.
    """
    target = workdir / "setup"
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
            "--seed", str(seed), "--setup-only", str(target)]
    start = time.perf_counter()
    with subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    word, *probes = line.split()
    if proc.returncode != 0 or word != "ready" or len(probes) != 2:
        raise RuntimeError(f"set-up process exited {proc.returncode}")
    for _, path in reference:
        if (target / path.name).read_bytes() != path.read_bytes():
            raise RuntimeError(f"set-up process wrote different bytes for {path.name}")
    shutil.rmtree(target)
    before, after = map(float, probes)
    raw = elapsed - before - after
    return raw, raw * REFERENCE_S * 2 / (before + after)


def load_expected() -> dict:
    return json.loads(EXPECTED.read_text("utf-8"))


def pins_for(expected: dict, workload: str, seed: int) -> dict:
    entry = expected["workloads"].get(workload, {})
    pins = {"digests": {}, "counts": {}}
    scopes = ["every_seed"] + (["default_seed"] if seed == expected["default_seed"] else [])
    for scope in scopes:
        for kind in pins:
            pins[kind].update(entry.get(scope, {}).get(kind, {}))
    return pins


def write_pins(workload: str, seed: int, rnd: Round, files) -> None:
    seeded = {item.name for item, _ in files if item.seeded}
    expected = load_expected()
    entry = {"every_seed": {"digests": {}, "counts": {}}, "default_seed": {"digests": {}, "counts": {}}}
    for key, digest in sorted(rnd.digests.items()):
        scope = "default_seed" if key.split(":")[0] in seeded else "every_seed"
        entry[scope]["digests"][key] = digest
    counts = {k: rnd.counts[k] for k in PINNED_COUNTS if k in rnd.counts}
    entry["default_seed" if seeded else "every_seed"]["counts"] = counts
    expected["default_seed"] = seed
    expected["workloads"][workload] = {
        scope: {kind: values for kind, values in parts.items() if values}
        for scope, parts in entry.items() if any(parts.values())
    }
    EXPECTED.write_text(json.dumps(expected, indent=2, sort_keys=True) + "\n", "utf-8")


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_digest() -> str:
    """SHA-256 over the program's files, naming the code measured without git."""
    h = hashlib.sha256()
    for path in sorted((SRC / "epistemic").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def loadavg() -> str | None:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return None


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def verdict_medians(rounds: list[Round], field: str = "scaled") -> dict[str, float]:
    """Each verdict's median latency over the rounds, in seconds."""
    by_key: dict[str, list[float]] = {}
    for r in rounds:
        for v in r.verdicts:
            by_key.setdefault(v.key, []).append(getattr(v, field))
    return {key: statistics.median(xs) for key, xs in by_key.items()}


def _beta_cdf(x: float, a: float, b: float, steps: int = 256) -> float:
    """CDF of the Beta(a, b) distribution at ``x`` < 1, by Simpson's rule (a >= 1)."""
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)

    def density(t: float) -> float:
        return math.exp(log_norm + (a - 1) * math.log(t) + (b - 1) * math.log1p(-t)) if t > 0 else 0.0

    h = x / steps
    inner = sum((4 if k % 2 else 2) * density(k * h) for k in range(1, steps))
    return (density(0.0) + inner + density(x)) * h / 3


def quantile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the ``p`` quantile: a Beta-weighted mean of all
    order statistics. With a few heterogeneous verdicts per round (2 in
    exhaustive-search, 14 in cf-audit), the usual two-point interpolation
    follows whichever two verdicts straddle ``p``; this estimate does not.
    """
    xs = sorted(values)
    n = len(xs)
    a, b = (n + 1) * p, (n + 1) * (1 - p)
    cdf = [0.0] + [_beta_cdf(i / n, a, b) for i in range(1, n)] + [1.0]
    return sum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(xs))


def end_to_end(rounds: list[Round], setup: list[float], field: str = "scaled") -> dict[str, float]:
    ms = [s * 1000 for s in verdict_medians(rounds, field).values()]
    return {
        "setup_s": statistics.median(setup),
        "wall_s": sum(ms) / 1000,
        "verdict_ms_p50": quantile(ms, 0.5),
        "verdict_ms_p90": quantile(ms, 0.9),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(plain: list[Round], traced: list[Round], speed: SpeedLog) -> dict[str, float]:
    names = sorted({k for r in traced for k in r.layers})
    out = {k: statistics.median(r.layers.get(k, 0) for r in traced) for k in names}
    out["process.cpu_s"] = statistics.median(r.cpu_s for r in plain)
    out["host.probe_ms"] = statistics.median(speed.durations) * 1000
    out["trace.wall_s"] = sum(verdict_medians(traced).values())
    out["trace.overhead_ratio"] = out["trace.wall_s"] / sum(verdict_medians(plain).values())
    return out


def result_line(spec: dict, trace: bool, values: dict, rounds: list[Round], errors: list[str]) -> dict:
    metrics = {}
    for m in spec["per_layer" if trace else "end_to_end"]:
        metrics[m["name"]] = {"value": values.get(m["name"], 0), "unit": m["unit"]}
    verdicts = [v for r in rounds for v in r.verdicts]
    failed = sum(1 for v in verdicts if v.error)
    return {
        "correct": failed == 0 and not errors,
        "attempted": len(verdicts),
        "failed": failed,
        "metrics": metrics,
    }


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--pin", action="store_true",
                   help="run one traced round at the default seed and write its "
                        "digests and work counts to expected.json")
    p.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def traced_rounds(session: Session, rounds: Callable[[], list[Round]]) -> list[Round]:
    session.tracer = Tracer()
    session.tracer.install()
    for span in session.tracer.missing:
        print(f"note: {span} is not in the program; its metrics read 0", file=sys.stderr)
    try:
        return rounds()
    finally:
        session.tracer.uninstall()
        session.tracer = None


def write_outputs(name: str, record: dict, traced: list[Round]) -> None:
    (WORK / "runs").mkdir(parents=True, exist_ok=True)
    (WORK / "runs" / name).write_text(json.dumps(record, indent=2) + "\n", "utf-8")
    if not traced:
        return
    spans, counters = traced[0].trace
    doc = {
        "spans": [
            {"verdict": v, "span": s, "parent": p, "calls": c, "total_s": t, "self_s": self_s}
            for (v, s, p), (c, t, self_s) in spans.items()
        ],
        "counters": [{"verdict": v, "name": n, "value": x} for (v, n), x in counters.items()],
    }
    (WORK / "traces").mkdir(parents=True, exist_ok=True)
    (WORK / "traces" / name).write_text(json.dumps(doc, indent=1) + "\n", "utf-8")


def main(argv=None) -> int:
    args = parse_args(argv)
    before = probe() if args.setup_only else 0.0
    try:
        cli = import_cli()
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.setup_only:
        write_inputs(args.workload, args.seed, Path(args.setup_only))
        print(f"ready {before!r} {probe()!r}", flush=True)
        return 0
    if args.pin and args.seed != DEFAULT_SEED:
        print(f"error: pins are taken at the default seed {DEFAULT_SEED}", file=sys.stderr)
        return 2

    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(), "python": platform.python_version(),
        "commit": git_commit(), "source_sha256": source_digest(), "loadavg_start": loadavg(),
    }
    workdir = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    plain: list[Round] = []
    traced: list[Round] = []
    setup: list[float] = []
    setup_scaled: list[float] = []
    try:
        files = write_inputs(args.workload, args.seed, workdir / "inputs")
        pins = None if args.pin else pins_for(load_expected(), args.workload, args.seed)
        session = Session(cli, args.workload, files, workdir, pins)
        if args.pin:
            traced = traced_rounds(session, lambda: [session.one_round()])
        elif args.trace:
            plain = session.run_for(args.seconds / 2)
            traced = traced_rounds(session, lambda: session.run_for(args.seconds / 2))
        else:
            # set-up samples are spread over the run so that they meet the
            # host in more than one of its phases
            def sample():
                if len(setup) < SETUP_SAMPLES:
                    raw, scaled = setup_sample(args.workload, args.seed, workdir, files)
                    setup.append(raw)
                    setup_scaled.append(scaled)

            sample()
            plain = session.run_for(args.seconds, between=sample)
            while len(setup) < SETUP_SAMPLES:
                sample()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    errors = [e for r in session.rounds for e in r.errors]
    errors += [f"{v.key}: {v.error}" for r in session.rounds for v in r.verdicts if v.error]
    for line in errors[:20]:
        print(f"error: {line}", file=sys.stderr)
    if args.pin:
        if errors:
            print("error: not pinning a failed round", file=sys.stderr)
            return 1
        write_pins(args.workload, args.seed, traced[0], files)
        print(f"pinned {args.workload} in {EXPECTED.relative_to(ROOT)}")
        return 0

    values = per_layer(plain, traced, session.speed) if args.trace else end_to_end(plain, setup_scaled)
    result = result_line(spec, bool(args.trace), values, session.rounds, errors)
    record.update({
        "loadavg_end": loadavg(), "setup_samples": setup,
        "probe_ms": statistics.median(session.speed.durations) * 1000,
        "unscaled": None if args.trace else end_to_end(plain, setup, "seconds"),
        "verdict_ms": {k: s * 1000 for k, s in verdict_medians(plain).items()},
        "rounds": {"plain": len(plain), "traced": len(traced)},
        "counts": session.rounds[0].counts, "errors": errors, "result": result,
    })
    stamp = time.strftime("%Y%m%dT%H%M%S")
    write_outputs(f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json",
                  record, traced)
    print(json.dumps(record, sort_keys=True), file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
