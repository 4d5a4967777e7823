"""Closed-loop benchmark of icogate's public API.

    python3 bench/run.py --workload deep-headline --seed 1 --seconds 20 --trace 0

One caller compiles one target at a time on one thread, in rounds over
the workload's targets (see workloads.py), and starts rounds until
--seconds have passed.  Every output is checked by check.py, which
shares no code with icogate.  The last line of standard output is one
JSON object: correct, attempted, failed and the metrics.

--trace 0 reports the end-to-end metrics: set-up time (median of fresh
interpreters importing icogate and building the C60 table), median
seconds per target, targets per second, total tau-count and peak RSS;
the three times are speed-normalised (speed.py) and printed beside
their raw wall-clock values.
--trace 1 runs one untraced round and then one round with every public
function of every layer wrapped (tracing.py), reports the per-layer
metrics and the tracing overhead, and writes the spans to
bench/out/trace-<workload>-<seed>.jsonl.gz.  --workload all runs each
workload in its own process, one after another.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

if not (SRC / "icogate" / "__init__.py").is_file():
    sys.exit(f"bench: no icogate sources under {SRC}")
sys.path.insert(0, str(SRC))

import check  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from icogate import diagonal, errors, general, icosian, unitary  # noqa: E402

SETUP_SPAWNS = 11
SETUP_CODE = (
    "import statistics, sys, time\n"
    f"sys.path[:0] = [{str(SRC)!r}, {str(BENCH)!r}]\n"
    "t = time.perf_counter()\n"
    "import icogate.cli, icogate.icosian\n"
    "icogate.icosian.generate_c60()\n"
    "t = time.perf_counter() - t\n"
    "import speed\n"
    "print(t, statistics.median(speed.probe() for _ in range(9)))\n"
)


def measure_setup() -> tuple[float, float]:
    """Median over fresh interpreters of the time to import icogate (the
    CLI imports every layer) and build the C60 table, normalised by
    probes the same interpreter runs right after; then the raw median.
    The first spawn only warms the bytecode cache."""
    norm, raw = [], []
    for _ in range(SETUP_SPAWNS + 1):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT,
                              capture_output=True, text=True, timeout=60,
                              check=True)
        t, p = map(float, proc.stdout.split())
        norm.append(t * speed.NOMINAL_S / p)
        raw.append(t)
    return statistics.median(norm[1:]), statistics.median(raw[1:])


def api_input(t: workloads.Target):
    """The argument the public API takes for t, built before timing."""
    if t.kind == "diagonal":
        return t.theta
    if t.kind == "general":
        return unitary.ProjUnitary(t.rows, t.bits)
    return icosian.GateWord.parse(t.word)


def compile_target(t: workloads.Target, arg):
    """Run one target through the public API; returns (word text,
    tau-count, reported achieved distance or, for an exact target, the
    quaternion the word must reproduce)."""
    if t.kind == "diagonal":
        _, word, achieved = diagonal.synth_diagonal(
            arg, t.epsilon, precision_bits=t.bits)
        return str(word), word.tau_count, achieved
    if t.kind == "general":
        report = general.synth_general(arg,
                                       general.SynthConfig(epsilon=t.epsilon))
        return str(report.word), report.tau_count, report.achieved
    q = icosian.word_to_quat(arg)
    word = icosian.exact_synthesize(q)
    return str(word), word.tau_count, q


def check_output(t: workloads.Target, word: str, taus: int, extra) -> int:
    """Raises CheckFailed on a wrong output; returns the taus the word
    wastes on scalar seams."""
    if t.kind == "diagonal":
        target = check.diagonal_target(t.theta, check.check_bits(t.epsilon))
        return check.check_synthesis(word, taus, extra, target, t.epsilon,
                                     t.epsilon)
    if t.kind == "general":
        cfg = general.SynthConfig(epsilon=t.epsilon)
        bound = check.tuning_bound(t.epsilon, cfg.delta, cfg.epsilon0)
        return check.check_synthesis(word, taus, extra, t.rows, t.epsilon,
                                     bound)
    coords = [(x.a, x.b) for x in extra.parts()]
    check.check_exact(coords, word, taus, input_word=t.word)
    return 0


class Round:
    """One pass over the targets: the (start, end) of each compile that
    returned, loop wall time, emitted words, their taus (and those wasted
    on scalar seams) and failures."""

    def __init__(self, targets, args, tracer=None):
        self.spans, self.words, self.failures = [], [], []
        self.taus = self.wasted = 0
        start = perf_counter()
        outputs = []
        for i, (t, arg) in enumerate(zip(targets, args)):
            if tracer is not None:
                tracer.target = i
            t0 = perf_counter()
            try:
                out = compile_target(t, arg)
            except Exception as exc:  # one failed operation, not the run
                self.failures.append(f"{t.label}: {type(exc).__name__}: {exc}")
                outputs.append(None)
                continue
            self.spans.append((t0, perf_counter()))
            outputs.append(out)
        self.wall = perf_counter() - start
        if tracer is not None:
            tracer.target = -1
        for t, out in zip(targets, outputs):
            if out is None:
                self.words.append(None)
                continue
            word, taus, extra = out
            self.wasted += check_output(t, word, taus, extra)
            self.words.append(word)
            self.taus += taus


def end_to_end(targets, args, seconds: float):
    rounds = []
    with speed.SpeedProbe() as probe:
        start = perf_counter()
        while not rounds or perf_counter() - start < seconds:
            rounds.append(Round(targets, args))
            if rounds[-1].words != rounds[0].words:
                raise check.CheckFailed("a round emitted other words than "
                                        "the first for the same targets")
    spans = [span for r in rounds for span in r.spans]
    if not spans:
        raise check.CheckFailed("no operation returned")
    times = [probe.normalised(t0, t1) for t0, t1 in spans]
    wall = [t1 - t0 for t0, t1 in spans]
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    setup, setup_wall = measure_setup()
    note = (f"wall clock: setup {setup_wall:.4f} s, p50 "
            f"{statistics.median(wall):.4f} s, "
            f"{len(wall) / sum(r.wall for r in rounds):.4f} targets/s; "
            f"{len(probe.durations)} probes, median "
            f"{statistics.median(probe.durations) * 1e3:.4f} ms")
    metrics = {
        "setup_s": (setup, "s"),
        "compile_s_p50": (statistics.median(times), "s"),
        "targets_per_s": (len(times) / sum(times), "targets/s"),
        "tau_total": (rounds[0].taus, "count"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }
    return rounds, metrics, note


def per_layer(targets, args, workload: str, seed: int):
    import tracing
    plain = Round(targets, args)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = Round(targets, args, tracer)
    finally:
        tracer.uninstall()
    if traced.words != plain.words:
        raise check.CheckFailed("tracing changed the emitted words")
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"trace-{workload}-{seed}.jsonl.gz")
    metrics = tracer.layer_metrics(errors)
    metrics["general.wasted_taus"] = (traced.wasted, "count")
    metrics["trace.untraced_s"] = (plain.wall, "s")
    metrics["trace.traced_s"] = (traced.wall, "s")
    metrics["trace.overhead_s"] = (traced.wall - plain.wall, "s")
    return [plain, traced], metrics, f"{len(tracer.spans)} spans written"


def run_workload(workload: str, seed: int, seconds: float, traced: bool):
    targets = workloads.build(workload, seed)
    args = [api_input(t) for t in targets]
    icosian.generate_c60()  # built once per process; setup_s times it
    if traced:
        rounds, metrics, note = per_layer(targets, args, workload, seed)
    else:
        rounds, metrics, note = end_to_end(targets, args, seconds)
    attempted = len(targets) * len(rounds)
    failures = [f for r in rounds for f in r.failures]
    print(f"workload {workload}  seed {seed}  rounds {len(rounds)}  "
          f"attempted {attempted}  failed {len(failures)}")
    print("  round wall s: " + " ".join(f"{r.wall:.3f}" for r in rounds)
          + f"  taus wasted on scalar seams: {rounds[0].wasted}")
    print(f"  {note}")
    for f in failures[:10]:
        print(f"  failed: {f}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:.6g} {unit}")
    return {
        "correct": True,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def run_all(seed: int, seconds: float, trace: int) -> dict:
    """Each workload in a fresh process, so peak RSS and caches are its own."""
    out = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            sys.exit(f"bench: workload {workload} exited {proc.returncode}")
        result = json.loads(lines[-1])
        out["correct"] = out["correct"] and result["correct"]
        out["attempted"] += result["attempted"]
        out["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            out["metrics"][f"{workload}.{name}"] = metric
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, args.trace)
    else:
        try:
            result = run_workload(args.workload, args.seed, args.seconds,
                                  bool(args.trace))
        except check.CheckFailed as exc:
            print(f"check failed: {exc}")
            result = {"correct": False, "attempted": 1, "failed": 0,
                      "metrics": {}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
