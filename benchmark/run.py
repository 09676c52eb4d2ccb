"""The gbsr benchmark: one command, three seeded closed-loop workloads.

    python3 benchmark/run.py --workload sweep-2e --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from its
`src/` directory.  One caller, one thread, one process: each operation
is sent only after the previous one returned.

Workloads (see `BENCHMARK.json` and `benchmark/layers.json`):

* `sweep-2e`: `explore(initial_state(g))` plus `check(g)` on reduced
  graphs with at most 2 edges and labels <= 6;
* `sweep-3e`: the same operation on reduced graphs with exactly 3 edges
  and labels <= 3;
* `cli-session`: a seeded stream of `gbsr.cli.main(argv)` calls with
  stdout captured (see `session.py`).

A run sets up `SETUP_REPEATS` times (import, input generation, parsing)
and reports the median as `setup_s`, then repeats whole passes over the
workload's operations for about `--seconds`.  Every pass runs the same
operations; `ops_per_s`, `op_p50_ms` and `op_p90_ms` are taken over
every operation of every pass.  All times are
wall-clock times scaled to a reference host speed (see `HostClock`); the
unscaled figures are printed on the `host:` line.

With `--trace 0` the run reports the end-to-end metrics; with
`--trace 1` it measures untraced passes for half the time, then the same
number of passes with every layer wrapped (see `tracer.py`), and reports
the per-layer metrics and the tracing overhead.  The last line of stdout
is one JSON object with the keys `correct`, `attempted`, `failed` and
`metrics`; the lines before it explain the run.  A run is correct when no
operation failed its check and, for the default seed, the digest of the
first pass matches `digests.json`.
"""

import argparse
import contextlib
import hashlib
import importlib
import importlib.util
import io
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

import corpus  # noqa: E402  (the script directory is on sys.path)
import session  # noqa: E402
from tracer import Tracer  # noqa: E402

DEFAULT_SEED = 0
SETUP_REPEATS = 9
REFERENCE_S = 0.005  # reference host speed: `_reference_work` takes 5 ms
SEGMENT_S = 0.25  # measured work between two timings of the reference work
SWEEPS = {
    # name: (edge counts, max label, graphs per pass)
    "sweep-2e": ((0, 1, 2), 6, 200),
    "sweep-3e": ((3,), 3, 50),
}
WORKLOADS = tuple(SWEEPS) + ("cli-session",)


# -- context ----------------------------------------------------------------

def _git_revision():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _context():
    try:
        with open("/proc/loadavg", encoding="ascii") as f:
            loadavg = f.read().strip()
    except OSError:
        loadavg = "unavailable"
    return {
        "git_revision": _git_revision(),
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "loadavg_at_start": loadavg,
    }


# -- set-up -----------------------------------------------------------------

def _import_package():
    """Fresh import of gbsr from this checkout's src/, as a user process pays it."""
    for name in [m for m in sys.modules if m == "gbsr" or m.startswith("gbsr.")]:
        del sys.modules[name]
    gbsr = importlib.import_module("gbsr")
    importlib.import_module("gbsr.cli")
    if Path(gbsr.__file__).resolve().parent != ROOT / "src" / "gbsr":
        raise ImportError("gbsr imported from %s, not this checkout" % gbsr.__file__)
    return gbsr


def _load_oracle():
    spec = importlib.util.spec_from_file_location("gbsr_bench_oracle", ROOT / "tests" / "oracle.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class Setup:
    """Everything built before the timed loop."""

    def __init__(self, workload, seed, workdir):
        self.gbsr = _import_package()
        rng = random.Random("%s/%d" % (workload, seed))
        if workload in SWEEPS:
            edge_counts, max_label, size = SWEEPS[workload]
            with open(HERE / "cost_order.json", encoding="utf-8") as f:
                cost_order = json.load(f)[workload]
            graphs = corpus.stratified_sample(
                corpus.reduced_graphs(edge_counts, max_label), cost_order, size, rng)
            self.inputs = [self.gbsr.parse(corpus.to_text(g)) for g in graphs]
            self.makeup = corpus.makeup(graphs, [corpus.expected_rigid(g) for g in graphs])
        else:
            oracle = session.Oracle(_load_oracle().oracle_primes, session.BIG)
            self.inputs = session.build(rng, oracle, str(workdir))
            kinds = {}
            for cmd in self.inputs:
                kinds[cmd.kind] = kinds.get(cmd.kind, 0) + 1
            self.makeup = {"commands": len(self.inputs), "kinds": kinds}


# -- operations ---------------------------------------------------------------

class Outcome:
    """Correctness bookkeeping for a run; nothing here is timed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.explores = 0
        self.inconclusive = 0
        self.domain_errors = 0
        self.problems = []
        self.digest = hashlib.sha256()

    def fail(self, message):
        self.failed += 1
        if len(self.problems) < 10:
            self.problems.append(message)


def _sweep_op(gbsr, graph):
    report = gbsr.explore(gbsr.initial_state(graph))
    return report, gbsr.check(graph)


def _cli_op(main, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _judge_sweep(outcome, gbsr, graph, result, first_pass):
    report, verdict = result
    outcome.explores += 1
    if report.rigid == "inconclusive":
        outcome.inconclusive += 1
    elif (report.rigid == "yes") != verdict.rigid:
        outcome.fail("explore says %s, check says rigid=%s on\n%s"
                     % (report.rigid, verdict.rigid, gbsr.serialize(graph)))
        return
    if first_pass:
        outcome.digest.update(json.dumps(report.to_json(), sort_keys=True).encode() + b"\n")


def _judge_cli(outcome, cmd, result, first_pass):
    code, out, err = result
    if first_pass:
        outcome.digest.update(out.encode())
    if cmd.kind == "explore":
        outcome.explores += 1
        outcome.inconclusive += out.startswith("rigid: inconclusive")
    if code == 1:
        outcome.domain_errors += 1
    if code != cmd.code:
        outcome.fail("%s exited %s, expected %d: %s" % (cmd.argv, code, cmd.code, err.strip()))
    elif cmd.error is not None and not err.startswith("error: %s: " % cmd.error):
        outcome.fail("%s should fail with %s, got %r" % (cmd.argv, cmd.error, err))
    elif cmd.check is not None and not cmd.check(out):
        outcome.fail("%s printed a wrong result: %r" % (cmd.argv, out[:200]))


def _reference_work():
    """Seconds taken by a fixed piece of pure-Python work: the host's
    current speed.  The work is the benchmark's own graph enumeration
    (tuples, sorting, set lookups); interleaved with sweep operations on
    a shared 2-vCPU host, it followed their slow drift about twice as
    closely as an arithmetic loop did."""
    t0 = time.perf_counter()
    corpus.reduced_graphs((1, 2), 4)
    return time.perf_counter() - t0


class HostClock:
    """Scales measured times to the reference host speed.

    On a shared host the same code runs tens of percent faster or slower
    from one minute to the next, and CPU time tracks wall time, so the
    drift is in host speed, not in scheduling.  The reference work is
    timed at the start and after every segment of about `SEGMENT_S` of
    measured work; each time measured in a segment is multiplied by
    `REFERENCE_S` over the mean of the reference times at the segment's
    two ends, giving the time at the speed where the reference takes
    `REFERENCE_S`.
    """

    def __init__(self):
        self.references = [_reference_work()]
        self.raw = []
        self.scaled = []
        self._segment = []
        self._segment_s = 0.0

    def add(self, seconds):
        self._segment.append(seconds)
        self._segment_s += seconds
        if self._segment_s >= SEGMENT_S:
            self.close()

    def close(self):
        """End the segment: time the reference and scale its measurements."""
        if not self._segment:
            return
        self.references.append(_reference_work())
        scale = REFERENCE_S / ((self.references[-2] + self.references[-1]) / 2)
        self.raw.extend(self._segment)
        self.scaled.extend(x * scale for x in self._segment)
        self._segment = []
        self._segment_s = 0.0


def run_passes(setup, workload, outcome, seconds=None, passes=None, tracer=None):
    """Whole passes over the inputs for about `seconds`, or `passes` of them.

    Returns the HostClock holding every operation's latency, and the
    scaled time of each pass.
    """
    gbsr = setup.gbsr
    sweep = workload in SWEEPS
    clock = time.perf_counter
    host = HostClock()
    pass_times = []
    pass_walls = []
    started = clock()
    while True:
        first_pass = not pass_times and tracer is None
        in_pass = len(host.scaled)
        pass_started = clock()
        for item in setup.inputs:
            if sweep:
                fn, args = _sweep_op, (gbsr, item)
            else:
                fn, args = _cli_op, (gbsr.cli.main, item.argv)
            outcome.attempted += 1
            t0 = clock()
            try:
                result = tracer.op(fn, *args) if tracer else fn(*args)
            except Exception:
                host.add(clock() - t0)
                outcome.fail("%s raised:\n%s" % (args[-1] if not sweep else gbsr.serialize(item),
                                                   traceback.format_exc()))
                continue
            host.add(clock() - t0)
            if sweep:
                _judge_sweep(outcome, gbsr, item, result, first_pass)
            else:
                _judge_cli(outcome, item, result, first_pass)
        host.close()
        pass_times.append(sum(host.scaled[in_pass:]))
        pass_walls.append(clock() - pass_started)
        if passes is not None and len(pass_times) >= passes:
            break
        # stop at the pass boundary nearest to the deadline
        if seconds is not None and clock() - started + statistics.median(pass_walls) / 2 >= seconds:
            break
    return host, pass_times


# -- metrics ------------------------------------------------------------------

def _ops_per_s(ops_per_pass, pass_times):
    """Operations per second over every pass of the run."""
    return ops_per_pass * len(pass_times) / sum(pass_times)


def _percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(setup, host, pass_times, setup_host, outcome):
    lat_ms = [x * 1000 for x in host.scaled]
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "ops_per_s": (_ops_per_s(len(setup.inputs), pass_times), "1/s"),
        "op_p50_ms": (_percentile(lat_ms, 50), "ms"),
        "op_p90_ms": (_percentile(lat_ms, 90), "ms"),
        "setup_s": (statistics.median(setup_host.scaled), "s"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
        "success_ratio": (1 - outcome.failed / outcome.attempted, "ratio"),
        "conclusive_ratio": (1 - outcome.inconclusive / outcome.explores if outcome.explores else 1.0,
                             "ratio"),
    }


def _recorded_digest(workload):
    try:
        with open(HERE / "digests.json", encoding="utf-8") as f:
            return json.load(f).get(workload)
    except (OSError, ValueError):
        return None


# -- main ---------------------------------------------------------------------

def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    context = _context()
    workdir = OUT / ("work-%d" % os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup_host = HostClock()
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            setup = Setup(args.workload, args.seed, workdir)
            setup_host.add(time.perf_counter() - t0)
            setup_host.close()
        return measure(args, context, setup, setup_host)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, context, setup, setup_host):
    print("context: %s" % json.dumps(context, sort_keys=True))
    print("workload: %s  seed: %d  makeup: %s"
          % (args.workload, args.seed, json.dumps(setup.makeup, sort_keys=True)))
    outcome = Outcome()
    seconds = args.seconds / 2 if args.trace else args.seconds
    host, pass_times = run_passes(setup, args.workload, outcome, seconds=seconds)
    ops = len(setup.inputs)
    e2e = end_to_end(setup, host, pass_times, setup_host, outcome)

    digest = outcome.digest.hexdigest()
    recorded = _recorded_digest(args.workload)
    digest_ok = True
    if args.seed == DEFAULT_SEED:
        digest_ok = recorded is not None and recorded == digest
    print("digest (first pass, %s): %s  recorded for seed %d: %s  %s"
          % ("to_json" if args.workload in SWEEPS else "stdout", digest, DEFAULT_SEED,
             recorded, "checked" if args.seed == DEFAULT_SEED else "not checked"))
    print("samples: %d operations in %d passes of %d; %d explores; %d set-ups"
          % (len(host.scaled), len(pass_times), ops, outcome.explores, len(setup_host.scaled)))
    raw_ms = [x * 1000 for x in host.raw]
    print("host: reference work %.2f ms (median of %d); unscaled: op_p50_ms %.3f op_p90_ms %.3f "
          "setup_s %.4f; times below are scaled to %.1f ms"
          % (statistics.median(host.references) * 1000, len(host.references), _percentile(raw_ms, 50),
             _percentile(raw_ms, 90), statistics.median(setup_host.raw), REFERENCE_S * 1000))
    print("failure_ratio: %g (%d of %d)  inconclusive_ratio: %g (%d of %d)"
          % (outcome.failed / outcome.attempted, outcome.failed, outcome.attempted,
             outcome.inconclusive / outcome.explores if outcome.explores else 0.0,
             outcome.inconclusive, outcome.explores))
    for name, (value, unit) in e2e.items():
        print("  %-18s %14.6f %s" % (name, value, unit))

    if args.trace:
        metrics = trace_run(args, setup, outcome, len(pass_times), e2e["ops_per_s"][0])
    else:
        metrics = e2e
    for problem in outcome.problems:
        print("problem: %s" % problem)
    if not digest_ok:
        print("problem: digest differs from the one recorded in benchmark/digests.json")
    correct = outcome.failed == 0 and digest_ok
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def trace_run(args, setup, outcome, passes, untraced_ops_per_s):
    tracer = Tracer()
    tracer.install()
    try:
        errors_before = outcome.domain_errors
        _, pass_times = run_passes(setup, args.workload, outcome, passes=passes, tracer=tracer)
    finally:
        tracer.restore()
    traced_ops_per_s = _ops_per_s(len(setup.inputs), pass_times)
    metrics = tracer.metrics()
    metrics["cli.domain_errors"] = (outcome.domain_errors - errors_before, "count")
    metrics["trace.overhead_ratio"] = (traced_ops_per_s / untraced_ops_per_s, "ratio")
    for name in tracer.missing:
        print("trace: target missing, not wrapped: %s" % name)
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / ("spans-%s.tsv" % args.workload)
    tracer.write_spans(spans_path)
    print("trace: %d spans written to %s; overhead: traced %.3f ops/s over untraced %.3f ops/s"
          % (len(tracer.spans), spans_path.relative_to(ROOT), traced_ops_per_s, untraced_ops_per_s))
    fp = metrics["explorer.fingerprint.incl_s"][0] + metrics["explorer.stage_samples.incl_s"][0]
    mk = metrics["moves.MarkedState.marking.incl_s"][0]
    print("trace: time under fingerprint+stage_samples %.3f s, under marking %.3f s (outermost spans)"
          % (fp, mk))
    for name, (tail, rest) in _tail_shares(tracer.spans).items():
        print("trace: share of op time under %s: %.3f in the slowest tenth of ops, %.3f in the rest"
              % (name, tail, rest))
    ranked = sorted(tracer.stats.items(), key=lambda kv: -kv[1][1])
    print("trace: %-34s %10s %10s %10s" % ("layer", "calls", "self_s", "incl_s"))
    for name, (calls, self_s, outer_s, _, _) in ranked:
        print("trace: %-34s %10d %10.3f %10.3f" % (name, calls, self_s, outer_s))
    return metrics


def _tail_shares(spans):
    """For each coarse span name, the share of op time spent under its
    outermost spans, in the ops at or above the 90th percentile of op time
    and in the others."""
    ops = {}
    under = {}
    open_by_op = {}
    for _, _, op, name, start, end in spans:
        if name == "op":
            ops[op] = end - start
            continue
        # spans are listed in start order; count a span only if no span of
        # the same name encloses it
        key = (op, name)
        if open_by_op.get(key, -1.0) >= end:
            continue
        open_by_op[key] = end
        under.setdefault(name, {}).setdefault(op, 0.0)
        under[name][op] += end - start
    if len(ops) < 2:
        return {}
    cut = statistics.quantiles(list(ops.values()), n=10, method="inclusive")[-1]
    groups = ([op for op, dt in ops.items() if dt >= cut],
              [op for op, dt in ops.items() if dt < cut])

    def share(per_op, group):
        total = sum(ops[op] for op in group)
        return sum(per_op.get(op, 0.0) for op in group) / total if total else 0.0

    return {name: tuple(share(per_op, g) for g in groups) for name, per_op in sorted(under.items())}


if __name__ == "__main__":
    try:
        code = main()
    except ImportError as err:
        print("cannot run the benchmark here: %s" % err, file=sys.stderr)
        code = 2
    sys.exit(code)
