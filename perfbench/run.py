"""Benchmark of cutproject: one workload per invocation.

    python3 perfbench/run.py --workload enumerate|discrepancy|exact \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ./src.
With --trace 0 the workload's fixed batch of calls (a round) runs in a
closed loop, one caller, no worker pool, until S seconds have passed,
and the last line of stdout is a JSON object with `wall_s` (the
median-based time of one round, rescaled to a fixed machine speed; see
round_time, run_round and refclock), `setup_s` (median of the set-ups
of this process and SETUP_PROBES fresh ones) and `peak_rss_mib` (peak
resident memory by the end of the first round, which holds the outputs
kept for checking).  With --trace 1 rounds 0 and 1 run call by call,
untraced and traced (see traced), then the micro timings, and the JSON
holds the per-layer metrics.  Every output is checked apart from the
program after the timed phase; `attempted` counts the calls made and
`failed` those whose output check failed.
"""

import refclock

T0 = refclock.start()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT_DIR = HERE.parent / ".perfbench-out"
SETUP_PROBES = 12
REF_REPEATS = 15  # reference times whose median rescales a set-up


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("enumerate", "discrepancy", "exact"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


class Raised:
    """Stands in for the output of a call that raised."""

    def __init__(self, exc: BaseException):
        self.exc = exc


def call(op) -> tuple[float, object]:
    """Duration and output of one call; a call that raises is counted, not fatal."""
    mark = refclock.start()
    try:
        out = op.call()
    except Exception as exc:
        out = Raised(exc)
    return refclock.stop(mark), out


def run_round(wl, r: int, keep=None, calibrate=False):
    """One round: returns (duration of each call, ops, outputs).

    With keep given, each output is passed to keep(i, output) after the
    call, and kept only if it returns True.  With calibrate, the reference
    loop also runs before every call and after the last, and each call's
    duration is rescaled by REF_S over the mean of the reference times
    just before and just after it.  Durations leave out run-queue waits
    (see refclock).
    """
    ops = wl.ops(wl.prepare(r))
    outputs = []
    durations = []
    refs = []
    for op in ops:
        if calibrate:
            refs.append(refclock.reference_time())
        dt, out = call(op)
        durations.append(dt)
        if keep is None or keep(len(durations) - 1, out):
            outputs.append(out)
    if calibrate:
        refs.append(refclock.reference_time())
        durations = [refclock.rescale(t, a, b) for t, a, b in zip(durations, refs, refs[1:])]
    return durations, ops, outputs


def round_time(kinds: list[str], samples: dict[str, list[float]]) -> float:
    """Median-based time of one round.

    For each kind of call, the median duration of its calls in the run
    times the number of such calls in a round, summed over kinds.  The
    median keeps the odd call that a burst of load on the host slowed or
    sped up from moving the figure.
    """
    per_round: dict[str, int] = {}
    for k in kinds:
        per_round[k] = per_round.get(k, 0) + 1
    return sum(n * statistics.median(samples[k]) for k, n in per_round.items())


class Ledger:
    """Outputs kept for checking, and the count of failed calls."""

    def __init__(self, wl):
        self.wl = wl
        self.first = None  # (ops, outputs) of round 0 for repeat workloads
        self.mismatch: list[int] = []  # per op of round 0: later rounds that differ
        self.kept: list = []  # (ops, outputs) of every round otherwise
        self.rounds = 0
        self.attempted = 0

    def keep(self, i: int, out) -> bool:
        """Whether to keep output i of the running round; a later round of a
        repeat workload is compared with round 0 at once and dropped."""
        if not self.wl.repeat or self.first is None:
            return True
        a = self.first[1][i]
        if isinstance(a, Raised) or isinstance(out, Raised) or not _same(a, out):
            self.mismatch[i] += 1
        return False

    def add(self, ops, outputs) -> None:
        self.rounds += 1
        self.attempted += len(ops)
        if not self.wl.repeat:
            self.kept.append((ops, outputs))
        elif self.first is None:
            self.first = (ops, outputs)
            self.mismatch = [0] * len(ops)

    def check(self) -> tuple[int, list[str], bool]:
        """(failed calls, first problems, whether every check ran to its end)."""
        failed = 0
        notes: list[str] = []
        complete = True
        batches = [self.first] if self.wl.repeat else self.kept
        for ops, outputs in batches:
            for i, (op, out) in enumerate(zip(ops, outputs)):
                if isinstance(out, Raised):
                    problems = [f"{op.kind} raised {out.exc!r}"]
                else:
                    try:
                        problems = op.check(out)
                    except Exception as exc:  # the check itself broke: not a verdict
                        complete = False
                        problems = [f"{op.kind}: check raised {exc!r}"]
                if self.wl.repeat:
                    bad = self.rounds if problems else self.mismatch[i]
                    if not problems and bad:
                        problems = [f"{op.kind}: {bad} later rounds differ from round 0"]
                else:
                    bad = 1 if problems else 0
                failed += bad
                notes += problems[:2]
        return failed, notes, complete


def _fingerprint(out):
    if isinstance(out, str):
        return out
    if hasattr(out, "samples"):
        return [(s.n, s.value.a, s.value.b, s.running_sup.a, s.running_sup.b) for s in out.samples]
    if hasattr(out, "points"):
        return (out.points, out.colors)
    return (out.a, out.b)


def _same(a, b) -> bool:
    return _fingerprint(a) == _fingerprint(b)


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup_probes(args) -> list[float]:
    """Set-up times of fresh processes doing this run's set-up alone."""
    out = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    for _ in range(SETUP_PROBES):
        res = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        out.append(json.loads(res.stdout.strip().splitlines()[-1])["setup_s"])
    return out


def result(correct: bool, ledger: Ledger, failed: int, metrics: dict) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": ledger.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def report(notes: list[str]) -> None:
    for line in notes[:20]:
        print(f"problem: {line}", file=sys.stderr)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "cutproject" / "__init__.py").is_file():
        print(f"error: no cutproject sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed)
    setup_s = refclock.stop(T0) * refclock.REF_S / statistics.median(
        refclock.reference_time() for _ in range(REF_REPEATS))
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    if args.trace:
        return traced(wl, args)

    setups = [setup_s] + setup_probes(args)
    ledger = Ledger(wl)
    samples: dict[str, list[float]] = {}
    sums = []
    start = time.perf_counter()
    while True:
        durations, ops, outputs = run_round(wl, ledger.rounds, keep=ledger.keep, calibrate=True)
        kinds = [op.kind for op in ops]
        for k, t in zip(kinds, durations):
            samples.setdefault(k, []).append(t)
        sums.append(sum(durations))
        ledger.add(ops, outputs)
        del ops, outputs
        if ledger.rounds == 1:
            peak = peak_rss_mib()
        if time.perf_counter() - start >= args.seconds:
            break
    wall = round_time(kinds, samples)
    failed, notes, complete = ledger.check()
    report(notes)
    print(f"{args.workload}: {ledger.rounds} rounds in {time.perf_counter() - start:.1f} s, "
          f"rescaled round sums {[round(t, 3) for t in sums]}, median-based {wall:.3f}, "
          f"set-ups {[round(t, 3) for t in setups]}", file=sys.stderr)
    metrics = {
        "wall_s": (wall, "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mib": (peak, "MiB"),
    }
    print(result(complete, ledger, failed, metrics))
    return 0


def traced(wl, args) -> int:
    """Rounds 0 and 1 call by call, each call of round 1 traced right next
    to its untraced twin of round 0 (which goes first alternates), so that
    the host's drift cancels from trace.overhead_s; then the micro timings."""
    import micro
    import tracing

    tracer = tracing.Tracer()
    ops0, ops1 = (wl.ops(wl.prepare(r)) for r in (0, 1))
    outs0, outs1 = [], []
    untraced = traced_s = 0.0
    for i, (a, b) in enumerate(zip(ops0, ops1)):
        for on in ((False, True) if i % 2 == 0 else (True, False)):
            if on:
                tracer.install()
                try:
                    dt, out = call(b)
                finally:
                    tracer.uninstall()
                traced_s += dt
                outs1.append(out)
            else:
                dt, out = call(a)
                untraced += dt
                outs0.append(out)
    ledger = Ledger(wl)
    ledger.add(ops0, outs0)
    ledger.add(ops1, [out for i, out in enumerate(outs1) if ledger.keep(i, out)])
    del outs0, outs1
    failed, notes, complete = ledger.check()
    report(notes)
    for name in tracer.missing:
        print(f"trace: not found, skipped: {name}", file=sys.stderr)

    m: dict[str, tuple[float, str]] = {}
    for layer, s in tracer.layer_self_s().items():
        m[f"{layer.lstrip('_')}.self_s"] = (s, "s")
    m["trace.overhead_s"] = (traced_s - untraced, "s")
    m["trace.untraced_wall_s"] = (untraced, "s")
    m["patterns.point_check_s"] = (
        tracer.total_s.get("patterns.PointPattern.__post_init__", 0.0), "s")
    k = tracer.counts["patterns.k_requested"]
    hits = tracer.counts["patterns.hits"]
    m["patterns.k_requested"] = (k, "count")
    m["patterns.hits"] = (hits, "count")
    m["patterns.hit_ratio"] = (hits / k if k else 0.0, "ratio")
    m["discrepancy.samples"] = (tracer.counts["discrepancy.samples"], "count")
    m.update(micro.all_metrics(args.seed, str(SRC)))

    OUT_DIR.mkdir(exist_ok=True)
    dump = {
        "workload": args.workload, "seed": args.seed, "missing": tracer.missing,
        "metrics": {k: v for k, (v, _) in m.items()}, "functions": tracer.functions(),
    }
    (OUT_DIR / f"trace-{args.workload}-{args.seed}.json").write_text(json.dumps(dump, indent=1))
    print(result(complete, ledger, failed, m))
    return 0


if __name__ == "__main__":
    sys.exit(main())
