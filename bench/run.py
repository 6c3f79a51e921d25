"""Benchmark of the anabelomorph toolkit: three seeded workloads, each a
closed loop of one caller in one process and thread.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports the program from
``src/`` and exits with code 2, printing no result, when the checkout has
no program.  With ``--trace 0`` the last line of standard output is a JSON
object with the end-to-end metrics; with ``--trace 1`` it holds the
per-layer metrics of a traced run.  The lines before it repeat the metrics
for a reader, with sample counts, failures and the machine record.  A
certified answer that differs from its reference aborts the run with exit
code 1.  See bench/README.md for the workloads and metrics.
"""

import argparse
import bisect
import gc
import importlib
import json
import os
import platform
import random
import resource
import signal
import statistics
import sys
import time
from array import array
from fractions import Fraction
from pathlib import Path

import gen
import spans
import workloads
from workloads import Mismatch

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
MODULES = ("padic", "fields", "galois", "anabelomorphy", "elliptic", "cli")

# set-ups of an untraced run, one after another before the timed passes;
# setup_s is their median
SETUPS = {"tate-additive": 3, "tower-build": 15, "invariants": 15}
# length of one pass over the item pool on the machine in bench/README.md.
# A run makes round(--seconds / this) passes, at least one, so that the work
# of a run does not depend on how fast the host happens to be.
PASS_SECONDS = {"tate-additive": 30, "tower-build": 10, "invariants": 10}
# share of --seconds spent on the overhead calibration of a traced run
CALIBRATION_SHARE = 0.2

clock = time.perf_counter

# -- host speed ---------------------------------------------------------------

_REF_RNG = random.Random(0)
_REF_MOD = 3 ** 300
_REF_X = [_REF_RNG.randrange(_REF_MOD) for _ in range(12)]
_REF_Y = [_REF_RNG.randrange(_REF_MOD) for _ in range(12)]
# mean time of one reference_loop on the machine in bench/README.md; the
# unit of every reported time
REFERENCE_S = 0.0005


def reference_loop():
    """Fixed pure-Python work of about 0.5 ms that does not touch the
    program, in two halves like the program's own work: big-integer
    arithmetic (a schoolbook product of two 12-term vectors of 300-digit
    integers mod 3^300) and object-heavy Python code (a sum of
    ``Fraction`` objects)."""
    out = [0] * 23
    for i, x in enumerate(_REF_X):
        for j, y in enumerate(_REF_Y):
            out[i + j] = (out[i + j] + x * y) % _REF_MOD
    total = Fraction(0)
    for k in range(1, 60):
        total += Fraction(k, k * k + 1)
    return out, total


class HostClock:
    """Times calls in seconds at the reference speed of the host.

    The host is shared: while a neighbour keeps the physical core busy,
    any code, this process's CPU time included, runs up to 1.5 times
    slower, in spells of under a second to minutes.  So while the clock is
    entered as a context, a timer signal runs ``reference_loop`` twice
    every PERIOD seconds, in this thread, and records how long the second
    run took.  A call's busy time (its wall time less the samples taken
    inside it) is scaled by REFERENCE_S over the mean sample within WINDOW
    seconds of the call, outliers left out.  A slower program moves the
    call and not the samples, so it shows in full; a slower host moves
    both, and cancels.  Without samples (a traced pass, which runs outside
    the context) a call's time is its busy time.
    """

    PERIOD = 0.04
    WINDOW = 0.1

    def __init__(self):
        self.at = array("d")        # sample start times
        self.took = array("d")      # sample durations
        self.sampling = 0.0         # total time spent in samples
        self.calls = []             # (start, end, busy seconds)

    def _sample(self, signum, frame):
        # the first run brings the loop's data back into the caches the
        # interrupted call evicted; only the second is timed, so that the
        # sample measures the host and not what the program left behind
        start = clock()
        reference_loop()
        t0 = clock()
        reference_loop()
        t1 = clock()
        self.at.append(t0)
        self.took.append(t1 - t0)
        self.sampling += t1 - start

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD, self.PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def time(self, fn, *args):
        """Runs ``fn(*args)``; returns (call id, its result)."""
        spent, t0 = self.sampling, clock()
        out = fn(*args)
        t1 = clock()
        self.calls.append((t0, t1, t1 - t0 - (self.sampling - spent)))
        return len(self.calls) - 1, out

    def seconds(self, call):
        """The call's busy time at the reference speed."""
        t0, t1, busy = self.calls[call]
        if not self.at:
            return busy
        lo = bisect.bisect_left(self.at, t0 - self.WINDOW)
        hi = bisect.bisect_right(self.at, t1 + self.WINDOW)
        if hi - lo < 3:             # a short call between sparse samples
            mid = bisect.bisect_left(self.at, t0)
            lo, hi = max(0, mid - 2), min(len(self.at), mid + 2)
        # a sample preempted for a few ms reads up to 13 times its usual
        # length, while the same pause adds well under 1 % to a long call:
        # samples over twice the window's median are left out
        window = sorted(self.took[lo:hi])
        kept = [t for t in window if t <= 2 * window[len(window) // 2]]
        return busy * REFERENCE_S * len(kept) / sum(kept)


def load_program():
    """Fresh import of the package and its modules from ``src/``."""
    for name in [n for n in sys.modules
                 if n == "anabelomorph" or n.startswith("anabelomorph.")]:
        del sys.modules[name]
    package = importlib.import_module("anabelomorph")
    mods = {m: importlib.import_module(f"anabelomorph.{m}") for m in MODULES}
    return package, mods


def make_runner(workload, mods, setup_state):
    """Callable running one item of ``workload``."""
    if workload == "tate-additive":
        return lambda item: workloads.tate_item(mods, setup_state, item)
    if workload == "tower-build":
        out_path = OUT_DIR / "disc.json"
        return lambda item: workloads.disc_item(mods, out_path, item)
    return lambda item: workloads.invariant_item(mods, item)


def set_up(workload, inputs, trace=False):
    """One set-up: a fresh import and, for tate-additive, both towers and
    the warm-up items.  With ``trace`` a tracer is installed right after
    the import.  Returns (modules, state, tracer or None)."""
    package, mods = load_program()
    tracer = None
    if trace:
        tracer = spans.Tracer(package)
        tracer.install(mods)
    state = (workloads.tate_setup(mods, inputs)
             if workload == "tate-additive" else None)
    return mods, state, tracer


def attempt(runner, item):
    """Runs one item; returns the exception of a failed item, else None.
    A Mismatch is not a failure but a wrong answer, and propagates."""
    try:
        runner(item)
    except Mismatch:
        raise
    except Exception as exc:  # an item failure: recorded by name, not hidden
        return exc
    return None


class Phase:
    """Latencies and failures of one closed-loop phase."""

    def __init__(self, hclock):
        self.hclock = hclock
        self.calls = []
        self.failures = []
        self.correct = 0

    @property
    def latencies(self):
        """Each item's time at the reference speed, in the order run."""
        return [self.hclock.seconds(c) for c in self.calls]

    def run_item(self, runner, item, tracer=None, index=-1):
        if tracer is not None:
            tracer.item_id = index
        call, exc = self.hclock.time(attempt, runner, item)
        self.calls.append(call)
        if exc is None:
            self.correct += 1
        else:
            self.failures.append((item["id"], type(exc).__name__, str(exc)))

    def run_pass(self, items, runner, tracer=None):
        """One pass over ``items`` in their seeded order."""
        for index, item in enumerate(items):
            self.run_item(runner, item, tracer, index)


def untraced_run(workload, inputs, passes):
    """SETUPS[workload] set-ups, then ``passes`` timed passes on the
    modules and state of the last one.  Returns (set-up seconds at the
    reference speed, phase of all passes, runner)."""
    setups = []
    with HostClock() as hclock:
        for _ in range(SETUPS[workload]):
            mods = state = None     # the next set-up starts without them
            gc.collect()            # earlier set-ups' garbage, outside timing
            call, (mods, state, _) = hclock.time(set_up, workload, inputs)
            setups.append(call)
        runner = make_runner(workload, mods, state)
        phase = Phase(hclock)
        for _ in range(passes):
            phase.run_pass(inputs["items"], runner)
    return [hclock.seconds(c) for c in setups], phase, runner


def overhead_ratio(items, runner, seconds, package, mods, hclock):
    """Traced ÷ untraced time of the leading items, which equals untraced ÷
    traced items_per_s.  Each item first runs once untimed, so that caches
    it fills (such as a tower's inverse cache) are warm for both timed
    runs; an item whose untimed run alone exceeds ``seconds`` is not
    timed, which bounds the calibration's length.
    The others run once without and once with a calibration tracer, the
    order alternating from item to item, so that a drift in host speed
    does not favour one side.  Stops after a whole pair of timed items
    once ``seconds`` have passed."""
    probe = spans.Tracer(package)
    plain, traced = Phase(hclock), Phase(hclock)
    start = clock()
    for index, item in enumerate(items):
        warm = Phase(hclock)
        warm.run_item(runner, item)
        if warm.latencies[0] > seconds:
            continue
        for on in ((False, True) if len(plain.latencies) % 2 == 0
                   else (True, False)):
            if on:
                probe.install(mods)
                traced.run_item(runner, item, probe, index)
                probe.uninstall()
            else:
                plain.run_item(runner, item)
        if len(plain.latencies) % 2 == 0 and clock() - start >= seconds:
            break
    return sum(traced.latencies) / sum(plain.latencies), len(plain.latencies)


def tail(latencies):
    """(latency, percentile) at the highest percentile that still has at
    least ten samples above it."""
    k = len(latencies) - 11
    return sorted(latencies)[k], 100.0 * (k + 1) / len(latencies)


def machine_record():
    uname = os.uname()
    return {"nproc": os.cpu_count(), "machine": uname.machine,
            "python": platform.python_version(),
            "platform": f"{uname.sysname}-{uname.release}"}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "anabelomorph" / "__init__.py").is_file() \
            or not (ROOT / gen.GOLDEN_FILE).is_file():
        sys.stderr.write(f"error: no program or golden rows under {ROOT}; "
                         "run from a source checkout\n")
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    OUT_DIR.mkdir(exist_ok=True)
    workload, trace = args.workload, bool(args.trace)

    # -- inputs: an untimed first import gives closed_form_disc ------------
    _, mods = load_program()
    inputs = gen.WORKLOADS[workload](args.seed, ROOT,
                                     mods["fields"].closed_form_disc)
    items = inputs["items"]

    # -- set-up, timed phase ----------------------------------------------
    setup_times = []
    overhead = None
    if trace:
        # one traced set-up, the overhead calibration, the traced phase
        mods, state, tracer = set_up(workload, inputs, trace=True)
        tracer.uninstall()
        runner = make_runner(workload, mods, state)
        with HostClock() as hclock:
            overhead = overhead_ratio(items, runner,
                                      CALIBRATION_SHARE * args.seconds,
                                      tracer.package, mods, hclock)
        tracer.install(mods)
        # one pass, so that the counts repeat exactly for a seed
        phase = Phase(HostClock())
        phase.run_pass(items, runner, tracer)
        tracer.uninstall()
    else:
        tracer = None
        passes = max(1, round(args.seconds / PASS_SECONDS[workload]))
        setup_times, phase, runner = untraced_run(workload, inputs, passes)

    # -- known defects (invariants only): untimed probes -------------------------
    probe_lines = []
    for item in inputs.get("probes", []):
        exc = attempt(runner, item)
        if exc is not None:
            probe_lines.append(f"known defect {item['id']}: still fails "
                               f"({type(exc).__name__}: {exc}) -- "
                               f"{item['defect']}")
        else:
            probe_lines.append(f"known defect {item['id']}: NOW PASSES "
                               f"-- {item['defect']}")

    (OUT_DIR / "disc.json").unlink(missing_ok=True)
    return report(args, inputs, setup_times, phase, tracer, overhead,
                  probe_lines)


def report(args, inputs, setup_times, phase, tracer, overhead, probe_lines):
    n = len(phase.calls)
    failed = len(phase.failures)
    lat = phase.latencies
    busy = sum(phase.hclock.calls[c][2] for c in phase.calls)
    lines = [f"workload {args.workload} seed {args.seed} "
             f"inputs sha256:{gen.digest(inputs)} pool {len(inputs['items'])} "
             f"items, {n} attempted in {busy:.3f} s busy",
             (f"host speed {sum(lat) / busy:.3f} of the reference during "
              f"the items; the times below are at the reference speed"
              if phase.hclock.at else "host speed not sampled in a traced "
              "pass; the times below are wall times"),
             "machine " + json.dumps(machine_record(), sort_keys=True)]
    for fid, cls, msg in phase.failures:
        lines.append(f"FAILED {fid}: {cls}: {msg}")
    lines.extend(probe_lines)
    if tracer is None:
        t_val, t_pct = tail(lat)
        of_all = f"of {n} items ({n // len(inputs['items'])} passes)"
        metrics = {
            "setup_s": (statistics.median(setup_times), "s",
                        f"median of {len(setup_times)} set-ups"),
            "items_per_s": (phase.correct / sum(lat), "1/s",
                            f"{phase.correct} of {n} correct in "
                            f"{sum(lat):.3f} s"),
            "item_p50_s": (statistics.median(lat), "s", of_all),
            "item_tail_s": (t_val, "s", f"p{t_pct:.1f} {of_all}"),
            "failed_ratio": (failed / n, "-", f"{failed} of {n} failed"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "MB", "ru_maxrss"),
        }
        shown = [k for k in metrics if k != "failed_ratio"]
    else:
        totals = tracer.layer_totals()
        metrics = {}
        for layer, (calls, self_s, _) in totals.items():
            metrics[f"{layer}.calls"] = (calls, "count", "")
            metrics[f"{layer}.self_s"] = (self_s, "s", "")
        vcalls = totals["fields.valuation"][0]
        metrics["fields.valuation.bound_ratio"] = (
            tracer.bounds / vcalls if vcalls else 0.0, "ratio",
            f"{tracer.bounds} of {vcalls} answers only a bound")
        metrics["fields.build.max_s"] = (totals["fields.build"][2], "s",
                                         "longest single build")
        metrics["fields.working_digits.max"] = (tracer.max_digits, "digits",
                                                "max K.M over built towers")
        verdicts = totals["anabelomorphy.verdict"][0]
        metrics["anabelomorphy.verdict.undecided_ratio"] = (
            tracer.undecided / verdicts if verdicts else 0.0, "ratio",
            f"{tracer.undecided} of {verdicts} verdicts")
        metrics["trace.overhead_ratio"] = (
            overhead[0], "ratio", f"untraced / traced items_per_s over "
            f"{overhead[1]} items run both ways")
        shown = list(metrics)
        path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.tsv.gz"
        tracer.write(path)
        lines.append(f"spans: {len(tracer.start)} written to "
                     f"{path.relative_to(ROOT)}")
    for name, (value, unit, note) in metrics.items():
        lines.append(f"{name:40s} {value:>14.6g} {unit:6s} {note}")
    print("\n".join(lines))
    print(json.dumps({
        "correct": True, "attempted": n, "failed": failed,
        "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]}
                    for k in shown}}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Mismatch as exc:
        sys.stderr.write(f"error: answer differs from its reference: {exc}\n")
        sys.exit(1)
