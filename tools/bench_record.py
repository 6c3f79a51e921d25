"""Record BENCH_<n>.json files from runs of bench/run.py.

    python3 tools/bench_record.py N [--checkout DIR] [--parent DIR]

For every workload the script runs ``bench/run.py`` of the checkout with
``--seconds 30`` at each of the seeds 1 to 5 with ``--trace 0``, then at
each of them with ``--trace 1``.  It writes ``BENCH_<N>.json`` at the root of the
repository that holds this script, with:

  * the median of every end-to-end metric over the seeds, and each run's
    values;
  * under ``trace``, the median of every per-layer metric over the traced
    runs of the seeds, and each traced run's values: a traced pass is
    timed once, unscaled, so one slow or fast stretch of a shared host
    would move all self times of a single traced run together;
  * the seeds and the input digest each run printed;
  * the commit of the checkout, whether src/ or bench/ differ from it, and
    a SHA-256 over the files of src/ and bench/;
  * the machine record that bench/run.py prints.

The checkout, a git checkout, defaults to this repository.  With
``--parent DIR`` the script records the parent checkout as
``BENCH_<N>.json`` and the checkout as ``BENCH_<N+1>.json`` in one
invocation: it runs the two seed by seed, the parent first at odd seeds
and the checkout first at even ones, so that a drift of the host splits
across both records instead of landing on one.  Runs go one after
another, so a record takes about 2 minutes per checkout (30 runs of
1-5 s each on a 2-core x86 host, CPython 3.11).  Stdlib only.
"""

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
WORKLOADS = ("tate-additive", "tower-build", "invariants")
SEEDS = (1, 2, 3, 4, 5)
SECONDS = 30


def run_bench(checkout, workload, seed, trace):
    """(digest, machine record, final JSON object) of one bench run."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(SECONDS),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    digest = machine = None
    for line in lines:
        if line.startswith("workload ") and "inputs sha256:" in line:
            digest = line.split("inputs sha256:", 1)[1].split()[0]
        elif line.startswith("machine "):
            machine = json.loads(line[len("machine "):])
    return digest, machine, json.loads(lines[-1])


def source_digest(checkout):
    h = hashlib.sha256()
    for sub in ("src", "bench"):
        for path in sorted((checkout / sub).rglob("*.py")):
            h.update(str(path.relative_to(checkout)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def commit_of(checkout):
    """(HEAD of the checkout, whether src/ or bench/ differ from it)."""
    def git(*args):
        return subprocess.run(["git", *args], cwd=checkout, check=True,
                              capture_output=True, text=True).stdout.strip()
    return (git("rev-parse", "HEAD"),
            bool(git("status", "--porcelain", "--", "src", "bench")))


def _medians(runs):
    return {k: statistics.median(r["metrics"][k] for r in runs)
            for k in runs[0]["metrics"]}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("n", type=int, help="writes BENCH_<n>.json, and "
                    "BENCH_<n+1>.json for the checkout with --parent")
    ap.add_argument("--checkout", type=Path, default=HERE)
    ap.add_argument("--parent", type=Path, default=None,
                    help="a checkout of the parent commit, recorded as "
                         "BENCH_<n>.json, alternating with the checkout")
    args = ap.parse_args(argv)
    checkouts = [args.checkout.resolve()]
    if args.parent is not None:
        checkouts.insert(0, args.parent.resolve())
    outs = []
    for checkout in checkouts:
        commit, dirty = commit_of(checkout)
        outs.append({"commit": commit, "uncommitted_changes": dirty,
                     "source_sha256": source_digest(checkout),
                     "seeds": list(SEEDS), "seconds": SECONDS,
                     "command": "python3 bench/run.py --workload W --seed S "
                                f"--seconds {SECONDS} --trace 0|1",
                     "machine": None, "workloads": {}})
    for workload in WORKLOADS:
        runs = [[] for _ in checkouts]
        traced = [[] for _ in checkouts]
        for trace, into in ((0, runs), (1, traced)):
            for s, seed in enumerate(SEEDS):
                order = range(len(checkouts))
                for side in (order if s % 2 == 0 else reversed(order)):
                    t0 = time.time()
                    digest, machine, res = run_bench(checkouts[side],
                                                     workload, seed, trace)
                    outs[side]["machine"] = outs[side]["machine"] or machine
                    record = {"seed": seed, "inputs_sha256": digest,
                              "metrics": {k: v["value"] for k, v
                                          in res["metrics"].items()}}
                    into[side].append(record)
                    if not trace:
                        record.update(attempted=res["attempted"],
                                      failed=res["failed"])
                        print(f"{workload} seed {seed} "
                              f"{checkouts[side].name}: "
                              f"{time.time() - t0:.0f} s "
                              f"{json.dumps(record['metrics'])}", flush=True)
        for side, out in enumerate(outs):
            out["workloads"][workload] = {
                "medians": _medians(runs[side]), "runs": runs[side],
                "trace": {"seeds": list(SEEDS), "statistic": "median",
                          "metrics": _medians(traced[side]),
                          "runs": traced[side]}}
        print(f"{workload} traced: done", flush=True)
    for i, out in enumerate(outs):
        path = HERE / f"BENCH_{args.n + i}.json"
        path.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
