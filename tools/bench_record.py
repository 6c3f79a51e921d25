"""Record one BENCH_<n>.json file from runs of bench/run.py.

    python3 tools/bench_record.py N [--checkout DIR]

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

The checkout, a git checkout, defaults to this repository.  Runs go one
after another, so a record takes about 2 minutes (30 runs of 1-5 s each
on a 2-core x86 host, CPython 3.11).  Stdlib only.
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


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("n", type=int, help="writes BENCH_<n>.json")
    ap.add_argument("--checkout", type=Path, default=HERE)
    args = ap.parse_args(argv)
    checkout = args.checkout.resolve()
    commit, dirty = commit_of(checkout)
    out = {"commit": commit, "uncommitted_changes": dirty,
           "source_sha256": source_digest(checkout),
           "seeds": list(SEEDS), "seconds": SECONDS,
           "command": "python3 bench/run.py --workload W --seed S "
                      f"--seconds {SECONDS} --trace 0|1",
           "machine": None, "workloads": {}}
    for workload in WORKLOADS:
        runs = []
        for seed in SEEDS:
            t0 = time.time()
            digest, machine, res = run_bench(checkout, workload, seed, 0)
            out["machine"] = out["machine"] or machine
            runs.append({"seed": seed, "inputs_sha256": digest,
                         "attempted": res["attempted"],
                         "failed": res["failed"],
                         "metrics": {k: v["value"]
                                     for k, v in res["metrics"].items()}})
            print(f"{workload} seed {seed}: {time.time() - t0:.0f} s "
                  f"{json.dumps(runs[-1]['metrics'])}", flush=True)
        names = runs[0]["metrics"]
        medians = {k: statistics.median(r["metrics"][k] for r in runs)
                   for k in names}
        traced = []
        for seed in SEEDS:
            digest, _, res = run_bench(checkout, workload, seed, 1)
            traced.append({"seed": seed, "inputs_sha256": digest,
                           "metrics": {k: v["value"]
                                       for k, v in res["metrics"].items()}})
        names = traced[0]["metrics"]
        out["workloads"][workload] = {
            "medians": medians, "runs": runs,
            "trace": {"seeds": list(SEEDS), "statistic": "median",
                      "metrics": {k: statistics.median(
                          r["metrics"][k] for r in traced) for k in names},
                      "runs": traced}}
        print(f"{workload} traced: done", flush=True)
    path = HERE / f"BENCH_{args.n}.json"
    path.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
