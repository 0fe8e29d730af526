#!/usr/bin/env python3
"""The sockscope benchmark: one command for every workload and metric.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1] [--sites N]

Run it from the repository root. It builds the two benchmark binaries
(`cargo build --release --offline`, into $CARGO_TARGET_DIR or
`.bench_build/`), checks the pinned preflight mini-study, then runs the
workload for about `--seconds` seconds: `--seconds / rep_seconds` runs (at
least MIN_RUNS), one `sockscope run` per process, each on its own universe.
Run 0 crawls the universe of `--seed` itself; run r > 0 crawls one whose
seed is derived from `--seed` and r, so a seed fixes every input, and each
invocation averages over many universes instead of re-measuring one. The
run count depends only on `--seconds`, never on measured speed, so two
versions of the program always see the same inputs.

`--trace 0` reports the end-to-end metrics of BENCHMARK.json. `--trace 1`
follows every untraced run with a traced one of the same inputs and
reports the per-layer metrics instead. Every run's outputs are checked;
the last line of stdout is one JSON object:

    {"correct": .., "attempted": .., "failed": .., "metrics": {..}}

Every metric is the median over the runs, except the visit yield: the
share of all attempted site visits that were not quarantined. `attempted`
counts the site visits (sites x eras) the invocation's runs attempted,
the preflight included; `failed` counts those of runs that failed a check.
Workloads, their expected outputs and the metric-to-layer map live in
perfbench/workloads.json; README.md there documents every metric and
check.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MIN_RUNS = 3
TRACE_COST = 4
CHILD_TIMEOUT_S = 150
# Start no new run once this much of the invocation's time is gone.
BUDGET_S = 150


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_json(path):
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def build():
    """Builds the benchmark binaries; returns the directory holding them."""
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    command = ["cargo", "build", "--release", "--offline", "--quiet",
               "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        built = subprocess.run(command, cwd=ROOT, env=env, stdout=sys.stderr)
    except OSError as e:
        fail(f"cannot run cargo: {e}")
    if built.returncode != 0:
        fail("building the benchmark failed")
    return os.path.join(target, "release")


def child(exe, flags, cli_args, cwd):
    """Runs one benchmark process; returns its JSON line (ok=False on any
    failure, with the child's stderr tail echoed to ours)."""
    try:
        done = subprocess.run([exe, *flags, "--", *cli_args], cwd=cwd,
                              capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"ok": False, "error": f"{os.path.basename(exe)} timed out"}
    lines = done.stdout.strip().splitlines()
    try:
        out = json.loads(lines[-1])
    except (IndexError, ValueError):
        out = {"ok": False, "error": f"no result (exit {done.returncode})"}
    if done.returncode != 0 or not out.get("ok"):
        out["ok"] = False
        out.setdefault("error", f"exit {done.returncode}")
        sys.stderr.write(done.stderr[-4000:])
    return out


class Runs:
    """The runs of one invocation: their scratch directories, their errors,
    and the site visits they attempted and failed."""

    def __init__(self, exe_dir, work):
        self.run_exe = os.path.join(exe_dir, "perfbench-run")
        self.trace_exe = os.path.join(exe_dir, "perfbench-trace")
        self.work = work
        self.count = 0
        self.errors = []
        self.attempted = 0
        self.failed = 0

    def fresh_dir(self):
        self.count += 1
        path = os.path.join(self.work, str(self.count))
        os.makedirs(path)
        return path

    def run(self, flags, cli_args, visits, what):
        """One untraced run; returns (result, its directory) or None."""
        cwd = self.fresh_dir()
        self.attempted += visits
        out = child(self.run_exe, flags, cli_args, cwd)
        if not out["ok"]:
            self.failed += visits
            self.errors.append(f"{what}: {out['error']}")
            return None
        return out, cwd

    def trace(self, cli_args, snapshot, visits):
        out = child(self.trace_exe, ["--expect-snapshot", snapshot], cli_args,
                    self.fresh_dir())
        if not out["ok"]:
            self.failed += visits
            self.errors.append(f"traced run: {out['error']}")
            return None
        return out


def expected_flags(workload):
    expected = workload["expected"]
    flags = ["--expect-crc", expected["snapshot_crc32"],
             "--expect-len", str(expected["snapshot_len"])]
    if "quarantined" in expected:
        flags += ["--expect-quarantined", str(expected["quarantined"])]
    return flags


def universe_seed(seed, r):
    """Seed of run r's universe: `seed` itself for run 0, a splitmix64 step
    away from it otherwise."""
    if r == 0:
        return seed
    mask = 2**64 - 1
    z = (seed + r * 0x9E3779B97F4A7C15) & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return z ^ (z >> 31)


def run_count(workload, seconds, trace):
    """Runs per invocation, from the time budget alone. A traced run also
    runs the untraced one, plus two traced passes: about four times as long."""
    rep_seconds = workload["rep_seconds"] * (TRACE_COST if trace else 1)
    return max(MIN_RUNS, int(seconds // rep_seconds))


def measure(spec, workload, seed, sites, seconds, trace, runs):
    """Preflight, then the workload's runs; returns the results of the runs
    that passed every check and the site visits all workload runs
    attempted."""
    pre = spec["preflight"]
    pre_visits = pre["sites"] * 4
    pre_args = ["run", "--seed", pre["seed"], "--sites", str(pre["sites"]),
                "--save", "snapshot.json"]
    if runs.run(expected_flags(pre), pre_args, pre_visits, "preflight") is None:
        return [], 0
    before = runs.attempted

    pinned = seed == int(spec["default_seed"], 16) and sites == workload["sites"]
    visits = sites * workload["eras"]
    results = []
    start = time.monotonic()
    longest = 0.0
    for r in range(run_count(workload, seconds, trace)):
        if time.monotonic() - start + longest > BUDGET_S:
            runs.errors.append("out of time before the last run")
            break
        began = time.monotonic()
        cli_args = ["run", "--seed", f"{universe_seed(seed, r):X}",
                    "--sites", str(sites), *workload["args"]]
        flags = expected_flags(workload) if pinned and r == 0 else []
        done = runs.run(flags, cli_args, visits, f"run {r}")
        if done is None:
            break
        result, cwd = done
        if trace:
            snapshot = os.path.join(cwd, "snapshot.json")
            result["trace"] = runs.trace(cli_args, snapshot, visits)
            if result["trace"] is None:
                break
        shutil.rmtree(cwd, ignore_errors=True)
        results.append(result)
        longest = max(longest, time.monotonic() - began)
    return results, runs.attempted - before


def median(values):
    return statistics.median(values)


def end_to_end(results, attempted):
    useful = sum(r["visits"] - r["quarantined"] for r in results)
    return {
        "sites_per_s": median([r["sites_per_s"] for r in results]),
        "setup_s": median([r["setup_s"] for r in results]),
        "peak_rss_mib": median([r["peak_rss_mib"] for r in results]),
        "output_bytes": median([r["output_bytes"] for r in results]),
        "visit_yield": useful / attempted,
    }


# Per-layer metrics the untraced run measures (the journal is written and
# resumed only by the CLI's checkpointed driver).
FROM_RUN = {
    "journal.segments": "journal_segments",
    "journal.bytes": "journal_bytes",
    "journal.resume_s": "resume_s",
}


def per_layer(results, names):
    metrics = {}
    for name in names:
        if name == "trace.overhead":
            values = [r["sites_per_s"] / r["trace"]["traced_sites_per_s"]
                      for r in results]
        elif name in FROM_RUN:
            values = [r.get(FROM_RUN[name], 0.0) for r in results]
        else:
            values = [r["trace"][name] for r in results if name in r["trace"]]
        if values:
            metrics[name] = median(values)
    return metrics


def parse_seed(text):
    """A decimal or 0x-prefixed hexadecimal seed."""
    if text.lower().startswith("0x"):
        return int(text, 16)
    return int(text)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=parse_seed)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--sites", type=int,
                        help="override the workload's size (skips the "
                             "recorded-output check)")
    args = parser.parse_args()

    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    spec = load_json(os.path.join(HERE, "workloads.json"))
    workload = spec["workloads"].get(args.workload)
    if workload is None:
        fail(f"unknown workload {args.workload}; "
             f"known: {', '.join(spec['workloads'])}")
    seed = int(spec["default_seed"], 16) if args.seed is None else args.seed
    if not 0 <= seed < 2**64:
        fail("--seed must fit in 64 bits")
    sites = args.sites or workload["sites"]
    declared = bench["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    exe_dir = build()
    os.makedirs(os.path.join(ROOT, ".perfbench_work"), exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=os.path.join(ROOT, ".perfbench_work"))
    try:
        runs = Runs(exe_dir, work)
        results, attempted = measure(spec, workload, seed, sites,
                                     args.seconds, args.trace, runs)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = {}
    if results:
        if args.trace:
            metrics = per_layer(results, units)
        else:
            metrics = end_to_end(results, attempted)
        missing = [name for name in units if name not in metrics]
        if missing:
            runs.errors.append(f"metrics not measured: {missing}")
    for error in runs.errors:
        print(f"perfbench: {error}", file=sys.stderr)
    correct = not runs.errors
    print(json.dumps({
        "correct": correct,
        "attempted": runs.attempted,
        "failed": runs.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units if name in metrics},
    }))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
