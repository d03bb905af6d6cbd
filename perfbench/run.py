#!/usr/bin/env python3
"""Campaign benchmark: one command, every metric by name.

    python3 perfbench/run.py --workload agent-grid --seed 1 --seconds 50 --trace 0

BENCHMARK.json names agent-grid and count-clique; many-cells runs the same
way but is left out of it, because its set-up time is not steady enough on
a shared host (see README.md).

Run from the root of the repository. The script builds the `perfbench`
binary (a package of its own in this directory) into $CARGO_TARGET_DIR,
or `.bench_build` when that is unset, and writes campaign outputs under
`<target>/perfbench-runs/`.

--trace 0 measures the end-to-end metrics. For about --seconds, and at
least MIN_REPS times, it runs the campaign at a one-step budget (set-up
time) and then in full, each run in a fresh process. It reports the
median set-up time, the fastest full run's times and the median peak
memory.

--trace 1 runs the traced replay once and reports the per-layer metrics.

Every campaign's checkpoint.json and summary.json are hashed: runs of one
seed must agree with each other and, for DEFAULT_SEED, with reference.json.
A mismatch counts every trial of that run as failed. The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics; the exit code is 0 only when correct is true.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("agent-grid", "count-clique", "many-cells")
# The seed whose output digests reference.json pins.
DEFAULT_SEED = 1
MIN_REPS = 3
# Layers must explain at least this share of the traced wall time.
EXPLAINED_FLOOR = 0.8
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "interactions_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(target):
    """Builds the benchmark binary; returns its path."""
    manifest = os.path.join(HERE, "Cargo.toml")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    done = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--manifest-path", manifest],
        env=env,
        stdout=sys.stderr,
        check=False,
    )
    if done.returncode != 0:
        fail("building the benchmark failed")
    return os.path.join(target, "release", "perfbench")


def child(argv, scratch):
    """Runs argv in a fresh process; returns (exit code, stdout, rusage)."""
    out_path = os.path.join(scratch, "child.out")
    with open(out_path, "w+b") as out:
        proc = subprocess.Popen(argv, stdout=out, stderr=sys.stderr)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        text = out.read().decode()
    return proc.returncode, text, usage


def digest(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def expected_trials(binary, workload, seed, out):
    argv = [binary, "spec", "--workload", workload, "--seed", str(seed), "--out", out]
    code, text, _ = child(argv, out)
    if code != 0:
        fail("the benchmark binary cannot describe the workload")
    return json.loads(text)["trials"]


def output_digests(campaign_dir):
    return {name: digest(os.path.join(campaign_dir, name))
            for name in ("checkpoint.json", "summary.json")}


def campaign(binary, workload, seed, out, expected, max_steps=None):
    """One campaign in a fresh process, as a dict (ok=False if it failed)."""
    argv = [binary, "run", "--workload", workload, "--seed", str(seed), "--out", out]
    if max_steps is not None:
        argv += ["--max-steps", str(max_steps)]
    code, text, usage = child(argv, out)
    rep = {"ok": False, "expected_trials": expected, "cpu_s": usage.ru_utime + usage.ru_stime,
           "peak_rss_mb": usage.ru_maxrss / 1024.0}
    if code != 0:
        print(f"perfbench: campaign exited with {code}", file=sys.stderr)
        return rep
    rep.update(json.loads(text.strip().splitlines()[-1]))
    rep["digests"] = output_digests(rep["dir"])
    rep["ok"] = rep["trials"] == expected
    return rep


def host_metadata(binary):
    cpu_model, avx512 = "unknown", False
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name") and cpu_model == "unknown":
                    cpu_model = line.split(":", 1)[1].strip()
                if line.startswith("flags"):
                    avx512 = avx512 or " avx512f" in line
    except OSError:
        pass
    try:
        rustc = subprocess.run(["rustc", "--version"], capture_output=True, text=True,
                               check=False).stdout.strip()
    except OSError:
        rustc = "unknown"
    try:
        commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                                text=True, check=False).stdout.strip() or "none"
    except OSError:
        commit = "none"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "avx512": avx512,
        "kernel": platform.release(),
        "rustc": rustc,
        "git_commit": commit,
        "binary_sha256": digest(binary),
        "build_profile": "release (lto=thin, codegen-units=1)",
    }


def reference_for(args):
    """reference.json's digests for this workload, or None when the run
    is not at DEFAULT_SEED (or is printing a new reference)."""
    if args.seed != DEFAULT_SEED or args.print_reference:
        return None
    with open(os.path.join(HERE, "reference.json")) as f:
        return json.load(f)[args.workload]


def check(reps, expected, label):
    """Marks reps whose digests differ from `expected` (or, without a
    reference, from the first good rep) as failed; returns the digests."""
    for rep in reps:
        if not rep["ok"]:
            continue
        if expected is None:
            expected = rep["digests"]
        if rep["digests"] != expected:
            print(f"perfbench: {label} outputs differ from the reference: {rep['digests']}",
                  file=sys.stderr)
            rep["ok"] = False
    return expected


def spread(values):
    return f"median {statistics.median(values):.6g}  min {min(values):.6g}  " \
           f"max {max(values):.6g}  n={len(values)}"


def measure(binary, args, out):
    """--trace 0: pairs of a set-up run and a full run for --seconds."""
    expected = expected_trials(binary, args.workload, args.seed, out)
    setup, reps = [], []
    started = time.perf_counter()
    pair_s = 0.0
    # Set-up runs alternate with full runs, so that both sample the whole
    # window rather than one burst of a shared host's load. Another pair
    # starts only while it still ends within --seconds.
    while len(reps) < MIN_REPS or time.perf_counter() - started + pair_s <= args.seconds:
        began = time.perf_counter()
        setup.append(campaign(binary, args.workload, args.seed, out, expected, max_steps=1))
        reps.append(campaign(binary, args.workload, args.seed, out, expected))
        pair_s = time.perf_counter() - began
    reference = reference_for(args)
    setup_digests = check(setup, reference and reference["setup"], "set-up")
    digests = check(reps, reference and reference["full"], "campaign")
    if args.print_reference:
        print(json.dumps({args.workload: {"setup": setup_digests, "full": digests}}))

    runs = setup + reps
    attempted = sum(r["expected_trials"] for r in runs)
    failed = sum(r["expected_trials"] for r in runs if not r["ok"])
    good = [r for r in reps if r["ok"]]
    good_setup = [r for r in setup if r["ok"]]
    metrics, lines = {}, []
    if good and good_setup:
        # (values, statistic reported). Every full run of one seed does the
        # same work, and other tenants of a shared host only ever slow a run
        # down, for ten seconds and more at a time: the fastest run is the
        # steadiest estimate of the program's own speed. Set-up time is the
        # median of its runs.
        series = {
            "wall_s": ([r["wall_s"] for r in good], min),
            "setup_s": ([r["wall_s"] for r in good_setup], statistics.median),
            "interactions_per_s": ([r["steps"] / r["wall_s"] for r in good], max),
            "cpu_s": ([r["cpu_s"] for r in good], min),
            "peak_rss_mb": ([r["peak_rss_mb"] for r in good], statistics.median),
        }
        for name, (values, statistic) in series.items():
            metrics[name] = {"value": statistic(values), "unit": END_TO_END[name]}
            lines.append(f"{name:20s} {END_TO_END[name]:4s} {statistic.__name__} "
                         f"{metrics[name]['value']:.6g}  ({spread(values)})")
        timeouts = good[0]["timeouts"] / good[0]["trials"]
        lines.append(f"{'timeout_frac':20s} {'':4s} {timeouts:.6g} (deterministic per seed)")
    lines.append(f"{'failed_frac':20s} {'':4s} {failed / attempted:.6g} "
                 f"({failed} of {attempted} trials)")
    return failed == 0 and bool(metrics), attempted, failed, metrics, lines


def traced(binary, args, out):
    """--trace 1: one traced replay with probes, in a fresh process."""
    argv = [binary, "trace", "--workload", args.workload, "--seed", str(args.seed), "--out", out]
    expected = expected_trials(binary, args.workload, args.seed, out)
    code, text, _ = child(argv, out)
    if code != 0:
        return False, expected, expected, {}, [f"traced run exited with {code}"]
    result = json.loads(text.strip().splitlines()[-1])
    rep = {"ok": result["checkpoint_identical"] and result["summary_identical"],
           "digests": output_digests(os.path.join(out, "configured", args.workload))}
    reference = reference_for(args)
    check([rep], reference and reference["full"], "traced campaign")
    metrics = result["metrics"]
    lines = [f"{name:32s} {m['unit']:12s} {m['value']:.6g}" for name, m in metrics.items()]
    wall = result["replay_wall_s"]
    lines.append(f"layer self time in the {wall:.4g} s traced replay:")
    for name, layer in sorted(result["layers"].items(), key=lambda kv: -kv[1]["self_s"]):
        lines.append(f"  {name:24s} {layer['self_s']:10.4f} s {100 * layer['self_s'] / wall:5.1f} %"
                     f"  calls={layer['calls']}")
    lines.append(f"trial time by engine: {result['trial_s']}")
    lines.append(f"replay identical to run_campaign: checkpoint.json "
                 f"{result['checkpoint_identical']}, summary.json {result['summary_identical']}")
    if result["home_probed"]:
        lines.append("timed on their home input (layers this workload never enters): "
                     + ", ".join(result["home_probed"]))
    explained = 1.0 - metrics["trace.unexplained_frac"]["value"]
    if explained < EXPLAINED_FLOOR:
        lines.append(f"FLAG: layers explain only {100 * explained:.1f} % of the traced wall time")
    lines.append(f"spans: {result['spans']}")
    return rep["ok"], expected, 0 if rep["ok"] else expected, metrics, lines


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--print-reference", action="store_true",
                        help="print the run's output digests in reference.json's format")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be non-negative and --seconds positive")
    if not os.path.isfile(os.path.join(ROOT, "crates", "lab", "Cargo.toml")):
        fail(f"{ROOT} does not hold the repository's crates")

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(target)
    out = os.path.join(target, "perfbench-runs", args.workload)
    os.makedirs(out, exist_ok=True)
    host = host_metadata(binary)
    run = traced if args.trace else measure
    correct, attempted, failed, metrics, lines = run(binary, args, out)

    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, host=host)
    with open(os.path.join(out, f"result-seed{args.seed}-trace{args.trace}.json"), "w") as f:
        json.dump(record, f, indent=1)
    print(f"# perfbench {args.workload} seed={args.seed} trace={args.trace}")
    print(f"# host {json.dumps(host)}")
    for line in lines:
        print(f"# {line}")
    print(json.dumps(result))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
