#!/usr/bin/env python3
"""End-to-end simulator benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload gpt3-1k --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --selftest

Builds the Go program in perfbench/ (a module of its own that replaces
`repro` with the repository root), then starts one fresh process per
repetition of the workload until --seconds have been spent, and prints the
medians. Before the first repetition and after each one it times the host
calibration kernel (calib.go), and reports end-to-end times in seconds of
a reference host. --trace 0 reports the end-to-end metrics of BENCHMARK.json;
--trace 1 alternates untraced and traced repetitions and reports the
per-layer metrics, including the tracing overhead (median traced wall time
minus median untraced wall time). Every repetition checks its simulated
outputs against perfbench/reference.json. The last line of standard output
is the JSON result; the lines before it are for people.

--selftest perturbs one reference value per workload and confirms the
output check then reports the workload as failed.
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
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
REFERENCE = os.path.join(HERE, "reference.json")
MIN_REPS = 3
# The simulator is single-threaded; a second P runs the garbage collector
# beside it, which keeps peak memory steady from run to run. Pinning the
# count keeps runs comparable across hosts with more cores.
GOMAXPROCS = str(min(2, os.cpu_count() or 1))
CHILD_TIMEOUT_S = 150
# One pass of the calibration kernel on the reference host, in seconds;
# calib.go explains the calibration. Must equal calibNominalS there.
CALIB_NOMINAL_S = 0.1


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def go_env():
    """Keeps the Go toolchain's caches, temp files and config inside the
    build directory, and off the network."""
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOTMPDIR": os.path.join(BUILD, "tmp"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "XDG_CONFIG_HOME": os.path.join(BUILD, "config"),
        "GOENV": "off",
        "GOPROXY": "off",
        "GOTOOLCHAIN": "local",
        "GOWORK": "off",
        "GOFLAGS": "-mod=mod",
    })
    return env


def build():
    for d in ("gocache", "tmp", "gopath", "config"):
        os.makedirs(os.path.join(BUILD, d), exist_ok=True)
    try:
        p = subprocess.run(["go", "build", "-o", BINARY, "."], cwd=HERE, env=go_env(),
                           stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, timeout=800)
    except (OSError, subprocess.TimeoutExpired) as e:
        die("build failed: %s" % e)
    if p.returncode != 0:
        die("build failed:\n" + p.stdout)


def calibrate():
    """Times the host calibration kernel in a fresh process; returns the
    pass times or None."""
    try:
        p = subprocess.run([BINARY, "-calib"], cwd=ROOT, env=dict(os.environ, GOMAXPROCS=GOMAXPROCS),
                           stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                           timeout=CHILD_TIMEOUT_S)
        if p.returncode == 0:
            return json.loads(p.stdout.strip().splitlines()[-1])["calib_s"]
        print("calibration exited with %d: %s" % (p.returncode, p.stderr.strip()), file=sys.stderr)
    except (subprocess.TimeoutExpired, ValueError, IndexError, KeyError) as e:
        print("calibration failed: %s" % e, file=sys.stderr)
    return None


def run_child(workload, seed, traced, ref):
    """Runs one repetition in a fresh process; returns its result or None."""
    cmd = [BINARY, "-workload", workload, "-seed", str(seed), "-ref", ref]
    if traced:
        cmd.append("-trace")
    try:
        p = subprocess.run(cmd, cwd=ROOT, env=dict(os.environ, GOMAXPROCS=GOMAXPROCS),
                           stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                           timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("repetition timed out after %ds" % CHILD_TIMEOUT_S, file=sys.stderr)
        return None
    if p.returncode != 0:
        print("repetition exited with %d: %s" % (p.returncode, p.stderr.strip()), file=sys.stderr)
        return None
    try:
        return json.loads(p.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        print("repetition printed no result: %r" % p.stdout[-500:], file=sys.stderr)
        return None


def source_id():
    """The commit when the checkout is a git repository, else a digest of
    the Go sources the benchmark builds."""
    try:
        p = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, stdout=subprocess.PIPE,
                           stderr=subprocess.DEVNULL, text=True, timeout=10)
        if p.returncode == 0 and p.stdout.strip():
            return p.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        for f in sorted(filenames):
            if f.endswith(".go") or f == "go.mod":
                path = os.path.join(dirpath, f)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return "src-sha256:" + h.hexdigest()[:16]


def spread(values):
    """Interquartile range as a share of the median."""
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / abs(med)


def e2e_values(rep, speed):
    """One repetition's end-to-end values, its host times multiplied by
    speed (reference-host seconds per host second)."""
    wall = rep["wall_s"] * speed
    return {
        "wall_s": wall,
        "setup_s": rep["setup_s"] * speed,
        "events_per_s": rep["events"] / wall,
        "runs_per_s": rep["sims"] / wall,
        "peak_rss_mb": rep["peak_rss_mb"],
    }


def measure(workload, seed, seconds, traced):
    """Repeats the workload until the time budget is spent: untraced
    repetitions only, or with --trace 1 rounds of one untraced and one
    traced repetition. The host is calibrated before the first repetition
    and after every one. Returns both lists, the calibration pass times and
    the number of repetitions or calibrations that crashed."""
    start = time.monotonic()
    plain, with_trace, calib, lost, rounds = [], [], [], 0, 0

    def calibrate_once():
        nonlocal lost
        passes = calibrate()
        if passes is None:
            lost += 1
        else:
            calib.extend(passes)

    calibrate_once()
    while True:
        for t in ([False, True] if traced else [False]):
            rep = run_child(workload, seed, t, REFERENCE)
            if rep is None:
                lost += 1
            else:
                (with_trace if t else plain).append(rep)
            calibrate_once()
        rounds += 1
        elapsed = time.monotonic() - start
        next_end = elapsed * (rounds + 1) / rounds
        if lost > 2 or (rounds >= (1 if traced else MIN_REPS) and next_end > seconds):
            return plain, with_trace, calib, lost


def selftest(spec):
    """Perturbs one reference value per workload and checks that the
    workload then fails its output check."""
    with open(REFERENCE) as f:
        ref = json.load(f)

    def bump(entry, key):
        entry[key] += 1

    def bump_first_shape(r):
        # The seed draws some of the first shape's provisionings; perturb
        # every one of them so a drawn one is always hit.
        first = sorted(k for k in r if k.endswith("|est"))[0].split("|")[0]
        for k in r:
            if k.startswith(first + "|") and k.endswith("|est"):
                bump(r[k], 0)

    perturb = {
        "gpt3-1k": lambda r: bump(r["gpt3-1k"], "makespan_ns"),
        "dse-loop": bump_first_shape,
        "cluster-scenario": lambda r: bump(r["cluster-scenario"]["jobs"][0], "finish_ns"),
    }
    ok = True
    for w in spec["workloads"]:
        name = w["name"]
        bad = json.loads(json.dumps(ref))
        perturb[name](bad)
        path = os.path.join(BUILD, "reference.perturbed.json")
        with open(path, "w") as f:
            json.dump(bad, f)
        rep = run_child(name, 1, False, path)
        detected = rep is not None and rep["failed"] > 0
        print("%-18s perturbed reference -> %s" % (
            name, "failed as expected: " + rep["errors"][0][:120] if detected else "NOT DETECTED"))
        ok = ok and detected
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        die("read BENCHMARK.json: %s" % e)
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    if not args.selftest and args.workload not in whys:
        die("unknown workload %r (want one of %s)" % (args.workload, ", ".join(whys)))

    build()
    if args.selftest:
        sys.exit(0 if selftest(spec) else 1)

    plain, traced, calib, lost = measure(args.workload, args.seed, args.seconds, args.trace == 1)
    reps = plain + traced
    if not plain or (args.trace == 1 and not traced) or not calib:
        die("no repetition or no calibration completed")
    # Reference-host seconds per host second over this run.
    speed = CALIB_NOMINAL_S / statistics.median(calib)
    attempted = sum(r["attempted"] for r in reps) + lost
    failed = sum(r["failed"] for r in reps) + lost

    # samples[name] lists one value per repetition; traced runs add the
    # tracing overhead and the model error.
    if args.trace == 0:
        defs = spec["end_to_end"]
        values = [e2e_values(r, speed) for r in plain]
        samples = {m["name"]: [v[m["name"]] for v in values] for m in defs}
    else:
        defs = spec["per_layer"]
        samples = {m["name"]: [r["layers"].get(m["name"], 0.0) for r in traced] for m in defs}
        samples["trace.wall_s"] = [r["wall_s"] for r in traced]
        untraced_wall = statistics.median(r["wall_s"] for r in plain)
        samples["trace.overhead_s"] = [statistics.median(samples["trace.wall_s"]) - untraced_wall]
        samples["model.fig4_mae_pct"] = [reps[0]["fig4_mae_pct"]]
        samples["host.calib_s"] = calib

    header = {
        "workload": args.workload, "why": whys[args.workload], "seed": args.seed,
        "trace": args.trace, "seconds": args.seconds,
        "repeats": {"untraced": len(plain), "traced": len(traced), "calibration_passes": len(calib),
                    "lost": lost},
        "calib_s": {"median": statistics.median(calib), "iqr_over_median": round(spread(calib), 4),
                    "nominal": CALIB_NOMINAL_S},
        "host_wall_s": statistics.median(r["wall_s"] for r in plain),
        "host_setup_s": statistics.median(r["setup_s"] for r in plain),
        "host": platform.node(), "nproc": os.cpu_count(), "gomaxprocs": reps[0]["gomaxprocs"],
        "go": reps[0]["go_version"], "commit": source_id(),
        "spread_iqr_over_median": {m["name"]: round(spread(samples[m["name"]]), 4) for m in defs},
    }
    print("# " + json.dumps(header))
    for r in reps:
        for e in r.get("errors", []):
            print("# output check: " + e)

    metrics = {}
    for m in defs:
        vs = samples[m["name"]]
        metrics[m["name"]] = {"value": statistics.median(vs), "unit": m["unit"]}
        print("%-26s %14.6g %-6s median of %d, IQR/median %.1f%%" % (
            m["name"], metrics[m["name"]]["value"], m["unit"], len(vs), 100 * spread(vs)))
    print("model error vs the Fig. 4 reference data: %.3f%% mean absolute" % reps[0]["fig4_mae_pct"])

    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
