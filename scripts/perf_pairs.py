#!/usr/bin/env python3
"""Paired perfbench comparison of two git revisions.

Applies the pairing rule of a performance claim: run N pairs of
(parent, change) per workload with the same benchmark settings,
alternating which side runs first, and report each pair's ratio of
the claimed metric (parent/change for a lower-is-better metric such as
cpu_us_per_txn, change/parent otherwise, so above 1 means the change is
better), each side's median and quartiles, and how many pairs the change
won.

    python3 scripts/perf_pairs.py --parent HEAD~1 --change HEAD \\
        --workload replicated --pairs 10 --seconds 20

Each revision is exported with `git archive` into .bench_build/pairs/<sha>/
and builds its own perfbench there (perfbench/run.py of that revision), so
the working tree is never touched and nothing needs the network. Pair i
runs seed --first-seed + i on both sides. With --seconds 1 both sides run
perfbench's minimum of 3 episodes, i.e. the same episodes; the script
reports each run's episode count and flags pairs whose counts differ.

The claim holds when the change wins at least nine tenths of the pairs
(ties count for neither side) and the medians differ by more than the
parent's interquartile range. Every other end-to-end metric in
BENCHMARK.json is reported as parent median -> change median against its
bound, and marked WORSE when the change's median is worse by more than
the bound. Exits 1 when the claim does not hold, a row is WORSE, or a run
is not correct.

--same-commits checks bit-identity instead of a claim: it compares the
per-seed "seed N: ... K commits" lines perfbench prints on stderr for
parent and change in every pair, reports each difference, and exits 1 on
any (or on a WORSE row, or when a run is not correct), whatever the
claimed metric did. A side that fit more episodes into its run time
printed more lines: only the seeds both sides ran are compared, and the
difference in length is reported:

    python3 scripts/perf_pairs.py --parent HEAD~1 --change HEAD \\
        --workload ycsb --workload tpcc --workload hotspot \\
        --pairs 3 --seconds 1 --same-commits
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PAIRS_DIR = os.path.join(ROOT, ".bench_build", "pairs")
EPISODES_RE = re.compile(r": (\d+) episodes in ")
COMMITS_RE = re.compile(r"^seed (\d+): setup .*?, (\d+) commits,", re.M)


def git(*args):
    return subprocess.run(["git", "-C", ROOT] + list(args), check=True,
                          capture_output=True, text=True).stdout.strip()


def checkout(rev):
    """Exports `rev` once into .bench_build/pairs/<sha>; returns the dir."""
    sha = git("rev-parse", "--verify", rev + "^{commit}")
    path = os.path.join(PAIRS_DIR, sha[:12])
    if not os.path.isdir(os.path.join(path, "perfbench")):
        os.makedirs(path, exist_ok=True)
        archive = subprocess.Popen(["git", "-C", ROOT, "archive", sha],
                                   stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", path], stdin=archive.stdout,
                       check=True)
        if archive.wait() != 0:
            sys.exit("perf_pairs: git archive %s failed" % rev)
    return sha, path


def run(path, workload, seed, seconds):
    """One perfbench run in checkout `path`: (result JSON, episode count,
    its per-seed (seed, commits) lines)."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=path, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        sys.exit("perf_pairs: perfbench failed in %s" % path)
    match = EPISODES_RE.search(proc.stderr)
    return (json.loads(proc.stdout.strip().splitlines()[-1]),
            int(match.group(1)) if match else -1,
            COMMITS_RE.findall(proc.stderr))


def quartiles(values):
    """(q1, median, q3), inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def compare(workload, args, sides, metrics):
    """Runs the pairs of one workload; returns True if the claim holds
    (with --same-commits: if every pair printed the same commit lines)."""
    claimed = args.metric
    lower_is_better = metrics[claimed]["better"] == "lower"
    values = {"parent": {}, "change": {}}
    ok = True
    print("\n== %s: %d pairs, %d s, seeds %d..%d, metric %s ==" % (
        workload, args.pairs, args.seconds, args.first_seed,
        args.first_seed + args.pairs - 1, claimed))
    print("pair  seed  first   parent    change   ratio  episodes")
    wins = 0
    identical = True
    for i in range(args.pairs):
        seed = args.first_seed + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        runs = {}
        for side in order:
            runs[side] = run(sides[side], workload, seed, args.seconds)
            result = runs[side][0]
            if not result["correct"] or result["failed"] != 0:
                print("  %s seed %d: correct=%s failed=%d" % (
                    side, seed, result["correct"], result["failed"]))
                ok = False
            for name, metric in result["metrics"].items():
                values[side].setdefault(name, []).append(metric["value"])
        p = runs["parent"][0]["metrics"][claimed]["value"]
        c = runs["change"][0]["metrics"][claimed]["value"]
        ratio = p / c if lower_is_better else c / p
        wins += ratio > 1.0
        episodes = "%d/%d" % (runs["parent"][1], runs["change"][1])
        if runs["parent"][1] != runs["change"][1]:
            episodes += " (differ)"
        print("%4d  %4d  %-6s %8.3f  %8.3f  %5.3fx  %s" % (
            i + 1, seed, order[0], p, c, ratio, episodes))
        if args.same_commits:
            parent_lines, change_lines = runs["parent"][2], runs["change"][2]
            common = min(len(parent_lines), len(change_lines))
            if len(parent_lines) != len(change_lines):
                print("  commit lines: parent %d, change %d; comparing the "
                      "first %d seeds" % (len(parent_lines),
                                          len(change_lines), common))
            if parent_lines[:common] != change_lines[:common]:
                identical = False
                print("  commit lines differ: parent %s, change %s" % (
                    parent_lines[:common], change_lines[:common]))

    pq1, pmed, pq3 = quartiles(values["parent"][claimed])
    cq1, cmed, cq3 = quartiles(values["change"][claimed])
    ratio = pmed / cmed if lower_is_better else cmed / pmed
    gap = pmed - cmed if lower_is_better else cmed - pmed
    holds = wins * 10 >= 9 * args.pairs and gap > pq3 - pq1
    print("parent median %.3f (q1 %.3f, q3 %.3f)" % (pmed, pq1, pq3))
    print("change median %.3f (q1 %.3f, q3 %.3f)" % (cmed, cq1, cq3))
    print("median ratio %.3fx; change won %d/%d; median gap %.3f vs parent "
          "IQR %.3f: claim %s" % (ratio, wins, args.pairs, gap, pq3 - pq1,
                                  "holds" if holds else "NOT met"))
    print("other end-to-end metrics (parent median -> change median):")
    within_bounds = True
    for name, spec in metrics.items():
        if name == claimed or name not in values["parent"]:
            continue
        pm = statistics.median(values["parent"][name])
        cm = statistics.median(values["change"][name])
        worse = (cm - pm) if spec["better"] == "lower" else (pm - cm)
        rel = worse / pm if pm else 0.0
        beyond = rel > spec["bound"]
        within_bounds &= not beyond
        print("  %-16s %12.4f -> %12.4f %-6s worse by %+.1f%% (bound %.0f%%)"
              "%s" % (name, pm, cm, spec["unit"], 100 * rel,
                      100 * spec["bound"], "  WORSE" if beyond else ""))
    if args.same_commits:
        print("per-seed commit lines: %s" % (
            "identical in every pair" if identical else "DIFFER"))
        return identical and within_bounds and ok
    return holds and within_bounds and ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="base revision")
    parser.add_argument("--change", required=True, help="changed revision")
    parser.add_argument("--workload", action="append", required=True,
                        help="perfbench workload (repeatable)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--metric", default="cpu_us_per_txn")
    parser.add_argument("--same-commits", action="store_true",
                        help="exit 1 unless parent and change print the "
                        "same per-seed commit lines in every pair")
    args = parser.parse_args()
    if args.pairs < 1 or args.seconds < 1:
        sys.exit("perf_pairs: --pairs and --seconds must be positive")

    sides = {}
    shas = {}
    for side in ("parent", "change"):
        shas[side], sides[side] = checkout(getattr(args, side))
    if git("diff", "--name-only", shas["parent"], shas["change"], "--",
           "perfbench", "BENCHMARK.json"):
        print("warning: perfbench/ or BENCHMARK.json differ between the "
              "revisions; the pairs do not run identical benchmark code")
    with open(os.path.join(sides["change"], "BENCHMARK.json")) as f:
        metrics = {m["name"]: m for m in json.load(f)["end_to_end"]}
    if args.metric not in metrics:
        sys.exit("perf_pairs: %s is not an end-to-end metric" % args.metric)
    print("parent %s, change %s" % (shas["parent"][:12], shas["change"][:12]))
    all_hold = True
    for workload in args.workload:
        all_hold &= compare(workload, args, sides, metrics)
    return 0 if all_hold else 1


if __name__ == "__main__":
    sys.exit(main())
