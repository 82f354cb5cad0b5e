#!/usr/bin/env python3
"""Where one perfbench run spends its host CPU, per function.

Builds a small SIGPROF stack sampler (scripts/host_profile_sampler.cc)
into .bench_build/host_profile/, builds perfbench as perfbench/run.py
does, runs the perfbench binary once with the sampler preloaded and
prints each function's self and inclusive share of the run phase:

    python3 scripts/host_profile.py --workload tpcc --seed 1 --seconds 5

The run phase is what perfbench charges to cpu_us_per_txn: a sample
counts when perfbench's thread-CPU clock brackets it (the sampler
interposes clock_gettime to see the brackets) and its stack holds the
event loop, which leaves out setup, the calibration kernel that runs
after each slice (also bracketed, but off the event loop), the drain and
the verification (on the event loop, but not bracketed).
Self share: samples whose innermost frame is the function. Inclusive
share: samples with the function anywhere on the stack (once per
sample). Inlined functions are reported under their own names.

--mode alloc samples heap allocations instead of CPU time (every
--every-th call of malloc, calloc or realloc) and prints the same two
shares per allocating function: which code allocates during the run.

--focus FUNC prints, in place of the two tables, one function's
breakdown: its self and inclusive shares, then its callers (the frame
just outside its outermost occurrence on each stack) and its direct
callees (the frame just inside its innermost occurrence, or "(self)"),
each as a share of all run-phase samples. FUNC matches a function name
as the tables print it, or any name that ends in "::FUNC":

    python3 scripts/host_profile.py --workload ycsb --focus \
        MiddlewareNode::PlanAndDispatchRound --mode alloc

The perfbench binary and its sources are not modified: the sampler is
an LD_PRELOAD library. Needs g++, addr2line and c++filt; perf and
valgrind are not used.
"""

import argparse
import collections
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".bench_build", "host_profile")
SAMPLER_SRC = os.path.join(ROOT, "scripts", "host_profile_sampler.cc")
SAMPLER_LIB = os.path.join(OUT_DIR, "sampler.so")

# A bracketed sample is in the run phase when its stack holds this frame.
RUN_PHASE_FRAME = "EventLoop::RunUntil("


def build_sampler():
    os.makedirs(OUT_DIR, exist_ok=True)
    if (os.path.isfile(SAMPLER_LIB) and
            os.path.getmtime(SAMPLER_LIB) >= os.path.getmtime(SAMPLER_SRC)):
        return
    subprocess.run(["g++", "-O2", "-g", "-shared", "-fPIC", "-o", SAMPLER_LIB,
                    SAMPLER_SRC, "-ldl"], check=True)


def build_perfbench():
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import run as perfbench_run  # perfbench/run.py
    perfbench_run.build()
    return perfbench_run.BINARY


def parse(path):
    """Returns (header, [(timed, addresses leaf first)], address info)."""
    header, stacks, info = "", [], {}
    with open(path) as f:
        for line in f:
            if line.startswith("#"):
                header = line[1:].strip()
            elif line.startswith("S "):
                parts = line.split()
                stacks.append((parts[1] == "1",
                               tuple(int(a, 16) for a in parts[3:])))
            elif line.startswith("A "):
                parts = line.rstrip("\n").split(" ", 4)
                info[int(parts[1], 16)] = (int(parts[2], 16), parts[3],
                                           parts[4] if len(parts) > 4 else "")
    return header, stacks, info


def is_pie(path):
    with open(path, "rb") as f:
        head = f.read(18)
    return head[16] == 3  # e_type ET_DYN


def symbolize(stacks, info, binary):
    """Maps (address, is_leaf) to its function names, innermost first:
    the inline chain addr2line reports for the main binary, the dynamic
    symbol for a shared library."""
    names = {}
    wanted = {}  # object path -> {lookup address: [keys]}
    for _, stack in stacks:
        for depth, addr in enumerate(stack):
            key = (addr, depth == 0)
            if key in names:
                continue
            base, obj, sym = info.get(addr, (0, "-", ""))
            if obj in ("-", binary) or os.path.realpath(obj) == binary:
                obj = binary
            elif sym:
                names[key] = [sym]
                continue
            else:
                names[key] = ["[%s]" % os.path.basename(obj)]
                continue
            # A return address points past its call: look up the call.
            lookup = addr if depth == 0 else addr - 1
            if is_pie(obj):
                lookup -= base
            wanted.setdefault(obj, {}).setdefault(lookup, []).append(key)
            names[key] = None
    for obj, lookups in wanted.items():
        order = sorted(lookups)
        # -a prints each address before its inline chain of
        # (function, file:line) pairs.
        proc = subprocess.run(
            ["addr2line", "-a", "-f", "-C", "-i", "-e", obj],
            input="".join("%x\n" % a for a in order),
            capture_output=True, text=True, check=True)
        chains = []
        lines = proc.stdout.splitlines()
        i = 0
        while i < len(lines):
            if lines[i].startswith("0x"):
                chains.append([])
                i += 1
                continue
            chains[-1].append(lines[i])
            i += 2
        for lookup, chain in zip(order, chains):
            for key in lookups[lookup]:
                names[key] = chain or ["??"]
    dynamic = [k for k, v in names.items() if v and v[0] and
               not v[0].startswith("[") and "(" not in v[0]]
    if dynamic:
        proc = subprocess.run(["c++filt"], input="\n".join(
            names[k][0] for k in dynamic), capture_output=True, text=True)
        for key, name in zip(dynamic, proc.stdout.splitlines()):
            names[key] = [name]
    return names


def strip_args(name):
    """'ns::f(int) const' -> 'ns::f', keeping template arguments."""
    depth = 0
    for i, ch in enumerate(name):
        if ch in "<":
            depth += 1
        elif ch == ">":
            depth -= 1
        elif ch == "(" and depth == 0 and i > 0:
            return name[:i]
    return name


def matches(func, focus):
    return func == focus or func.endswith("::" + focus)


def print_focus(focus, stacks, run_samples):
    """One function's callers and direct callees; `stacks` holds each
    run-phase sample's stripped frame names, innermost first."""
    callers = collections.Counter()
    callees = collections.Counter()
    incl = 0
    for funcs in stacks:
        hits = [i for i, f in enumerate(funcs) if matches(f, focus)]
        if not hits:
            continue
        incl += 1
        outer, inner = hits[-1], hits[0]
        callers[funcs[outer + 1] if outer + 1 < len(funcs) else "(root)"] += 1
        callees[funcs[inner - 1] if inner > 0 else "(self)"] += 1
    if incl == 0:
        sys.exit("host_profile: no run-phase sample holds %s" % focus)
    print("\n%s: %.2f%% inclusive, %.2f%% self" %
          (focus, 100.0 * incl / run_samples,
           100.0 * callees["(self)"] / run_samples))
    for title, counts in (("caller", callers), ("direct callee", callees)):
        print("\n%7s  %s" % ("share%", title))
        for func, n in counts.most_common():
            print("%7.2f  %s" % (100.0 * n / run_samples, func))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=5)
    parser.add_argument("--mode", choices=("cpu", "alloc"), default="cpu")
    parser.add_argument("--hz", type=int, default=1000,
                        help="cpu mode: samples per CPU second")
    parser.add_argument("--every", type=int, default=16,
                        help="alloc mode: record one call in this many")
    parser.add_argument("--top", type=int, default=30)
    parser.add_argument("--focus", metavar="FUNC",
                        help="print FUNC's callers and direct callees")
    args = parser.parse_args()

    build_sampler()
    binary = os.path.realpath(build_perfbench())
    raw = os.path.join(OUT_DIR, "samples-%s-%d.txt" % (args.workload,
                                                       args.seed))
    env = dict(os.environ, LD_PRELOAD=SAMPLER_LIB, GEOTP_PROF_OUT=raw,
               GEOTP_PROF_MODE=args.mode, GEOTP_PROF_HZ=str(args.hz),
               GEOTP_PROF_EVERY=str(args.every))
    proc = subprocess.run(
        [binary, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", "0"],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        sys.exit("host_profile: perfbench exited with %d" % proc.returncode)
    commits = sum(int(line.split(" commits")[0].rsplit(" ", 1)[1])
                  for line in proc.stderr.splitlines()
                  if line.startswith("seed ") and " commits" in line)

    header, stacks, info = parse(raw)
    names = symbolize(stacks, info, binary)
    self_count = collections.Counter()
    incl_count = collections.Counter()
    run_stacks = []
    for timed, stack in stacks:
        if not timed:
            continue
        frames = []
        for depth, addr in enumerate(stack):
            frames.extend(names[(addr, depth == 0)] or ["??"])
        if not any(RUN_PHASE_FRAME in f for f in frames):
            continue
        funcs = [strip_args(f) for f in frames]
        run_stacks.append(funcs)
        self_count[funcs[0]] += 1
        for func in set(funcs):
            incl_count[func] += 1
    run_samples = len(run_stacks)

    unit = "CPU samples" if args.mode == "cpu" else "sampled allocations"
    print("%s seed %d, %d s: %d run-phase %s of %d (%s); perfbench "
          "printed %d commits over its episodes" %
          (args.workload, args.seed, args.seconds, run_samples, unit,
           len(stacks), header, commits))
    if run_samples == 0:
        sys.exit("host_profile: no run-phase samples")
    if args.focus:
        print_focus(args.focus, run_stacks, run_samples)
        return 0
    print("\n%7s %7s  %s" % ("self%", "incl%", "function (by self)"))
    for func, n in self_count.most_common(args.top):
        print("%7.2f %7.2f  %s" % (100.0 * n / run_samples,
                                   100.0 * incl_count[func] / run_samples,
                                   func))
    print("\n%7s %7s  %s" % ("incl%", "self%", "function (by inclusive)"))
    for func, n in incl_count.most_common(args.top):
        print("%7.2f %7.2f  %s" % (100.0 * n / run_samples,
                                   100.0 * self_count[func] / run_samples,
                                   func))
    return 0


if __name__ == "__main__":
    sys.exit(main())
