#!/usr/bin/env python3
"""Build and drive the repository benchmark (see perfbench/README.md).

  python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
      One workload: builds workloads.exe and runs it in place of this
      process. The last stdout line is the JSON result.
  python3 perfbench/run.py [--seed N] [--seconds S] [--json FILE] [--spans FILE]
      Every workload of BENCHMARK.json, one after another, each in its own
      child process, untraced and then traced. Prints every metric, writes
      the combined result to --json and the traced spans (JSONL) to
      --spans. Exits 1 if any correctness check failed.
  python3 perfbench/run.py --compare OLD.json NEW.json
      One row per (workload, metric) of two --json results, judged against
      BENCHMARK.json's bounds. Exits 1 on a regression.
  python3 perfbench/run.py --smoke [--exe PATH]
      Every workload at 1/20 size, one run, untraced and traced. Exits 1 on
      a failed correctness check, or on a metric BENCHMARK.json names that
      the program does not report.
"""

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_json(path):
    with open(path) as f:
        return json.load(f)


def benchmark():
    return load_json(os.path.join(ROOT, "BENCHMARK.json"))


def build():
    """Build workloads.exe from source; exit without a result if that fails."""
    dune = shutil.which("dune")
    cmd = [dune] if dune else ["opam", "exec", "--", "dune"]
    cmd += ["build", "--root", ROOT, "--display", "quiet", "./perfbench/workloads.exe"]
    try:
        code = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode
    except OSError as e:
        sys.exit(f"perfbench: cannot run dune: {e}")
    if code != 0:
        sys.exit("perfbench: build failed")
    return os.path.join(ROOT, "_build", "default", "perfbench", "workloads.exe")


def child_args(name, seed, seconds, trace):
    return ["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]


def run_child(exe, args):
    """Run workloads.exe: (exit code, human lines, result, detail, stderr)."""
    p = subprocess.run([exe] + args, capture_output=True, text=True)
    lines = p.stdout.splitlines()
    result, detail = None, {}
    try:
        result = json.loads(lines[-1])
        for line in lines:
            if line.startswith("detail "):
                detail = json.loads(line[len("detail "):])
    except (IndexError, ValueError):
        pass
    human = [line for line in lines[:-1] if not line.startswith("detail ")]
    return p.returncode, human, result, detail, p.stderr


def machine():
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(line.split(":", 1)[1].strip()
                       for line in f if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"cpu": cpu, "cpus": os.cpu_count(), "system": platform.platform()}


def suite(args, exe):
    bench = benchmark()
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    if args.spans:
        open(args.spans, "w").close()
    out = {"seed": args.seed, "seconds": seconds, "machine": machine(), "workloads": {}}
    ok = True
    for w in bench["workloads"]:
        name = w["name"]
        entry = out["workloads"][name] = {"correct": True, "attempted": 0, "failed": 0}
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            extra = ["--spans", os.path.abspath(args.spans)] if trace and args.spans else []
            code, human, result, detail, err = run_child(
                exe, child_args(name, args.seed, seconds, trace) + extra)
            print("\n".join(human), flush=True)
            sys.stderr.write(err)
            if code != 0 or result is None or not result["correct"]:
                ok = entry["correct"] = False
            if result is None:
                continue
            entry["attempted"] += result["attempted"]
            entry["failed"] += result["failed"]
            entry[section] = {m: dict(v, **{k: detail[m][k] for k in ("q1", "q3", "n")})
                              if m in detail else v
                              for m, v in result["metrics"].items()}
    print(f"\n{'workload':18} {'metric':14} {'median':>14} {'q1':>14} {'q3':>14}  unit")
    for name, entry in out["workloads"].items():
        for m, v in entry.get("end_to_end", {}).items():
            print(f"{name:18} {m:14} {v['value']:14.6g} {v.get('q1', v['value']):14.6g} "
                  f"{v.get('q3', v['value']):14.6g}  {v['unit']}")
    if args.json:
        with open(args.json, "w") as f:
            json.dump(out, f, indent=1)
            f.write("\n")
    return 0 if ok else 1


def quartiles(s):
    return s.get("q1", s["value"]), s.get("q3", s["value"])


def verdict(metric, o, n):
    """(delta, verdict, regressed) of one end-to-end metric, NEW against OLD."""
    delta = (n["value"] - o["value"]) / o["value"]
    worse = delta if metric["better"] == "lower" else -delta
    spread = max((q3 - q1) / s["value"] for s in (o, n) for q1, q3 in [quartiles(s)])
    if worse > metric["bound"]:
        return delta, "REGRESSION (bound %.0f%%)" % (100 * metric["bound"]), True
    if spread > metric["bound"]:
        # Runs this noisy cannot show that nothing changed.
        return delta, "unresolved (quartile spread %.1f%%)" % (100 * spread), False
    if -worse > metric["bound"]:
        return delta, "better by more than the bound", False
    return delta, "unchanged within the bound", False


def compare(old_path, new_path):
    bench = benchmark()
    old, new = load_json(old_path), load_json(new_path)

    def get(result, name, section, metric):
        return result["workloads"].get(name, {}).get(section, {}).get(metric)

    regressed = False
    print(f"{'workload':18} {'metric':14} {'old':>12} {'old q1..q3':>25} {'new':>12} "
          f"{'new q1..q3':>25} {'delta':>8}  verdict")
    for w in bench["workloads"]:
        for m in bench["end_to_end"]:
            o = get(old, w["name"], "end_to_end", m["name"])
            n = get(new, w["name"], "end_to_end", m["name"])
            row = f"{w['name']:18} {m['name']:14}"
            if n is None:
                print(f"{row} missing from {new_path}")
                regressed = True
            elif o is None:
                print(f"{row} {'':>12} {'':>25} {n['value']:12.6g} new")
            else:
                delta, text, bad = verdict(m, o, n)
                regressed |= bad
                oq, nq = ("%.6g..%.6g" % quartiles(s) for s in (o, n))
                print(f"{row} {o['value']:12.6g} {oq:>25} {n['value']:12.6g} {nq:>25} "
                      f"{100 * delta:7.1f}%  {text}")
    print("\nper-layer (no bound):")
    for w in bench["workloads"]:
        for m in bench["per_layer"]:
            o = get(old, w["name"], "per_layer", m["name"])
            n = get(new, w["name"], "per_layer", m["name"])
            if o is None or n is None or o["value"] == n["value"] == 0:
                continue
            delta = ("%7.1f%%" % (100 * (n["value"] - o["value"]) / o["value"])
                     if o["value"] else "    new")
            print(f"{w['name']:18} {m['name']:34} {o['value']:14.6g} {n['value']:14.6g} "
                  f"{delta}")
    return 1 if regressed else 0


def smoke(exe):
    bench = benchmark()
    failures = []
    for w in bench["workloads"]:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            code, _, result, _, err = run_child(
                exe, child_args(w["name"], 1, 0, trace) + ["--smoke"])
            where = f"{w['name']} --trace {trace}"
            if code != 0 or result is None:
                failures.append(f"{where}: exit {code}\n{err}")
                continue
            want = {m["name"]: m["unit"] for m in bench[section]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            problems = []
            if not result["correct"]:
                problems.append("correctness check failed: " + err.strip())
            if result["failed"] != 0 or result["attempted"] < 1:
                problems.append(
                    f"attempted {result['attempted']}, failed {result['failed']}")
            missing, extra = sorted(set(want) - set(got)), sorted(set(got) - set(want))
            if missing:
                problems.append("missing metrics " + ", ".join(missing))
            if extra:
                problems.append("metrics not in BENCHMARK.json " + ", ".join(extra))
            units = sorted(k for k in set(want) & set(got) if want[k] != got[k])
            if units:
                problems.append("units differ for " + ", ".join(units))
            print(f"bench-smoke {where}: " + ("; ".join(problems) or "ok"))
            failures += [f"{where}: {p}" for p in problems]
    for f in failures:
        print("FAILED " + f, file=sys.stderr)
    return 1 if failures else 0


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", choices=["0", "1"], default="0")
    p.add_argument("--spans", help="write the traced spans (JSONL) here")
    p.add_argument("--json", help="suite mode: write the combined result here")
    p.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--exe", help="a built workloads.exe (skips the build)")
    args = p.parse_args()
    if args.compare:
        return compare(*args.compare)
    exe = os.path.abspath(args.exe) if args.exe else build()
    if args.smoke:
        return smoke(exe)
    if args.workload:
        seconds = args.seconds if args.seconds is not None else benchmark()["run_seconds"]
        argv = [exe] + child_args(args.workload, args.seed, seconds, args.trace)
        if args.spans:
            argv += ["--spans", args.spans]
        os.execv(exe, argv)
    return suite(args, exe)


if __name__ == "__main__":
    sys.exit(main())
