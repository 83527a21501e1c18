#!/usr/bin/env python3
"""End-to-end specialization benchmark.

Builds perfbench/main.exe from source with dune, then:

  run.py --workload W --seed N --seconds S --trace 0|1 [knobs]
      measure one workload (arguments go to main.exe; see README.md)
  run.py --verify       recompute the golden digests with the Reference VM
  run.py --smoke        check emitted metric names/units against BENCHMARK.json
  run.py --set N --out FILE [--seconds S] [knobs]
      run every workload N times (seeds 1..N, trace 0) into a JSON-lines set
      and print each e2e metric's spread against its bound
  run.py --compare BASE NEW
      compare two sets: one row per workload x e2e metric, exit 1 on a
      regression

Run it from the repository root; everything it writes stays under it.
"""

import json
import os
import statistics
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "main.exe")


def spec():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def build():
    r = subprocess.run(
        ["dune", "build", "--root", ".", "--cache=disabled", "--display", "quiet",
         "./perfbench/main.exe"],
        stdout=sys.stderr)
    if r.returncode != 0:
        sys.exit(r.returncode or 1)


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def rel(x, base):
    return x / base if base else 0.0


def collect(n, out, extra):
    seconds = spec()["run_seconds"]
    if "--seconds" in extra:
        i = extra.index("--seconds")
        seconds = int(extra[i + 1])
        del extra[i:i + 2]
    names = [w["name"] for w in spec()["workloads"]]
    with open(out, "w") as f:
        for seed in range(1, n + 1):
            # rotate the workload order so no workload always runs first
            order = names[seed % len(names):] + names[:seed % len(names)]
            for w in order:
                args = [EXE, "--workload", w, "--seed", str(seed), "--seconds",
                        str(seconds), "--trace", "0"] + extra
                r = subprocess.run(args, stdout=subprocess.PIPE, text=True)
                lines = r.stdout.strip().splitlines()
                if r.returncode != 0 or len(lines) < 2:
                    sys.exit(f"run.py: {w} seed {seed} exited {r.returncode}")
                rec = {"workload": w, "seed": seed,
                       "meta": json.loads(lines[-2])["meta"],
                       "result": json.loads(lines[-1])}
                f.write(json.dumps(rec) + "\n")
                f.flush()
                print(f"[set] {w} seed {seed}: {rec['result']['metrics']}",
                      file=sys.stderr)
    return 0 if spreads(load(out)) else 1


def load(path):
    runs = {}
    with open(path) as f:
        for line in f:
            rec = json.loads(line)
            runs.setdefault(rec["workload"], []).append(rec)
    return runs


def values(recs, metric):
    return [r["result"]["metrics"][metric]["value"] for r in recs]


def spreads(runs):
    """Each metric's spread: IQR of the per-run values over their median,
    flagged WIDE unless under a third of the bound."""
    ok = True
    print(f"{'workload':<14} {'metric':<14} {'n':>3} {'median':>12} {'iqr/med':>8} "
          f"{'bound':>6}")
    for w, recs in runs.items():
        for m in spec()["end_to_end"]:
            xs = values(recs, m["name"])
            q1, q2, q3 = quartiles(xs)
            s = rel(q3 - q1, q2)
            flag = "" if s < m["bound"] / 3 or m["name"] == "setup_s" else "  WIDE"
            ok = ok and flag == ""
            print(f"{w:<14} {m['name']:<14} {len(xs):>3} {q2:>12.6g} {s:>8.4f} "
                  f"{m['bound']:>6}{flag}")
    return ok


def verdict(base, new, better, bound):
    """better / worse / within bound / unresolved, by the rule in README.md."""
    sign = 1.0 if better == "lower" else -1.0
    b1, bm, b3 = quartiles(base)
    n1, nm, n3 = quartiles(new)
    worse_by = sign * rel(nm - bm, bm)
    spread = max(rel(b3 - b1, bm), rel(n3 - n1, nm))
    new_wins = all(sign * (x - y) < 0 for x in new for y in base)
    new_loses = all(sign * (x - y) > 0 for x in new for y in base)
    if spread > bound:
        if new_wins:
            return "better"
        if new_loses and worse_by > bound:
            return "worse"
        return "unresolved"
    if worse_by > bound:
        return "worse"
    pairs = list(zip(base, new))
    wins = sum(1 for b, x in pairs if sign * (x - b) < 0)
    if -worse_by > rel(b3 - b1, bm) and wins >= 0.9 * len(pairs):
        return "better"
    return "within bound"


def compare(base_path, new_path):
    base, new = load(base_path), load(new_path)
    regressed = False
    print(f"{'workload':<14} {'metric':<14} {'base median [p25, p75]':<36} "
          f"{'new median [p25, p75]':<36} verdict")
    for w in base:
        if w not in new:
            print(f"{w:<14} missing from {new_path}")
            regressed = True
            continue
        if not all(r["result"]["correct"] for r in new[w]):
            print(f"{w:<14} incorrect output in {new_path}")
            regressed = True
        for m in spec()["end_to_end"]:
            b, n = values(base[w], m["name"]), values(new[w], m["name"])
            v = verdict(b, n, m["better"], m["bound"])
            regressed = regressed or v == "worse"
            cell = lambda q: f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"
            print(f"{w:<14} {m['name']:<14} {cell(quartiles(b)):<36} "
                  f"{cell(quartiles(n)):<36} {v}")
    return 1 if regressed else 0


def smoke():
    r = subprocess.run([EXE, "--smoke"], stdout=subprocess.PIPE, text=True)
    if r.returncode != 0:
        return r.returncode
    emitted = json.loads(r.stdout.strip().splitlines()[-1])["workloads"]
    s = spec()
    ok = sorted(emitted) == sorted(w["name"] for w in s["workloads"])
    for kind in ("end_to_end", "per_layer"):
        declared = sorted((m["name"], m["unit"]) for m in s[kind])
        for w, sets in emitted.items():
            got = sorted(tuple(x) for x in sets[kind])
            if got != declared:
                ok = False
                print(f"smoke: {w} {kind}: emitted-only {sorted(set(got) - set(declared))}"
                      f", declared-only {sorted(set(declared) - set(got))}")
    print("smoke: ok" if ok else "smoke: MISMATCH")
    return 0 if ok else 1


def main(argv):
    if argv[:1] == ["--compare"] and len(argv) == 3:
        return compare(argv[1], argv[2])
    build()
    if argv[:1] == ["--smoke"]:
        return smoke()
    if argv[:1] == ["--set"] and len(argv) >= 4 and argv[2] == "--out":
        return collect(int(argv[1]), argv[3], argv[4:])
    os.execv(EXE, [EXE] + argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
