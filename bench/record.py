"""Record a parent/change benchmark comparison as a committed BENCH file.

Runs k alternating pairs of ``perfbench/run.py`` on two source trees, one
workload at a time, and writes (or extends) ``BENCH_<label>.json``:

    python3 bench/record.py --label norm2_squaring --parent ../parent \\
        --change . --workload accuracy-n64 --pairs 10

Pair i runs both trees with ``--seed i``; even pairs run the parent first,
odd pairs the change, so drift in machine speed falls on both sides alike.
Each tree is benchmarked by its own ``perfbench/run.py``, from its own
directory. The file keeps every result line, each side's median and
quartiles per metric, how many pairs the change won per metric (higher or
lower is better as ``BENCHMARK.json`` declares), the environment block of
each side's details line, and a digest of each tree's ``src``. Running it
again with another workload (or with ``--trace 1``) adds an entry and
leaves the others alone. Stdlib only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def src_digest(tree: Path) -> str:
    """sha256 over the tree's src/**/*.py, names and bytes, in sorted order."""
    h = hashlib.sha256()
    for path in sorted((tree / "src").rglob("*.py")):
        h.update(path.relative_to(tree).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def run_side(tree: Path, workload: str, seed: int, seconds: float, trace: int):
    """(details, result) from one perfbench run of ``tree``."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"record: {' '.join(cmd)} in {tree} failed "
                         f"(exit {proc.returncode}):\n{proc.stderr}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def spread(values: list[float]) -> dict:
    """Median and quartiles (the inclusive method, so two values suffice)."""
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(pairs: list[dict], better: dict[str, str]) -> dict:
    out = {}
    for name in pairs[0]["change"]["metrics"]:
        vals = {side: [p[side]["metrics"][name]["value"] for p in pairs] for side in SIDES}
        entry = {side: spread(vals[side]) for side in SIDES}
        entry["unit"] = pairs[0]["change"]["metrics"][name]["unit"]
        if name in better:
            sign = 1.0 if better[name] == "higher" else -1.0
            entry["better"] = better[name]
            entry["change_wins"] = sum(sign * (c - p) > 0.0
                                       for p, c in zip(vals["parent"], vals["change"]))
            entry["pairs"] = len(pairs)
        out[name] = entry
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    pairs, environment = [], {}
    for i in range(args.pairs):
        pair = {"seed": i, "first": SIDES[i % 2]}
        for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
            details, result = run_side(trees[side], args.workload, i, args.seconds, args.trace)
            environment.setdefault(side, details["environment"])
            pair[side] = result
        pairs.append(pair)
        print(f"record: {args.workload} pair {i + 1}/{args.pairs} done", file=sys.stderr)

    out = ROOT / f"BENCH_{args.label}.json"
    doc = json.loads(out.read_text()) if out.is_file() else {"label": args.label, "runs": {}}
    key = args.workload + ("-trace" if args.trace else "")
    doc["runs"][key] = {
        "command": f"perfbench/run.py --workload {args.workload} --seed <pair> "
                   f"--seconds {args.seconds:g} --trace {args.trace}",
        "src_sha256": {side: src_digest(trees[side]) for side in SIDES},
        "environment": environment,
        "summary": summarize(pairs, better),
        "pairs": pairs,
    }
    out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
