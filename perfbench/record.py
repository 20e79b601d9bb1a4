"""Run the benchmark over several seeds, check its spreads, record a baseline.

    python3 perfbench/record.py [--out perfbench/baseline.json]

For each workload of ``BENCHMARK.json``, runs ``run.py`` once per seed in
``SEEDS`` with ``--trace 0``, and once with ``--trace 1`` on the first
seed. For each end-to-end metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and their distance as a
share of the median, against a third of the metric's bound in
``BENCHMARK.json``. With ``--out`` it also writes a baseline file with the
machine, the workloads and why they were chosen, the layer -> end-to-end
prediction table, the medians and a probe of raw simulator throughput and
memory. Exits 1 if a spread reaches a third of its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

from tracing import PREDICTIONS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Figures of the ad-hoc probe quoted in ROADMAP.md.
ROADMAP_PROBE = {"m_trials_per_s_jobs1": {"1": 8.7, "2": 4.4, "3": 2.3},
                 "jobs2_speedup": "1.5-1.8", "peak_mb_2m_trials_m2": 34.0}
SEEDS = range(1, 11)
PROBE_TRIALS = 2_000_000
PROBE_REPEATS = 5


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
           str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: outputs failed: {proc.stderr}")
    return result


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def machine() -> dict:
    import numpy
    import scipy

    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        fields = {f: (index / f).read_text().strip() for f in ("level", "type", "size")}
        caches[f"L{fields['level']} {fields['type']}"] = fields["size"]
    model = platform.machine()
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        names = [line.split(":", 1)[1].strip() for line in cpuinfo.read_text().splitlines()
                 if line.startswith("model name")]
        model = names[0] if names else model
    return {"nproc": os.cpu_count(), "processor": model, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__, "caches": caches}


def probe() -> dict:
    """Raw simulate_run throughput at the Table 2 points and MC3, and the
    tracemalloc peak of 2 M trials at m = 2, to set against ROADMAP.md."""
    sys.path.insert(0, str(ROOT / "src"))
    from urllc_mc import BlerPolicy, ChaseCombiningSpec, build_profile, simulate_run, solve_bler
    from urllc_mc.sim import Numerology

    policy, chase = BlerPolicy(), ChaseCombiningSpec()
    out = {"trials": PROBE_TRIALS, "repeats": PROBE_REPEATS,
           "m_trials_per_s_jobs1": {}, "m_trials_per_s_jobs2": {}}
    for m in (1, 2, 3):
        p_d = solve_bler("SC" if m == 1 else "MC", m, 1e-5, policy, chase).p_d
        profiles = [build_profile(p_d, policy, chase)] * m
        for jobs in (1, 2):
            rates = []
            for seed in range(PROBE_REPEATS):
                start = time.perf_counter()
                simulate_run(profiles, Numerology(), PROBE_TRIALS, seed, jobs=jobs)
                rates.append(PROBE_TRIALS / (time.perf_counter() - start) / 1e6)
            out[f"m_trials_per_s_jobs{jobs}"][str(m)] = statistics.median(rates)
        if m == 2:
            tracemalloc.start()
            simulate_run(profiles, Numerology(), PROBE_TRIALS, 0)
            out["peak_mb_2m_trials_m2"] = tracemalloc.get_traced_memory()[1] / 1e6
            tracemalloc.stop()
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="write the baseline JSON here")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    steady = True
    results = {}
    for workload in (w["name"] for w in bench["workloads"]):
        runs = [run_once(workload, seed, bench["run_seconds"], 0) for seed in SEEDS]
        e2e = {name: spread([r["metrics"][name]["value"] for r in runs]) for name in bounds}
        trace = run_once(workload, SEEDS[0], bench["run_seconds"], 1)
        layers = {name: m["value"] for name, m in trace["metrics"].items()}
        results[workload] = {"end_to_end": e2e, "per_layer": layers,
                             "attempted": sum(r["attempted"] for r in runs + [trace]),
                             "failed": sum(r["failed"] for r in runs + [trace])}
        print(f"{workload}: seeds {SEEDS[0]}..{SEEDS[-1]}")
        for name, s in e2e.items():
            limit = bounds[name] / 3.0
            ok = s["spread"] < limit
            steady &= ok
            print(f"  {name:<18} median {s['median']:<14.6g} q1 {s['q1']:<14.6g} "
                  f"q3 {s['q3']:<14.6g} spread {s['spread']:.4f} (< {limit:.4f}) "
                  f"{'ok' if ok else 'TOO WIDE'}")
    if args.out:
        baseline = {
            "note": "Measured by perfbench/record.py; figures hold for the machine below.",
            "date": time.strftime("%Y-%m-%d"),
            "machine": machine(),
            "run_seconds": bench["run_seconds"],
            "seeds": list(SEEDS),
            "workloads": {w["name"]: w["why"] for w in bench["workloads"]},
            "predictions": PREDICTIONS,
            "results": results,
            "probe": {"roadmap": ROADMAP_PROBE, "measured": probe()},
        }
        Path(args.out).write_text(json.dumps(baseline, indent=1) + "\n", encoding="utf-8")
    return 0 if steady else 1


if __name__ == "__main__":
    raise SystemExit(main())
