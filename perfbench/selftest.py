#!/usr/bin/env python3
"""Self-test of the repository benchmark, at tiny scale.

Run from the root of a checkout:

    python3 perfbench/selftest.py

For every workload it runs the benchmark untraced twice and traced
once with simulated windows shrunk tenfold, and checks that:

  * every metric BENCHMARK.json names is emitted, with its unit;
  * the runs are correct and no run failed;
  * the two untraced invocations and the traced one print identical
    fingerprints (set-up golden runs and the first timed pass);
  * the layer contrasts hold: the hw share of host ns/request is larger
    on paper_memcached than on fanout_hdsearch, and the svc share is
    larger on fanout_hdsearch and keyed_cache than on paper_memcached;
  * in a directory holding only BENCHMARK.json and perfbench/, the
    benchmark exits nonzero without printing a result.

Exits nonzero on the first failed check. Takes about two minutes
(most of it the first build).
"""

import json
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 11


def check(ok, what):
    print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
    if not ok:
        sys.exit(1)


def invoke(cwd, workload, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace),
           "--scale", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=900, check=False)


def run(workload, trace):
    proc = invoke(ROOT, workload, trace)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
    check(proc.returncode == 0, f"{workload} trace={trace} exits 0")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    fps = [ln for ln in lines if ln.startswith("fingerprint ")]
    check(len(fps) == 1, f"{workload} trace={trace} prints a fingerprint")
    return result, fps[0]


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    shares = {}
    for wl in names:
        first, fp1 = run(wl, 0)
        second, fp2 = run(wl, 0)
        traced, fpt = run(wl, 1)
        for result, kind in ((first, "end_to_end"), (traced, "per_layer")):
            check(result["correct"] and result["failed"] == 0
                  and result["attempted"] >= 1,
                  f"{wl} {kind} run correct, none failed")
            for m in spec[kind]:
                got = result["metrics"].get(m["name"])
                check(got is not None and got["unit"] == m["unit"],
                      f"{wl} emits {m['name']} in {m['unit']}")
            check(set(result["metrics"]) == {m["name"] for m in spec[kind]},
                  f"{wl} emits exactly the {kind} metrics")
        check(fp1 == fp2, f"{wl} two invocations, same fingerprints")
        check(fp1 == fpt, f"{wl} traced and untraced, same fingerprints")
        shares[wl] = {k: traced["metrics"][k]["value"]
                      for k in ("hw.host_share", "svc.host_share")}

    hw = {wl: s["hw.host_share"] for wl, s in shares.items()}
    svc = {wl: s["svc.host_share"] for wl, s in shares.items()}
    check(hw["paper_memcached"] > hw["fanout_hdsearch"],
          f"hw share paper_memcached {hw['paper_memcached']:.3f} > "
          f"fanout_hdsearch {hw['fanout_hdsearch']:.3f}")
    for wl in ("fanout_hdsearch", "keyed_cache"):
        check(svc[wl] > svc["paper_memcached"],
              f"svc share {wl} {svc[wl]:.3f} > paper_memcached "
              f"{svc['paper_memcached']:.3f}")

    # Only the benchmark's own files: it must refuse, not report.
    bare = ROOT / ".bench_build" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy2(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench")
    proc = invoke(bare, names[0], 0)
    shutil.rmtree(bare, ignore_errors=True)
    printed = proc.stdout.strip().splitlines()
    check(proc.returncode != 0 and not any(
        ln.startswith("{") for ln in printed),
        "without the simulator sources it exits nonzero, no result")
    print("selftest passed")


if __name__ == "__main__":
    main()
