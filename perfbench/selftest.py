"""Self-test of the benchmark's output checks and trace counts.

    python3 perfbench/selftest.py

Run from the root of a kinchaos checkout; takes about half a minute.  It
shows that the per-run check trips on a flipped CSV byte, on a config whose
verdict fails and on a nonzero exit code (each makes the fail ratio
nonzero), that tracing leaves the CSVs unchanged, and that two traced runs
of the same code give identical counts.  Exits 1 on the first control that
does not behave.
"""

import json
import os
import shutil
import sys
import tempfile

import run as bench

SMALL = {
    "constants": "[experiment]\nrecipe = constants_table\n",
    "vfp": ("[experiment]\nrecipe = meanfield_decay\n[numerics]\n"
            "nx = 64\nnv = 64\nT = 0.5\nn_w2 = 64\n"),
    "coulomb": ("[experiment]\nrecipe = concentration\n[potential]\n"
                "v_family = quadratic\nw_family = mollified_coulomb\n"
                "w_a = 0.2\n[numerics]\nN_list = [8, 16, 32]\nn_mc = 4\n"
                "nx = 129\n"),
    "langevin": ("[experiment]\nrecipe = ergodicity\n[numerics]\n"
                 "N = 16\nT = 0.5\n"),
    # the quartic well fails uniform convexity (A2), so a verdict says FAIL
    # while the exit code stays 0
    "failing_verdict": ("[experiment]\nrecipe = assumptions\n[potential]\n"
                        "v_family = power_k\nv_k = 4\n"),
    "config_error": "[experiment]\nrecipe = no_such_recipe\n",
}

# per traced config, the layers that must see calls
EXERCISED = {
    "vfp": ("kinetic_pde.step_vfp", "equilibrium.interaction_convolution",
            "chaos_metrics.w2_exact.assign", "equilibrium.Axis.nodes"),
    "coulomb": ("harness.fanout", "chaos_metrics.error_statistics",
                "potentials.W.hess"),
    "langevin": ("dynamics.pairwise_force", "potentials.W.grad"),
}


class Controls:
    def __init__(self, root, work):
        self.env = bench.child_env(root)
        self.work = work
        self.n = 0

    def config(self, name):
        path = os.path.join(self.work, f"{name}.ini")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(SMALL[name])
        return path

    def launch(self, name, threads=1, traced=False):
        self.n += 1
        out_dir = os.path.join(self.work, f"run{self.n}")
        spans = os.path.join(self.work, f"spans{self.n}.jsonl") \
            if traced else None
        return bench.launch(self.config(name), 7, out_dir, threads, self.env,
                            120.0, spans=spans)


def expect(ok, text):
    print(("ok    " if ok else "FAIL  ") + text)
    if not ok:
        sys.exit(1)


def fail_ratio(runs):
    return sum(r.failed for r in runs) / len(runs)


def main():
    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    expect([m["name"] for m in declared["per_layer"]] == bench.PER_LAYER,
           "BENCHMARK.json lists the per-layer metrics that run.py reports")
    expect({m["name"] for m in declared["end_to_end"]} == set(bench.END_TO_END)
           and {w["name"] for w in declared["workloads"]}
           == set(bench.WORKLOADS),
           "BENCHMARK.json lists the end-to-end metrics and workloads")

    base = os.path.join(root, ".perfbench_work")
    os.makedirs(base, exist_ok=True)
    work = tempfile.mkdtemp(prefix="selftest-", dir=base)
    try:
        c = Controls(root, work)

        first, second = c.launch("constants"), c.launch("constants")
        ref = bench.check(first, None)
        bench.check(second, ref)
        expect(fail_ratio([first, second]) == 0,
               "two clean runs pass the check (fail ratio 0)")

        flipped = c.launch("constants")
        csv = sorted(f for f in os.listdir(flipped.out_dir)
                     if f.endswith(".csv"))[0]
        path = os.path.join(flipped.out_dir, csv)
        with open(path, "r+b") as fh:
            fh.seek(-2, os.SEEK_END)
            byte = fh.read(1)
            fh.seek(-2, os.SEEK_END)
            fh.write(bytes([byte[0] ^ 1]))
        bench.check(flipped, ref)
        expect(fail_ratio([first, second, flipped]) > 0
               and "CSV bytes differ" in " ".join(flipped.problems),
               f"a flipped byte in {csv} trips the check "
               f"(fail ratio {fail_ratio([first, second, flipped]):.2f})")

        bad = c.launch("failing_verdict")
        bench.check(bad, None)
        expect(bad.code == 0 and fail_ratio([bad]) == 1
               and "FAIL verdict" in " ".join(bad.problems),
               "a config whose verdict fails trips the check (exit code 0)")

        broken = c.launch("config_error")
        bench.check(broken, None)
        expect(broken.code == 2 and broken.failed,
               "a config error (exit code 2) trips the check")

        for name, exercised in EXERCISED.items():
            threads = 2 if name == "coulomb" else 1
            plain = c.launch(name, threads)
            traced = [c.launch(name, threads, traced=True) for _ in range(2)]
            ref = bench.check(plain, None)
            for run in traced:
                bench.check(run, ref)
            expect(not any(r.code or r.data is None for r in [plain] + traced)
                   and not any("CSV" in " ".join(r.problems) for r in traced),
                   f"{name}: traced runs write the same CSV bytes as an "
                   "untraced run")
            a, b = (r.data["counts"] for r in traced)
            expect(a == b, f"{name}: two traced runs agree on all {len(a)} "
                   "nonzero counts")
            idle = [n for n in exercised
                    if traced[0].data["counts"].get(n + ".calls", 0) == 0]
            expect(not idle, f"{name}: the traced run sees calls to "
                   + ", ".join(exercised))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
