"""Layered benchmark of `kinchaos run` on three recipe workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from ./src.
Closed loop, one client: each measured run is a fresh process (child.py) that
imports kinchaos, parses the workload config and executes `kinchaos run` with
--seed N.  Runs follow one another until S seconds have passed.  Every run is
checked: exit code 0, every verdict in report.json PASS, and CSV bytes equal
to the first run of the invocation (for coulomb_concentration, to a
--threads 1 reference run).  A run that fails any check counts in `failed`.

--trace 0 reports the end-to-end metrics (medians over the runs).  --trace 1
alternates untraced and traced runs and reports the per-layer metrics of the
traced ones; see README.md for the list and how to read them.  The last line
of standard output is the JSON result.
"""

import argparse
import hashlib
import itertools
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))

# layer metrics each workload must exercise; a traced run in which one of
# them saw no call fails
_HARNESS = ("harness.run_experiment", "harness.write_report")
WORKLOADS = {
    "vfp_decay": {
        "config": "vfp_decay.ini", "threads": 1, "reference_threads": None,
        "exercises": _HARNESS + (
            "kinetic_pde.step_vfp", "kinetic_pde.mean_field_force",
            "kinetic_pde.free_energy", "kinetic_pde.weighted_fisher",
            "kinetic_pde.relative_entropy_grid",
            "equilibrium.interaction_convolution",
            "equilibrium.solve_rho_infty", "equilibrium.formal_equilibrium",
            "equilibrium.GridDensity.marginal_x",
            "equilibrium.GridDensity.sample_phase", "equilibrium.Axis.nodes",
            "equilibrium.GridDensity.init", "chaos_metrics.w2_exact.assign",
            "potentials.W.grad", "potentials.W.value", "potentials.V.grad"),
    },
    "coulomb_concentration": {
        "config": "coulomb_concentration.ini", "threads": 2,
        "reference_threads": 1,
        "exercises": _HARNESS + (
            "harness.fanout", "equilibrium.interaction_convolution",
            "equilibrium.solve_rho_infty", "dynamics.sample_f_infty",
            "dynamics.PhaseEnsemble.init", "potentials.W.grad",
            "potentials.W.hess", "chaos_metrics.error_statistics",
            "chaos_metrics.mean_field_tables",
            "chaos_metrics.concentration_check"),
    },
    "langevin_particles": {
        "config": "langevin_particles.ini", "threads": 1,
        "reference_threads": None,
        "exercises": _HARNESS + (
            "dynamics.step_particle_system", "dynamics.pairwise_force",
            "dynamics.PhaseEnsemble.init", "potentials.W.grad",
            "potentials.V.grad", "chaos_metrics.w2_exact.assign"),
    },
}

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s",
              "peak_rss_mib": "MiB"}

PER_LAYER = [
    "harness.run_experiment.self_s",
    "harness.write_report.self_s", "harness.write_report.bytes",
    "harness.fanout.idle_s",
    "kinetic_pde.step_vfp.calls", "kinetic_pde.step_vfp.self_s",
    "kinetic_pde.step_vfp.cell_steps",
    "kinetic_pde.mean_field_force.calls", "kinetic_pde.mean_field_force.self_s",
    "kinetic_pde.free_energy.calls", "kinetic_pde.free_energy.self_s",
    "kinetic_pde.weighted_fisher.calls", "kinetic_pde.weighted_fisher.self_s",
    "kinetic_pde.relative_entropy_grid.self_s",
    "equilibrium.interaction_convolution.calls",
    "equilibrium.interaction_convolution.self_s",
    "equilibrium.interaction_convolution.kernel_entries",
    "equilibrium.solve_rho_infty.self_s",
    "equilibrium.solve_rho_infty.iterations",
    "equilibrium.formal_equilibrium.calls",
    "equilibrium.formal_equilibrium.self_s",
    "equilibrium.GridDensity.marginal_x.calls",
    "equilibrium.GridDensity.marginal_x.self_s",
    "equilibrium.GridDensity.sample_phase.self_s",
    "equilibrium.Axis.nodes.calls", "equilibrium.GridDensity.init.calls",
    "dynamics.step_particle_system.calls",
    "dynamics.step_particle_system.self_s",
    "dynamics.pairwise_force.calls", "dynamics.pairwise_force.self_s",
    "dynamics.pairwise_force.pairs",
    "dynamics.PhaseEnsemble.init.calls",
    "dynamics.sample_f_infty.calls", "dynamics.sample_f_infty.self_s",
    "potentials.W.grad.calls", "potentials.W.grad.self_s",
    "potentials.W.grad.points",
    "potentials.W.hess.calls", "potentials.W.hess.self_s",
    "potentials.W.hess.points",
    "potentials.W.value.self_s", "potentials.V.grad.self_s",
    "chaos_metrics.w2_exact.assign.calls",
    "chaos_metrics.w2_exact.assign.self_s",
    "chaos_metrics.w2_exact.assign.points",
    "chaos_metrics.error_statistics.calls",
    "chaos_metrics.error_statistics.self_s",
    "chaos_metrics.error_statistics.pairs",
    "chaos_metrics.mean_field_tables.calls",
    "chaos_metrics.mean_field_tables.self_s",
    "chaos_metrics.concentration_check.self_s",
    "trace.wall_s", "trace.overhead_s",
]

# quantities that are exact counts; every other per-layer metric is seconds
COUNTS = ("calls", "points", "pairs", "cell_steps", "kernel_entries",
          "iterations", "bytes")

# stop starting runs after this long, so the invocation ends within 180 s
LAUNCH_LIMIT_S = 120.0
RUN_LIMIT_S = 170.0

# BLAS and OpenMP pools stay at one thread, so that the harness's own
# --threads is the only parallelism
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def metric_unit(name):
    quantity = name.rsplit(".", 1)[1]
    if quantity == "bytes":
        return "B"
    return "count" if quantity in COUNTS else "s"


def child_env(root):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    for var in _THREAD_VARS:
        env[var] = "1"
    return env


class Run:
    """One child process: its exit code, measurements and check problems."""

    def __init__(self, code, data, out_dir, stderr, traced):
        self.code = code
        self.data = data            # child's JSON line, or None
        self.out_dir = out_dir
        self.stderr = stderr
        self.traced = traced
        self.layers = None          # per-layer metrics of a traced run
        self.problems = []

    @property
    def failed(self):
        return bool(self.problems)


def launch(config, seed, out_dir, threads, env, timeout, spans=None,
           setup_only=False):
    cmd = [sys.executable, os.path.join(HERE, "child.py"), config,
           "--seed", str(seed), "--out-dir", out_dir,
           "--threads", str(threads)]
    if spans is not None:
        cmd += ["--spans", spans]
    if setup_only:
        cmd.append("--setup-only")
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        run = Run(None, None, out_dir, "", spans is not None)
        run.problems.append(f"timed out after {timeout:.0f} s")
        return run
    data = None
    lines = proc.stdout.strip().splitlines()
    if lines:
        try:
            data = json.loads(lines[-1])
        except json.JSONDecodeError:
            data = None
    if data is not None:
        data["setup_s"] = data["ready"] - started
    return Run(proc.returncode, data, out_dir, proc.stderr, spans is not None)


def csv_digests(out_dir):
    out = {}
    for name in sorted(os.listdir(out_dir)):
        if name.endswith(".csv"):
            with open(os.path.join(out_dir, name), "rb") as fh:
                out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def check(run, reference):
    """Record what is wrong with a finished run; returns its CSV digests.

    `reference` maps CSV names to digests, or is None for the first run.
    """

    if run.problems:
        return None
    if run.code != 0:
        run.problems.append(f"exit code {run.code}")
    if run.data is None:
        run.problems.append("no measurement line")
    report = os.path.join(run.out_dir, "report.json")
    if not os.path.isfile(report):
        run.problems.append("no report.json")
        return None
    with open(report, encoding="utf-8") as fh:
        verdicts = json.load(fh)["verdicts"]
    failing = [v["name"] for v in verdicts if not v["passed"]]
    if failing:
        run.problems.append("FAIL verdict: " + ", ".join(failing))
    digests = csv_digests(run.out_dir)
    if not digests:
        run.problems.append("no CSV written")
    elif reference is not None and digests != reference:
        changed = sorted(k for k in set(digests) | set(reference)
                         if digests.get(k) != reference.get(k))
        run.problems.append("CSV bytes differ from reference: "
                            + ", ".join(changed))
    return digests


def layer_metrics(data):
    """Per-layer metric values from one traced run's measurement line."""

    out = {}
    for name in PER_LAYER:
        if name.startswith("trace."):
            continue
        layer, quantity = name.rsplit(".", 1)
        if name in data["seconds"]:
            out[name] = data["seconds"][name]
        elif quantity == "self_s":
            out[name] = data["self_s"].get(layer, 0.0)
        else:
            out[name] = data["counts"].get(name, 0)
    return out


def revision(root):
    """Git revision when the checkout is a repository, and a source digest."""

    rev = None
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                              cwd=root, capture_output=True, text=True,
                              timeout=30)
        lines = proc.stdout.splitlines()
        # a checkout nested in another repository is not that repository
        if proc.returncode == 0 and os.path.realpath(lines[0]) \
                == os.path.realpath(root):
            rev = lines[1]
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    pkg = os.path.join(root, "src", "kinchaos")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return rev, h.hexdigest()


def tail_summary(values):
    """Median, and the highest percentile with at least ten samples beyond."""

    samples = " ".join(f"{v:.4g}" for v in values)
    values = sorted(values)
    n = len(values)
    text = f"n={n} median={statistics.median(values):.6g}"
    if n >= 11:
        pct = 100.0 * (n - 10) / n
        text += f" p{pct:.1f}={values[n - 11]:.6g}"
    else:
        text += (f" max={values[-1]:.6g} (a tail percentile needs at least "
                 "11 samples)")
    return text + f" samples: {samples}"


def measure(workload, seed, seconds, trace, root, work_dir):
    """Run one workload.

    Returns (attempted runs, measured runs, set-up times, the warm-up's
    result).  Measured runs are the ones in the timed window; the reference
    run of a workload with `reference_threads` is checked and counted as
    attempted.
    """

    env = child_env(root)
    nproc = len(os.sched_getaffinity(0))
    threads = min(workload["threads"], nproc)
    config = os.path.join(HERE, "workloads", workload["config"])
    counter = itertools.count()
    start = time.monotonic()

    def one(threads_, traced=False, setup_only=False):
        out_dir = os.path.join(work_dir, f"run{next(counter)}")
        spans = os.path.join(work_dir, "spans.jsonl") if traced else None
        timeout = max(RUN_LIMIT_S - (time.monotonic() - start), 5.0)
        return launch(config, seed, out_dir, threads_, env, timeout,
                      spans=spans, setup_only=setup_only)

    # fills the interpreter's bytecode cache and the file cache, so the
    # first measured set-up is not the only cold one
    warm = one(threads, setup_only=True)
    if warm.data is None:
        print(f"perfbench: set-up failed (exit {warm.code}):\n{warm.stderr}",
              file=sys.stderr)
        return [], [], [], None
    setups = []
    attempted = []
    reference = None
    if workload["reference_threads"] is not None:
        ref = one(workload["reference_threads"])
        reference = check(ref, None)
        attempted.append(ref)

    measured = []
    window_end = time.monotonic() + seconds
    last = 0.0
    while True:
        now = time.monotonic()
        need = 2 if trace else 1
        # a run is started only if it is expected to end less than half a
        # run after the window, so the measured time stays near `seconds`
        if len(measured) >= need and (now + last / 2 >= window_end
                                      or now - start >= LAUNCH_LIMIT_S):
            break
        traced = trace and len(measured) % 2 == 1
        run = one(threads, traced=traced)
        last = time.monotonic() - now
        digests = check(run, reference)
        if reference is None and not run.failed:
            reference = digests
        if traced and run.data is not None and "counts" in run.data:
            run.layers = layer_metrics(run.data)
            idle = [n for n in workload["exercises"]
                    if run.data["counts"].get(n + ".calls", 0) == 0]
            if idle:
                run.problems.append("no calls to " + ", ".join(idle))
        shutil.rmtree(run.out_dir, ignore_errors=True)
        attempted.append(run)
        measured.append(run)
        if run.data is not None:
            setups.append(run.data["setup_s"])
        if not trace:
            # a set-up-only process after each run doubles the setup_s
            # samples and spreads them over the window
            extra = one(threads, setup_only=True)
            if extra.data is not None:
                setups.append(extra.data["setup_s"])
    return attempted, measured, setups, warm.data


def summarise(measured, setups, trace):
    timed = [r for r in measured if r.data is not None and "wall_s" in r.data]
    if trace:
        plain = [r for r in timed if not r.traced]
        traced = [r for r in timed if r.layers is not None]
        if not plain or not traced:
            return None
        metrics = {}
        for name in PER_LAYER:
            if name.startswith("trace."):
                continue
            vals = [r.layers[name] for r in traced]
            metrics[name] = (vals[0] if metric_unit(name) != "s"
                             else statistics.median(vals))
        traced_wall = statistics.median(r.data["wall_s"] for r in traced)
        plain_wall = statistics.median(r.data["wall_s"] for r in plain)
        metrics["trace.wall_s"] = traced_wall
        metrics["trace.overhead_s"] = traced_wall - plain_wall
        return {k: {"value": v, "unit": metric_unit(k)}
                for k, v in metrics.items()}
    if not timed:
        return None
    metrics = {name: {"value": statistics.median(r.data[name] for r in timed),
                      "unit": unit} for name, unit in END_TO_END.items()}
    metrics["setup_s"]["value"] = statistics.median(setups)
    return metrics


def counts_agree(measured):
    """Mark traced runs whose exact counts differ from the first traced run."""

    traced = [r for r in measured if r.layers is not None]
    for run in traced[1:]:
        first, counts = traced[0].data["counts"], run.data["counts"]
        diff = sorted(k for k in set(first) | set(counts)
                      if first.get(k) != counts.get(k))
        if diff:
            run.problems.append("counts differ between traced runs: "
                                + ", ".join(diff))


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # SIGTERM unwinds like an exception, so the running child is killed and
    # reaped and the work directory removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "kinchaos", "__init__.py")):
        print("perfbench: run from the root of a kinchaos checkout "
              "(src/kinchaos not found)", file=sys.stderr)
        return 2

    base = os.path.join(root, ".perfbench_work")
    os.makedirs(base, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=base)
    try:
        attempted, measured, setups, warm = measure(
            WORKLOADS[args.workload], args.seed, args.seconds,
            bool(args.trace), root, work_dir)
        spans = os.path.join(work_dir, "spans.jsonl")
        if os.path.isfile(spans):
            os.replace(spans, os.path.join(base, f"spans-{args.workload}.jsonl"))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if args.trace:
        counts_agree(measured)
    metrics = summarise(measured, setups, bool(args.trace))
    if metrics is None:
        print("perfbench: no run produced measurements", file=sys.stderr)
        for run in attempted:
            print(f"  exit {run.code}: {run.stderr[-2000:]}", file=sys.stderr)
        return 1

    failed = sum(run.failed for run in attempted)
    for i, run in enumerate(attempted):
        if run.failed:
            print(f"# run {i} failed: {'; '.join(run.problems)}",
                  file=sys.stderr)
            if run.stderr:
                print(run.stderr[-2000:], file=sys.stderr)
    rev, src = revision(root)
    provenance = {"workload": args.workload, "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace,
                  "nproc": len(os.sched_getaffinity(0)),
                  "threads": min(WORKLOADS[args.workload]["threads"],
                                 len(os.sched_getaffinity(0))),
                  "python": warm["python"], "numpy": warm["numpy"],
                  "scipy": warm["scipy"], "git_revision": rev,
                  "src_sha256": src}
    print("# provenance " + json.dumps(provenance, sort_keys=True))
    timed = [r.data["wall_s"] for r in measured if not r.traced
             and r.data is not None and "wall_s" in r.data]
    print(f"# wall_s (untraced runs) {tail_summary(timed)}")
    print(f"# fail_ratio {failed}/{len(attempted)} = "
          f"{failed / len(attempted):.3g}")
    zero = [name for name, m in metrics.items() if m["value"] == 0]
    for name, m in metrics.items():
        if m["value"] != 0:
            print(f"# {name} = {m['value']:.6g} {m['unit']}")
    if zero:
        print(f"# {len(zero)} metrics are 0 on this workload")
    print(json.dumps({"correct": failed == 0, "attempted": len(attempted),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
