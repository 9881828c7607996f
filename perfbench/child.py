"""One measured `kinchaos run`, in a fresh process.

    python3 child.py CONFIG --seed S --out-dir D --threads K
                     [--spans PATH] [--setup-only]

Set-up is the import of kinchaos (numpy, scipy) and the parse of CONFIG; it
ends at the monotonic instant reported as `ready`, which the parent compares
with the instant it started this process.  The run is `kinchaos run` through
the package's CLI entry point with the given arguments, so the seed reaches
the program only as --seed.  With --spans the layers are traced and the spans
are written to PATH after the run.  The last line of standard output is one
JSON object; the exit code is the CLI's.
"""

import argparse
import json
import resource
import sys
import time


def main():
    p = argparse.ArgumentParser()
    p.add_argument("config")
    p.add_argument("--seed", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--threads", required=True)
    p.add_argument("--spans", default=None)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()

    import numpy
    import scipy
    from kinchaos import cli
    from kinchaos.errors import ConfigError
    from kinchaos.harness import load_config

    try:
        load_config(args.config)
    except ConfigError:
        pass  # the CLI reports it below, with its exit code
    ready = time.monotonic()
    out = {"ready": ready, "python": sys.version.split()[0],
           "numpy": numpy.__version__, "scipy": scipy.__version__}
    if args.setup_only:
        print(json.dumps(out))
        return 0

    tracer = None
    if args.spans is not None:
        from tracer import Tracer, install
        tracer = install(Tracer())

    cpu0 = time.process_time()
    t0 = time.perf_counter()
    code = cli.main(["run", args.config, "--seed", args.seed,
                     "--out-dir", args.out_dir, "--threads", args.threads])
    out["wall_s"] = time.perf_counter() - t0
    out["cpu_s"] = time.process_time() - cpu0
    # ru_maxrss is in KiB on Linux
    out["peak_rss_mib"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        out["self_s"] = tracer.self_times()
        out["counts"] = dict(tracer.counts)
        out["seconds"] = dict(tracer.seconds)
        tracer.write_spans(args.spans)
    print(json.dumps(out))
    return code


if __name__ == "__main__":
    sys.exit(main())
