"""Command line entry points.

    kinchaos run CONFIG [--seed S] [--out-dir D] [--strict] [--threads K]
    kinchaos constants [--config FILE | flag overrides]
    kinchaos check-assumptions [--config FILE | --v-family ... --w-family ...]
    kinchaos version

Exit codes: 0 success, 2 configuration error, 3 assumption violation under
--strict, 4 numerical failure (blow-up, instability, scheme or solver error).
"""

import argparse
import json
import sys

from . import __version__
from .errors import (BlowUpError, ConfigError, ConvergenceError,
                     EvaluationOverflow, SchemeError, StabilityError,
                     StrictAssumptionError)
from .harness import (_DEFAULT_POTENTIAL, ExperimentConfig, _parse_value,
                      build_potential_spec, constants_records, load_config,
                      run_experiment, write_report)

_NUMERICAL = (BlowUpError, StabilityError, SchemeError, ConvergenceError,
              EvaluationOverflow)


def _build_parser():
    p = argparse.ArgumentParser(prog="kinchaos",
                                description="Interacting particle systems, "
                                "their mean-field limit, and rate recipes.")
    sub = p.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a recipe from a config file")
    run.add_argument("config", help="path to the config document")
    run.add_argument("--seed", type=int, default=None,
                     help="override the config seed")
    run.add_argument("--out-dir", default=None,
                     help="override the config output directory")
    run.add_argument("--strict", action="store_true",
                     help="exit 3 when an assumption check fails")
    run.add_argument("--threads", type=int, default=1,
                     help="worker threads for sweep points (results are "
                     "independent of this)")

    con = sub.add_parser("constants", help="print the rate-constant recipes")
    con.add_argument("--config", default=None,
                     help="config file supplying potential/model/constants")
    con.add_argument("--gamma", type=float, default=1.0)
    con.add_argument("--sigma", type=float, default=1.0)
    con.add_argument("--c-k", type=float, default=None, dest="c_k")
    con.add_argument("--c-v", type=float, default=None, dest="c_v")
    con.add_argument("--c-v-theta", type=float, default=None,
                     dest="c_v_theta")
    con.add_argument("--w-grad-sup", type=float, default=None,
                     dest="w_grad_sup")
    con.add_argument("--theta", type=float, default=0.25)
    con.add_argument("--rho-ls-big", type=float, default=1.0,
                     dest="rho_LS", help="log-Sobolev constant rho_LS")
    con.add_argument("--rho-ls", type=float, default=1.0, dest="rho_ls")
    con.add_argument("--rho-wls", type=float, default=1.0, dest="rho_wls")
    con.add_argument("--d", type=int, default=1)
    con.add_argument("--a-rule", default="min",
                     choices=("remark", "proof", "min"), dest="a_rule")
    con.add_argument("--json-only", action="store_true",
                     help="suppress the aligned text table")

    chk = sub.add_parser("check-assumptions",
                         help="screen a potential pair numerically")
    chk.add_argument("--config", default=None)
    chk.add_argument("--v-family", default="quadratic", dest="v_family")
    chk.add_argument("--w-family", default="zero", dest="w_family")
    chk.add_argument("--param", action="append", default=[],
                     help="potential parameter as prefix_name=value, e.g. "
                     "v_k=4 or w_L_W=0.25 (repeatable)")
    chk.add_argument("--theta", type=float, default=0.25)
    chk.add_argument("--seed", type=int, default=0)
    chk.add_argument("--strict", action="store_true")

    sub.add_parser("version", help="print the package version")
    return p


def _config_from_flags_constants(args):
    consts = {"theta": args.theta, "rho_LS": args.rho_LS,
              "rho_ls": args.rho_ls, "rho_wls": args.rho_wls,
              "d": args.d, "a_rule": args.a_rule, "meanfield_variant": False}
    for key, val in (("C_K", args.c_k), ("C_V", args.c_v),
                     ("C_V_theta", args.c_v_theta),
                     ("W_grad_sup", args.w_grad_sup)):
        if val is not None:
            consts[key] = val
    return ExperimentConfig(
        recipe="constants_table", seed=0, out_dir="out",
        potential=dict(_DEFAULT_POTENTIAL),
        model={"gamma": args.gamma, "sigma": args.sigma},
        constants=consts, numerics={})


def _cmd_run(args):
    config = load_config(args.config)
    if args.seed is not None:
        config.seed = args.seed
    if args.out_dir is not None:
        config.out_dir = args.out_dir
    report = run_experiment(config, threads=max(1, args.threads))
    paths = write_report(report, config.out_dir)
    for v in report.verdicts:
        status = "PASS" if v["passed"] else "FAIL"
        print(f"{status}  {v['name']}")
    print("wrote: " + ", ".join(paths))
    if args.strict and config.recipe == "assumptions" and not report.passed():
        failed = [v["name"] for v in report.verdicts if not v["passed"]]
        raise StrictAssumptionError(f"failed under --strict: "
                                    f"{', '.join(failed)}")
    return 0


def _cmd_constants(args):
    if args.config is not None:
        config = load_config(args.config)
    else:
        config = _config_from_flags_constants(args)
    records = constants_records(config)
    print(json.dumps([r.as_dict() for r in records], indent=2,
                     sort_keys=True))
    if not args.json_only:
        for r in records:
            print()
            print(r.table())
    return 0


def _cmd_check_assumptions(args):
    from .potentials import check_assumptions, make_system

    if args.config is not None:
        config = load_config(args.config)
        spec = build_potential_spec(config.potential)
        theta = config.constants["theta"]
    else:
        v_params = {}
        w_params = {}
        errors = []
        for item in args.param:
            if "=" not in item:
                errors.append(f"--param {item!r} is not name=value")
                continue
            name, _, raw = item.partition("=")
            val = _parse_value(raw)
            if name.startswith("v_"):
                v_params[name[2:]] = val
            elif name.startswith("w_"):
                w_params[name[2:]] = val
            else:
                errors.append(f"--param {item!r}: name needs a v_ or w_ prefix")
        if errors:
            raise ConfigError(errors)
        spec = make_system(args.v_family, v_params, args.w_family, w_params)
        theta = args.theta
    result = check_assumptions(spec, theta=theta, seed=args.seed)
    print(json.dumps(result.as_dict(), indent=2, sort_keys=True, default=str))
    print()
    print(result.summary())
    if args.strict and result.failed():
        raise StrictAssumptionError(
            "assumption screening failed: " + ", ".join(result.failed()))
    return 0


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "constants":
            return _cmd_constants(args)
        if args.command == "check-assumptions":
            return _cmd_check_assumptions(args)
        if args.command == "version":
            print(__version__)
            return 0
        parser.error(f"unknown command {args.command!r}")
    except ConfigError as exc:
        for line in exc.errors:
            print(f"config error: {line}", file=sys.stderr)
        return 2
    except StrictAssumptionError as exc:
        print(f"assumption violation: {exc}", file=sys.stderr)
        return 3
    except _NUMERICAL as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
