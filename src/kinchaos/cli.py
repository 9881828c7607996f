"""Command line entry points.

    kinchaos run CONFIG [--seed S] [--out-dir D] [--strict] [--threads K]
    kinchaos constants [--config FILE] [--gamma G --theta T ...]
    kinchaos check-assumptions [--config FILE] [--v-family ... --param ...]
    kinchaos version

Each config flag sets one config entry over the document's, or over the
recipe's defaults: it is read and checked as that entry, and errors name it.

constants and check-assumptions print the constants_table and assumptions
reports of that config; A3 is screened at the V family's declared theta.

Exit codes: 0 success, 2 configuration error (or a run too large for
memory), 3 under --strict when an assumption screen's status is fail, 4
numerical failure (blow-up, instability, scheme or solver error).
"""

import argparse
import json
import re
import sys
from dataclasses import replace

from . import __version__
from .errors import (BlowUpError, ConfigError, ConvergenceError,
                     SchemeError, StabilityError, StrictAssumptionError)
from .harness import (_DEFAULT_FAMILIES, _build_config, _parse_value,
                      _read_sections, run_experiment, write_report)

_NUMERICAL = (BlowUpError, StabilityError, SchemeError, ConvergenceError)

# the config entry, (section, key), that each flag of a command sets
_CONFIG_FLAGS = {
    "run": {"--seed": ("experiment", "seed"),
            "--out-dir": ("experiment", "out_dir")},
    "constants": {
        "--gamma": ("model", "gamma"), "--sigma": ("model", "sigma"),
        "--c-k": ("constants", "C_K"), "--c-v": ("constants", "C_V"),
        "--c-v-theta": ("constants", "C_V_theta"),
        "--w-grad-sup": ("constants", "W_grad_sup"),
        "--theta": ("constants", "theta"),
        "--rho-ls-big": ("constants", "rho_LS"),
        "--rho-ls": ("constants", "rho_ls"),
        "--rho-wls": ("constants", "rho_wls"),
        "--d": ("constants", "d"), "--a-rule": ("constants", "a_rule")},
    "check-assumptions": {
        "--v-family": ("potential", "v_family"),
        "--w-family": ("potential", "w_family"),
        "--seed": ("experiment", "seed")},
}

# a command's sections without a document; check-assumptions screens the
# uncoupled pair, where a document without [potential] takes the coupled one
_RECIPE_SECTIONS = {
    "constants": {"experiment": {"recipe": "constants_table"}},
    "check-assumptions": {"experiment": {"recipe": "assumptions"},
                          "potential": _DEFAULT_FAMILIES},
}


def _build_parser():
    p = argparse.ArgumentParser(prog="kinchaos",
                                description="Interacting particle systems, "
                                "their mean-field limit, and rate recipes.")
    sub = p.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a recipe from a config file")
    run.add_argument("config", help="path to the config document")
    run.add_argument("--strict", action="store_true",
                     help="exit 3 when an assumption screen fails")
    run.add_argument("--threads", type=int, default=1,
                     help="worker threads for sweep points (results are "
                     "independent of this)")

    con = sub.add_parser("constants", help="print the rate-constant recipes")
    con.add_argument("--config", help="config file the flags override")
    con.add_argument("--json-only", action="store_true",
                     help="suppress the aligned text table")

    chk = sub.add_parser("check-assumptions",
                         help="screen a potential pair numerically")
    chk.add_argument("--config", help="config file the flags override")
    chk.add_argument("--param", action="append", default=[],
                     help="potential parameter as prefix_name=value, e.g. "
                     "v_k=4 or w_L_W=0.25 (repeatable)")
    chk.add_argument("--strict", action="store_true")

    sub.add_parser("version", help="print the package version")
    # absent unless given: the schema fills the defaults
    for command, flags in _CONFIG_FLAGS.items():
        for flag, (section, key) in flags.items():
            sub.choices[command].add_argument(
                flag, dest=key, type=_parse_value, default=argparse.SUPPRESS,
                help=f"sets [{section}] {key}")
        # argparse takes -1e-3 or -Infinity for an option: make them values
        sub.choices[command]._negative_number_matcher = re.compile(
            r"-(\d|Infinity$)")
    return p


def _config(args):
    """The config of the document, or of the command's recipe, with each
    config flag given set on top, checked and built as a document is."""

    errors = []
    flags = _CONFIG_FLAGS[args.command]
    flag_of = {entry: flag for flag, entry in flags.items()}
    if args.config is None:
        sections = {
            section: {key: (value, flag_of.get((section, key), args.command))
                      for key, value in entries.items()}
            for section, entries in _RECIPE_SECTIONS[args.command].items()}
    else:
        with open(args.config, encoding="utf-8") as fh:
            sections = _read_sections(fh.read(), errors)
    given = [(entry, getattr(args, entry[1]), flag)
             for flag, entry in flags.items() if entry[1] in vars(args)]
    for item in vars(args).get("param", ()):
        name, eq, raw = item.partition("=")
        flag = f"--param {item!r}"
        if not eq:
            errors.append(f"{flag} is not name=value")
        elif ("potential", name) in flag_of:
            errors.append(f"{flag}: set the family with "
                          f"{flag_of['potential', name]}")
        else:
            given.append((("potential", name), _parse_value(raw), flag))
    for (section, key), value, flag in given:
        sections.setdefault(section, {})[key] = (value, flag)
    # the constants command's records are constants_table's: ask that
    # recipe's rules too
    return _build_config(sections, errors, also_recipe=(
        "constants_table" if args.command == "constants" else None))


def _strict(report):
    """Raise StrictAssumptionError when a screen of an assumptions report
    has status fail; a not-checked screen is no violation."""

    failed = [n for n, v in report.verdicts.items() if v.status == "fail"]
    if report.recipe == "assumptions" and failed:
        raise StrictAssumptionError(f"failed under --strict: "
                                    f"{', '.join(failed)}")


def _cmd_run(args):
    if args.threads < 1:
        raise ConfigError([f"--threads must be at least 1, got "
                           f"{args.threads}"])
    config = _config(args)
    report = run_experiment(config, threads=args.threads)
    paths = write_report(report, config.out_dir)
    for name, v in report.verdicts.items():
        print(f"{v.status.upper()}  {name}")
    print("wrote: " + ", ".join(paths))
    if args.strict:
        _strict(report)
    return 0


def _cmd_constants(args):
    report = run_experiment(replace(_config(args), recipe="constants_table"))
    print(json.dumps(list(report.scalars.values()), indent=2,
                     sort_keys=True))
    if not args.json_only:
        print("\n" + report.texts["constants.txt"], end="")
    return 0


def _cmd_check_assumptions(args):
    report = run_experiment(replace(_config(args), recipe="assumptions"))
    print(json.dumps(report.scalars["report"], indent=2, sort_keys=True),
          "  ".join(f"{n}:{v.status}" for n, v in report.verdicts.items()),
          sep="\n\n")
    if args.strict:
        _strict(report)
    return 0


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "constants":
            return _cmd_constants(args)
        if args.command == "check-assumptions":
            return _cmd_check_assumptions(args)
        print(__version__)  # the one command left: version
        return 0
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
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
