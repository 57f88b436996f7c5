"""Command-line interface.

Subcommands:

  run <config.json> [...]   execute experiment configs (--jobs for parallel runs)
  verify [--scope S] [--sabotage ID]
                            run the self-check table; nonzero exit on failure
  compare <cfgA> <cfgB>     run two configs and emit a joint CSV for plotting
  oracle ridge <config>     print the exact ridge posterior as JSON

The output directory comes from the NATVB_OUTDIR environment variable
(default: the working directory); everything else lives in the config.
Several configs given to one `run` share that directory unless two would
write the same artifact; then each writes into a subdirectory named after
its config file. Such a `run` never overwrites an existing artifact.
Exit codes: 0 success, 1 a failed check, 2 a config error, 3 a domain
error, 4 a failed certificate; README.md's CLI section tables each
code's causes. Codes 3 and 4 flush the partial trace.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import CERTIFICATE_ERRORS, DomainError, LeftDomain
from .harness import (ConfigError, compare_runs, load_config, output_dir,
                      ridge_oracle, run_dirs, run_experiment)


def _cmd_run(args) -> int:
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
    configs = [load_config(path) for path in args.config]
    if len(configs) == 1:
        dirs = [output_dir()]
    else:
        dirs = run_dirs([(Path(path).stem, cfg)
                         for path, cfg in zip(args.config, configs)], output_dir())
    # the pool forks every worker at its first task, so never more than there are runs
    workers = min(args.jobs, len(configs))
    if workers > 1:
        # imported here: a single-config run needs no worker pool
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            summaries = list(pool.map(run_experiment, configs, dirs))
    else:
        summaries = list(map(run_experiment, configs, dirs))
    for summary in summaries:
        print(json.dumps(summary, sort_keys=True))
    return 0


def _cmd_verify(args) -> int:
    # imported here: verify loads every check's dependencies, scipy.linalg included
    from .verify import run_verify

    try:
        results = run_verify(scope=args.scope, sabotage=args.sabotage)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 1 if any(not r.passed for r in results) else 0


def _cmd_compare(args) -> int:
    joint = compare_runs(load_config(args.config_a), load_config(args.config_b),
                         output_dir())
    print(joint)
    return 0


def _cmd_oracle(args) -> int:
    print(json.dumps(ridge_oracle(load_config(args.config)), indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="natvb",
        description="Natural-gradient variational Bayes: experiments and checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run experiment configs")
    p_run.add_argument("config", nargs="+", help="path(s) to config JSON")
    p_run.add_argument("--jobs", type=int, default=1,
                       help="run configs in parallel")
    p_run.set_defaults(fn=_cmd_run)

    p_verify = sub.add_parser("verify", help="run the self-check suite")
    p_verify.add_argument("--scope", default=None,
                          help="run only checks in this scope")
    p_verify.add_argument("--sabotage", default=None,
                          help="inject a named fault to test the checks")
    p_verify.set_defaults(fn=_cmd_verify)

    p_cmp = sub.add_parser("compare", help="run two configs, emit a joint CSV")
    p_cmp.add_argument("config_a")
    p_cmp.add_argument("config_b")
    p_cmp.set_defaults(fn=_cmd_compare)

    p_oracle = sub.add_parser("oracle", help="print an exact-posterior oracle")
    p_oracle.add_argument("target", choices=("ridge",), help="oracle kind")
    p_oracle.add_argument("config", help="config with the model block")
    p_oracle.set_defaults(fn=_cmd_oracle)
    return parser


def main(argv=None) -> int:
    """Run a subcommand; the failures every subcommand shares map to exit codes here."""
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (DomainError, LeftDomain) as exc:
        print(f"domain error during {args.command}: {exc}", file=sys.stderr)
        return 3
    except CERTIFICATE_ERRORS as exc:
        print(f"certificate failure during {args.command}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
