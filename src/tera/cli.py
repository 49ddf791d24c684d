"""Command-line front end: parameter counting, fitting, rank reports,
bound verification, scheme/init ablations, and checkpoint inspection.

Every command checks its arguments, makes one library call per result and
writes what it returns; this module only maps errors to exit codes. The
work lives in the library: ``training.fit_recovery``, ``fit_mlp_adapt``,
``ablate_schemes`` and ``load_adapter`` (checkpoints with their frozen parts
regenerated), and ``analysis.verify_rank_bound``, ``verify_param_bound``,
``verify_expressivity_instances`` and ``rank_report``.

Conventions shared by every subcommand:

* scheme syntax is `a,b|c,d` (mode sizes left/right of the split), with
  `n^m` shorthand for m equal modes and `J1|c,d` for one-sided
  tensorization; a bare group like `2^24` needs an explicit --split. It is
  parsed and written by ``tensor_ops.parse_scheme`` and ``format_scheme``;
* a JSON config file may supply any flag of its command (keys use
  underscores), with explicit command-line flags taking precedence; a key
  that names no flag of the command is refused;
* whenever a command writes files, the fully resolved configuration is
  written next to them, and rerunning with the same configuration
  reproduces every CSV byte for byte;
* exit codes: 0 success, 2 bad configuration or a path that cannot be
  read or written, 3 training divergence, 4 a verified bound reported
  "violated", 5 missing artifact.
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .adapters import (
    CHECKPOINT_FORMAT_VERSION,
    FrozenFactorStore,
    lora_param_count,
    save_checkpoint,
    trainable_param_count,
    vera_full_rank_param_count,
    vera_param_count,
    vera_rank_for_budget,
)
from .analysis import (
    RANK_COLUMNS,
    rank_report,
    verify_expressivity_instances,
    verify_param_bound,
    verify_rank_bound,
)
from .tensor_ops import TensorizationScheme, format_scheme, parse_scheme, parse_shape
from .training import (
    LOSS_COLUMNS,
    DivergenceError,
    OptimizerConfig,
    ablate_schemes,
    build_adapter,
    fit_mlp_adapt,
    fit_recovery,
    gaussian_recovery_task,
    load_adapter,
    make_mlp_adapt_task,
    planted_recovery_task,
    write_csv,
    write_json,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3
EXIT_VIOLATED = 4
EXIT_MISSING = 5

CONFIG_FORMAT_VERSION = 1


class CliError(Exception):
    """Carries an exit code other than 2 alongside the message; main maps
    ValueError (a bad argument or configuration) and OSError to 2."""

    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


def _require_match(scheme, j1, j2):
    if not scheme.matches(j1, j2):
        raise ValueError(f"scheme {format_scheme(scheme)} tensorizes "
                         f"{scheme.rows}x{scheme.cols}, not {j1}x{j2}")


def _require(args, *names):
    # requiredness is enforced here, not by argparse, so that a --config
    # file can supply any of these
    for name in names:
        if getattr(args, name, None) in (None, []):
            flag = "--" + name.replace("_", "-")
            raise ValueError(f"{flag} is required (flag or config file)")


def _out_dir(args):
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def write_resolved_config(out_dir, command, args):
    resolved = {"format_version": CONFIG_FORMAT_VERSION, "command": command}
    for key, value in vars(args).items():
        if key not in ("func", "config", "command"):
            resolved[key] = value
    write_json(out_dir / "resolved_config.json", resolved)


def _write_fit_report(report, out):
    write_json(out / "report.json", report.to_json_dict())
    write_csv(out / "loss.csv", LOSS_COLUMNS, report.loss_curve)


def _print_table(rows, header):
    widths = [
        max(len(str(r[i])) for r in [header] + rows) for i in range(len(header))
    ]
    for row in [header] + rows:
        print("  ".join(str(cell).ljust(w) for cell, w in zip(row, widths)).rstrip())


# ---------------------------------------------------------------- param-count


def cmd_param_count(args):
    _require(args, "shape", "scheme")
    j1, j2 = parse_shape(args.shape)
    scheme = parse_scheme(args.scheme, args.split)
    _require_match(scheme, j1, j2)
    rank = args.rank
    header = ["family", "params", "detail"]
    rows = [
        ("tera", scheme.num_trainable(), format_scheme(scheme)),
        ("tera_iden", scheme.num_trainable(), format_scheme(scheme)),
        ("lora", lora_param_count(j1, j2, rank), f"r={rank}"),
        ("vera", vera_param_count(j1, rank), f"r={rank}"),
        ("vera_full_rank", vera_full_rank_param_count(j1, j2), "r=min(J1,J2)"),
        ("hira", lora_param_count(j1, j2, rank), f"r={rank}"),
    ]
    _print_table([list(r) for r in rows], header)
    if args.out:
        out = _out_dir(args)
        write_csv(out / "param_counts.csv", header, rows)
        write_resolved_config(out, "param-count", args)
    return EXIT_OK


# ------------------------------------------------------------------------ fit


def _optimizer_config(args):
    return OptimizerConfig(
        algorithm=args.optimizer,
        learning_rate=args.lr,
        weight_decay=args.weight_decay,
        warmup_steps=args.warmup_steps,
        max_steps=args.max_steps,
    )


def _resolve_vera_budget(args, j1):
    """--match-budget-of tera:SCHEME sets the rank to the matching budget."""
    prefix, _, spec = args.match_budget_of.partition(":")
    if prefix != "tera" or not spec:
        raise ValueError(
            f"bad --match-budget-of {args.match_budget_of!r}; expected tera:SCHEME")
    budget = parse_scheme(spec, args.split).num_trainable()
    return vera_rank_for_budget(j1, budget)


def _diverged(exc, args, out):
    """Write what a diverged fit left behind; return the error to raise."""
    if exc.report is not None:
        _write_fit_report(exc.report, out)
    write_resolved_config(out, "fit", args)
    # a diverged pretraining has no fit to report
    written = "resolved config" if exc.report is None else "partial report"
    return CliError(EXIT_DIVERGED, f"diverged at step {exc.step} (loss {exc.loss:.3e}); "
                                   f"{written} written to {out}")


def _fit_recovery(args, out):
    cfg = _optimizer_config(args)
    j1, j2 = parse_shape(args.shape)
    scheme = None
    if args.scheme:
        scheme = parse_scheme(args.scheme, args.split)
        _require_match(scheme, j1, j2)
    elif args.family in ("tera", "tera_iden") or args.target == "planted":
        # only the tensor-network families and planted targets use a scheme
        try:
            scheme = TensorizationScheme.one_sided(j1, j2, 4)
        except ValueError as exc:
            raise ValueError(f"no default scheme for {j1}x{j2}: {exc}")
    store = FrozenFactorStore(args.master_seed)
    rank = args.rank
    if args.match_budget_of:
        if args.family != "vera":
            raise ValueError("--match-budget-of only applies to vera")
        rank = _resolve_vera_budget(args, j1)
    adapter = build_adapter(
        args.family, j1, j2, store=store, scheme=scheme, rank=rank,
        seed=args.adapter_seed, w0_seed=args.w0_seed,
    )
    if args.target == "planted":
        task = planted_recovery_task(scheme, store, seed=args.target_seed)
    else:
        task = gaussian_recovery_task(j1, j2, seed=args.target_seed)

    try:
        report = fit_recovery(adapter, task, cfg)
    except DivergenceError as exc:
        raise _diverged(exc, args, out)
    _write_fit_report(report, out)
    save_checkpoint(adapter, out / "checkpoint.json")
    write_resolved_config(out, "fit", args)
    print(f"family={args.family} params={report.trainable_param_count}")
    print(f"final_loss={report.final_loss!r}")
    print(f"final_relative_residual={report.metrics['final_relative_residual']!r}")
    return EXIT_OK


def _fit_mlp(args, out):
    cfg = _optimizer_config(args)
    try:
        layer_sizes = tuple(int(s) for s in args.layer_sizes.split(","))
    except ValueError:
        raise ValueError(f"--layer-sizes must be integers separated by commas, "
                         f"got {args.layer_sizes!r}") from None
    store = FrozenFactorStore(args.master_seed)
    scheme = parse_scheme(args.scheme, args.split) if args.scheme else None
    try:
        # pretraining the base network can diverge too
        task = make_mlp_adapt_task(
            layer_sizes, args.n_classes, args.n_train, args.n_test, seed=args.task_seed,
            pretrain_steps=args.pretrain_steps,
        )
        report, adapters = fit_mlp_adapt(
            task, args.family, cfg,
            store=store, scheme=scheme, rank=args.rank,
            adapter_seed=args.adapter_seed,
        )
    except DivergenceError as exc:
        raise _diverged(exc, args, out)
    _write_fit_report(report, out)
    for layer, adapter in adapters.items():
        save_checkpoint(adapter, out / f"checkpoint_layer{layer}.json")
    write_resolved_config(out, "fit", args)
    print(f"family={args.family} params={report.trainable_param_count}")
    print(f"base_target_accuracy={report.metrics['base_target_accuracy']!r}")
    print(f"target_test_accuracy={report.metrics['target_test_accuracy']!r}")
    return EXIT_OK


def cmd_fit(args):
    _require(args, "family", "out")
    out = _out_dir(args)
    if args.task == "mlp":
        return _fit_mlp(args, out)
    return _fit_recovery(args, out)


# ---------------------------------------------------------------- rank-report


def _load(path, tasks=None):
    if not path.exists():
        raise CliError(EXIT_MISSING, f"checkpoint not found: {path}")
    return load_adapter(path, tasks)


def cmd_rank_report(args):
    _require(args, "checkpoints", "out")
    out = _out_dir(args)
    labels = args.labels.split(",") if args.labels else None
    if labels and len(labels) != len(args.checkpoints):
        raise ValueError(f"{len(labels)} labels for {len(args.checkpoints)} checkpoints")
    entries = []
    tasks = {}  # hira checkpoints of one MLP share its rebuilt task
    for i, raw in enumerate(args.checkpoints):
        path = Path(raw)
        adapter = _load(path, tasks)
        layer = labels[i] if labels else path.stem
        entries.append((layer, adapter.variant, adapter))
    report = rank_report(entries, rel_tol=args.rel_tol)
    write_csv(out / "ranks.csv", RANK_COLUMNS,
              [[row[c] for c in RANK_COLUMNS] for row in report.rows])
    write_json(out / "ranks.json", report.to_json_dict())
    write_resolved_config(out, "rank-report", args)
    _print_table([[r["layer"], r["family"], r["rank"], r["max_rank"]] for r in report.rows],
                 ["layer", "family", "rank", "max_rank"])
    return EXIT_OK


# --------------------------------------------------------------------- verify


def _verify_rank(args, out):
    scheme = parse_scheme(args.scheme, args.split) if args.scheme else (
        TensorizationScheme((4, 4, 4, 4), split=2)
    )
    report = verify_rank_bound(scheme, trials=args.trials, seed=args.seed)
    write_json(out / "rank_bound.json", report.to_json_dict())
    print(
        f"rank_bound: {report.verdict} "
        f"(max rank {report.terms['max_rank_observed']} vs bound {int(report.rhs)}, "
        f"full-rank fraction {report.terms['full_rank_fraction']:.4f})"
    )
    return report.verdict


def _verify_params(args, out):
    j1, j2 = parse_shape(args.shape) if args.shape else (4096, 4096)
    report = verify_param_bound(j1, j2)
    write_json(out / "param_count_bound.json", report.to_json_dict())
    print(
        f"param_count_bound: {report.verdict} "
        f"({report.terms['n_schemes']} schemes, min params "
        f"{report.terms['min_params']}, cap {int(report.rhs)})"
    )
    return report.verdict


def _verify_expressivity(args, out):
    scheme = parse_scheme(args.scheme, args.split) if args.scheme else (
        TensorizationScheme((2, 4, 2, 4), split=2)
    )
    suite = verify_expressivity_instances(scheme, args.instances, planted=args.planted,
                                          sweeps=args.sweeps, seed=args.seed)
    summary = suite.to_json_dict()
    write_json(out / "expressivity_bound.json", summary)
    write_csv(out / "expressivity_instances.csv",
              ["instance", "verdict", "lhs", "rhs", "slack"],
              [(i, r.verdict, r.lhs, r.rhs, r.slack) for i, r in enumerate(suite.reports)])
    print(f"expressivity_bound: holds {summary['holds']}/{summary['instances']}, "
          f"inconclusive {summary['inconclusive']}, rejected {summary['rejected']}")
    return "violated" if summary["violated"] else "holds"


def cmd_verify(args):
    _require(args, "bound", "out")
    out = _out_dir(args)
    verdicts = []
    if args.bound in ("rank", "all"):
        verdicts.append(_verify_rank(args, out))
    if args.bound in ("params", "all"):
        verdicts.append(_verify_params(args, out))
    if args.bound in ("expressivity", "all"):
        verdicts.append(_verify_expressivity(args, out))
    write_resolved_config(out, "verify", args)
    if "violated" in verdicts:
        raise CliError(EXIT_VIOLATED, "at least one bound reported violated")
    return EXIT_OK


# --------------------------------------------------------------------- ablate


def cmd_ablate(args):
    _require(args, "schemes", "shape", "out")
    j1, j2 = parse_shape(args.shape)
    families = [f.strip() for f in args.families.split(",") if f.strip()]
    swept = [f for f in families if f in ("tera", "tera_iden")]
    for family in families:
        if family not in swept:
            print(f"skipping family {family!r}: ablation sweeps the "
                  "tensor-network variants", file=sys.stderr)
    cfg = _optimizer_config(args)
    schemes = []
    for spec in args.schemes:
        try:
            scheme = parse_scheme(spec, args.split)
            _require_match(scheme, j1, j2)
        except ValueError as exc:
            print(f"skipping scheme {spec!r}: {exc}", file=sys.stderr)
            continue
        schemes.append(scheme)
    for name, left in (("scheme", schemes), ("tensor-network family", swept)):
        if not left:
            raise CliError(EXIT_CONFIG, f"no {name} to ablate")
    out = _out_dir(args)
    rows = ablate_schemes(schemes, swept, cfg, args.targets,
                          master_seed=args.master_seed, target_seed=args.target_seed)
    rows = [(format_scheme(s), f, p, m) for s, f, p, m in rows]
    write_csv(out / "ablation.csv",
              ["scheme", "family", "params", "mean_final_relative_residual"], rows)
    write_resolved_config(out, "ablate", args)
    _print_table([[s, f, p, f"{m:.6f}"] for s, f, p, m in rows],
                 ["scheme", "family", "params", "mean_residual"])
    return EXIT_OK


# --------------------------------------------------------- checkpoint inspect


def cmd_checkpoint_inspect(args):
    path = Path(args.path)
    adapter = _load(path)
    family = adapter.variant
    print(f"file: {path}")
    print(f"format_version: {CHECKPOINT_FORMAT_VERSION}")
    print(f"family: {family}")
    print(f"shape: {adapter.shape[0]}x{adapter.shape[1]}")
    print(f"trainable_params: {trainable_param_count(adapter)}")
    if family in ("tera", "tera_iden"):
        print(f"scheme: {format_scheme(adapter.scheme)}")
        print(f"master_seed: {adapter.master_seed}")
        print(f"zero_init_mode: {adapter.zero_init_mode}")
        norms = ",".join(f"{float(np.linalg.norm(d)):.6g}" for d in adapter.d_vectors)
        print(f"d_vector_norms: {norms}")
    else:
        print(f"rank: {adapter.rank}")
    if family == "vera":
        print(f"master_seed: {adapter.master_seed}")
    if family == "hira" and adapter.w0_provenance:
        print(f"w0_provenance: {json.dumps(adapter.w0_provenance, sort_keys=True)}")
    return EXIT_OK


# ----------------------------------------------------------------- the parser


def _add_optimizer_flags(p):
    p.add_argument("--optimizer", default="adamw", choices=["adamw", "sgd-momentum"])
    p.add_argument("--lr", type=float, default=1e-2)
    p.add_argument("--weight-decay", type=float, default=0.0)
    p.add_argument("--warmup-steps", type=int, default=100)
    p.add_argument("--max-steps", type=int, default=1000)


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=None,
                        help="JSON file of flag defaults (underscored keys); flags override")
    parser = argparse.ArgumentParser(
        prog="tera",
        description="Tensor-network adapters: fitting, rank analysis, "
        "and bound verification at desk scale.",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("param-count", help="trainable-parameter table", parents=[common])
    p.add_argument("--shape", default=None, help="like 4096x4096")
    p.add_argument("--scheme", default=None, help="like 64,64|64,64 or 2^24")
    p.add_argument("--split", type=int, default=None)
    p.add_argument("--rank", type=int, default=8, help="r for lora/vera/hira rows")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_param_count)

    p = sub.add_parser("fit", help="train one adapter configuration", parents=[common])
    p.add_argument("--task", default="recovery", choices=["recovery", "mlp"])
    p.add_argument("--family", default=None,
                   choices=["tera", "tera_iden", "lora", "vera", "hira"])
    p.add_argument("--shape", default="64x64")
    p.add_argument("--scheme", default=None)
    p.add_argument("--split", type=int, default=None)
    p.add_argument("--rank", type=int, default=8)
    p.add_argument("--master-seed", type=int, default=0)
    p.add_argument("--adapter-seed", type=int, default=0)
    p.add_argument("--w0-seed", type=int, default=0)
    p.add_argument("--target", default="gaussian", choices=["gaussian", "planted"])
    p.add_argument("--target-seed", type=int, default=0)
    p.add_argument("--match-budget-of", default=None, metavar="tera:SCHEME",
                   help="set the vera rank so its budget matches exactly")
    p.add_argument("--layer-sizes", default="64,64,64,64")
    p.add_argument("--n-classes", type=int, default=8)
    p.add_argument("--n-train", type=int, default=1024)
    p.add_argument("--n-test", type=int, default=512)
    p.add_argument("--task-seed", type=int, default=0)
    p.add_argument("--pretrain-steps", type=int, default=300)
    _add_optimizer_flags(p)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("rank-report", help="rank table from checkpoints", parents=[common])
    p.add_argument("checkpoints", nargs="*", default=None)
    p.add_argument("--labels", default=None, help="comma list, one per checkpoint")
    p.add_argument("--rel-tol", type=float, default=1e-8)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_rank_report)

    p = sub.add_parser("verify", help="run the numerical bound verifiers", parents=[common])
    p.add_argument("--bound", default=None, choices=["rank", "params", "expressivity", "all"])
    p.add_argument("--trials", type=int, default=1000, help="rank bound trials")
    p.add_argument("--scheme", default=None)
    p.add_argument("--split", type=int, default=None)
    p.add_argument("--shape", default=None, help="params bound shape")
    p.add_argument("--instances", type=int, default=100)
    p.add_argument("--sweeps", type=int, default=50)
    p.add_argument("--planted", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("ablate", help="scheme/init sweep on recovery targets", parents=[common])
    p.add_argument("--schemes", nargs="*", default=None)
    p.add_argument("--split", type=int, default=None)
    p.add_argument("--families", default="tera,tera_iden")
    p.add_argument("--shape", default="64x64")
    p.add_argument("--targets", type=int, default=5)
    p.add_argument("--master-seed", type=int, default=0)
    p.add_argument("--target-seed", type=int, default=0)
    _add_optimizer_flags(p)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("checkpoint", help="checkpoint utilities", parents=[common])
    ck_sub = p.add_subparsers(dest="checkpoint_command", required=True)
    pi = ck_sub.add_parser("inspect", help="print checkpoint summary", parents=[common])
    pi.add_argument("path")
    pi.set_defaults(func=cmd_checkpoint_inspect)

    # subparsers parse into a fresh namespace, so config-file defaults must
    # be planted on each of them, not just on the root parser
    parser._tera_parsers = [parser] + [
        sub.choices[name] for name in sub.choices
    ] + [ck_sub.choices[name] for name in ck_sub.choices]
    return parser


def _apply_config_file(parser, argv):
    # cheap pre-scan so config values act as defaults that flags override
    probe = argparse.ArgumentParser(add_help=False)
    probe.add_argument("--config", default=None)
    known, _ = probe.parse_known_args(argv)
    if known.config is None:
        return
    path = Path(known.config)
    if not path.exists():
        raise CliError(EXIT_MISSING, f"config file not found: {path}")
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"bad config file {path}: {exc}")
    if not isinstance(doc, dict):
        raise ValueError(f"config file {path} must hold a JSON object")
    parsed = vars(parser.parse_args(argv))
    # the header a resolved config carries; either key may be left out
    for key, expected in (("format_version", CONFIG_FORMAT_VERSION),
                          ("command", parsed["command"])):
        value = doc.pop(key, expected)
        if type(value) is not type(expected) or value != expected:
            raise ValueError(f"config file {path}: key {key!r} must be {expected!r}, "
                             f"got {value!r:.40}")
    # a key that names no flag of the command would otherwise be ignored,
    # then echoed into resolved_config.json as if it were a setting
    flags = set(parsed) - {"func", "config", "command", "checkpoint_command"}
    unknown = [k for k in doc if k.replace("-", "_") not in flags]
    if unknown:
        raise ValueError(f"config file {path} has keys that name no flag of "
                         f"{parsed['command']}: {', '.join(unknown)}")
    actions = _command_actions(parser, parsed)
    defaults = {}
    for key, value in doc.items():
        dest = key.replace("-", "_")
        try:
            defaults[dest] = _config_value(actions[dest], value)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"config file {path}: key {key!r} {exc}")
    for p in parser._tera_parsers:
        p.set_defaults(**defaults)


def _command_actions(parser, parsed):
    """The argparse actions of the (sub)command ``parsed`` ran, by dest."""
    actions = {}
    while parser is not None:
        actions.update((a.dest, a) for a in parser._actions)
        sub = next((a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction)), None)
        parser = sub.choices[parsed[sub.dest]] if sub else None
    return actions


def _config_value(action, value):
    """A config value as its flag would have parsed it. argparse converts
    only string defaults, so anything else of the wrong JSON type is
    refused here (TypeError, ValueError)."""
    if value is None and action.default is None:
        return None
    if action.nargs == 0:  # a store_true switch
        if type(value) is not bool:
            raise TypeError(f"must be true or false, got {value!r:.40}")
        return value
    if action.nargs in ("*", "+"):
        if not isinstance(value, list):
            raise TypeError(f"must be a list, got {value!r:.40}")
        return [_config_scalar(action, v) for v in value]
    return _config_scalar(action, value)


def _config_scalar(action, value):
    kind = action.type or str
    if isinstance(value, str):
        try:
            value = kind(value)
        except ValueError:
            raise ValueError(f"is not a valid {kind.__name__}: {value!r:.40}")
    accepted, expected = {int: ((int,), "an integer"),
                          float: ((int, float), "a number")}.get(kind, ((str,), "a string"))
    if type(value) not in accepted:
        raise TypeError(f"must be {expected}, got {value!r:.40}")
    if action.choices is not None and value not in action.choices:
        raise ValueError(f"must be one of {', '.join(map(str, action.choices))}, "
                         f"got {value!r:.40}")
    return kind(value)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        _apply_config_file(parser, argv)
        args = parser.parse_args(argv)
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
