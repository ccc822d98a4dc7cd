"""Command-line interface: simulate / train / bound / sweep."""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import fields
from pathlib import Path

import yaml

from . import io as mbio
from .core import PRIOR_MODES
from .harness import emit_report, read_inputs, run_sweep, spec_from_dict
from .learn import LearnerConfig
from .methods import METHODS, MbemConfig, train_method
from .seeding import RngSeed
from .simulate import MARGIN, SKILL_KINDS, WorkerSkillModel, \
    assign_workers, corrupt_labels, make_synthetic_dataset, sample_worker_pool
from .theory import beta_eps_closed_form, bound_factor, optimal_redundancy

LEARNER_FLAGS = {"logistic": "multinomial_logistic", "mlp": "one_hidden_layer_mlp"}


def _add_learner_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--learner", dest="learner_kind", choices=LEARNER_FLAGS)
    p.add_argument("--epochs", type=int)
    p.add_argument("--learning-rate", type=float)
    p.add_argument("--l2", dest="l2_penalty", type=float)
    p.add_argument("--batch-size", type=int, help="0 means full batch")
    p.add_argument("--hidden-units", type=int)
    p.add_argument("--init-scale", type=float)


def _config(args) -> MbemConfig:
    """MbemConfig from the config flags given on the command line."""
    given = dict(vars(args))
    if "learner_kind" in given:
        given["learner_kind"] = LEARNER_FLAGS[given["learner_kind"]]

    def pick(cls):
        return {f.name: given[f.name] for f in fields(cls) if f.name in given}

    return MbemConfig(**pick(MbemConfig),
                      learner=LearnerConfig(**pick(LearnerConfig)))


def cmd_simulate(args) -> int:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    seed = RngSeed(args.seed)
    skill = WorkerSkillModel(kind=args.skill, gamma=args.gamma, K=args.classes)
    features, truth = make_synthetic_dataset(args.n, args.classes,
                                             args.feature_dim, args.margin,
                                             seed.child("data"))
    confusions = sample_worker_pool(skill, args.m, seed.child("workers"))
    assignment = assign_workers(args.n, args.r, args.m, seed.child("assign"))
    ann = corrupt_labels(truth, assignment, confusions, seed.child("corrupt"))
    mbio.write_features(out / "features.csv", features)
    mbio.write_truth(out / "truth.csv", truth)
    mbio.write_annotations(out / "annotations.csv", ann)
    mbio.write_confusions(out / "workers.csv", confusions)
    print(f"wrote {args.n} examples, {len(ann)} annotations to {out}",
          file=sys.stderr)
    return 0


def cmd_train(args) -> int:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    ann, features, truth = read_inputs(args.annotations, args.features,
                                       args.truth)
    oracle = (mbio.read_confusions(args.worker_confusions)
              if args.worker_confusions else None)
    result = train_method(args.method, features, ann, _config(args),
                          RngSeed(args.seed), truth=truth,
                          oracle_confusions=oracle)
    mbio.save_model(out, result.model)
    if result.soft is not None:
        mbio.write_soft_labels(out / "posteriors.csv", result.soft)
    if result.confusions is not None:
        mbio.write_confusions(out / "confusions.csv", result.confusions)
    print(f"trained {args.method} model -> {out}", file=sys.stderr)
    return 0


def cmd_bound(args) -> int:
    rhos = [args.rho]
    if args.grid_step is not None:
        if not args.grid_step > 0:
            raise ValueError("--grid-step must be positive")
        # The last step not above rho, up to rounding (0.3 / 0.1 is
        # 2.9999999999999996); the table rejects a rho outside [0, 0.5).
        if 0 <= args.rho < 0.5:
            steps = math.floor(args.rho / args.grid_step + 1e-9)
            rhos = [0.0] + [i * args.grid_step for i in range(1, steps + 1)]
    # The table prints only once every row is computed, so a bad value
    # exits with nothing on stdout.
    lines = ["rho,r,beta,factor,is_optimal"]
    for rho in rhos:
        best = optimal_redundancy(rho, args.epsilon, args.r_max)
        for r in range(1, args.r_max + 1):
            beta = beta_eps_closed_form(rho, args.epsilon, r)
            factor = bound_factor(rho, args.epsilon, r)
            lines.append(f"{rho:.6g},{r},{beta:.12g},{factor:.12g},"
                         f"{1 if r == best else 0}")
    print("\n".join(lines))
    return 0


def cmd_sweep(args) -> int:
    path = Path(args.config)
    with open(path) as fh:
        try:
            cfg = (json.load(fh) if path.suffix == ".json"
                   else yaml.safe_load(fh))
        except (ValueError, yaml.YAMLError) as exc:
            raise ValueError(f"{path}: {exc}") from None
    if not isinstance(cfg, dict):
        raise ValueError(f"{path}: a sweep config must be a mapping, "
                         f"got {cfg!r}")
    if args.budget is not None:
        cfg["budget"] = args.budget
    for key in ("seeds", "redundancies", "methods"):
        if getattr(args, key) is not None:
            cfg[key] = getattr(args, key).split(",")
    spec = spec_from_dict(cfg)
    result = run_sweep(spec, jobs=args.jobs)
    emit_report(result, args.out_dir)
    failures = [rec for rec in result.records if rec.error]
    for rec in failures:
        print(f"cell ({rec.method}, r={rec.r}, seed={rec.seed}) failed: "
              f"{rec.error}", file=sys.stderr)
    print(f"{len(result.records) - len(failures)}/{len(result.records)} "
          f"cells succeeded -> {args.out_dir}", file=sys.stderr)
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mbem",
        description="Learning from noisy crowdsourced labels: simulation, "
                    "training methods, redundancy bounds, budget sweeps.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic crowdsourced dataset")
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--classes", type=int, default=WorkerSkillModel.K)
    p.add_argument("--feature-dim", type=int, default=None,
                   help="default: twice --classes")
    p.add_argument("--margin", type=float, default=MARGIN)
    p.add_argument("--skill", choices=SKILL_KINDS, default=WorkerSkillModel.kind)
    p.add_argument("--gamma", type=float, default=WorkerSkillModel.gamma)
    p.add_argument("--m", type=int, default=20)
    p.add_argument("--r", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_simulate)

    # A config flag stores under its field name, and only when given, so
    # the MbemConfig and LearnerConfig dataclasses hold every default.
    p = sub.add_parser("train", help="train one method on an annotation file",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("--annotations", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--method", choices=METHODS, required=True)
    p.add_argument("--rounds", type=int)
    p.add_argument("--prior", dest="prior_mode", choices=PRIOR_MODES)
    p.add_argument("--smoothing", type=float)
    p.add_argument("--truth", default=None, help="truth CSV")
    p.add_argument("--worker-confusions", default=None, help="true confusion CSV")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", required=True)
    _add_learner_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("bound", help="tabulate the redundancy bound factor")
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--epsilon", type=float, default=0.0)
    p.add_argument("--r-max", type=int, default=9)
    p.add_argument("--grid-step", type=float, default=None,
                   help="sweep rho from 0 to --rho in these steps")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("sweep", help="fixed-budget redundancy sweep")
    p.add_argument("--config", required=True,
                   help="YAML or JSON sweep spec (keys: harness.spec_from_dict)")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes, at most one per (r, seed) unit; "
                        "1 runs the sweep in-process")
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--seeds", default=None, help="comma-separated override")
    p.add_argument("--redundancies", default=None,
                   help="comma-separated override")
    p.add_argument("--methods", default=None, help="comma-separated override")
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    """Run one subcommand. Bad input (ValueError) or a diverging learner
    (RuntimeError) exits with a message naming the subcommand, and
    train's method; any other exception propagates."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, RuntimeError) as exc:
        where = f" --method {args.method}" if args.command == "train" else ""
        raise SystemExit(f"mbem {args.command}{where}: {exc}")


if __name__ == "__main__":
    raise SystemExit(main())
