"""Command-line entry points.

Subcommands:
    train     --config <path> --out <dir>
    eval      --checkpoint <path> --pairs <path> [--json <path>]
    match     --checkpoint <path> --pair <path>
    gradcheck [--module gnn|decoder|losses|all]
    gen-data  --spec <path> --out <path> --seed <n>
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .atomic import atomic_write
from .checkpoint import model_from_checkpoint, save_checkpoint
from .config import DataConfig, TrainConfig, parse_config_file
from .data import generate_dataset, read_dataset, write_dataset
from .gradcheck import grad_check
from .model import MatchingModel
from .train import evaluate, format_accuracy_table, train

__all__ = ["main"]


def _build_datasets(tcfg: TrainConfig, dcfg: DataConfig):
    if dcfg.data:
        train_pairs = read_dataset(dcfg.data)
    else:
        train_pairs = generate_dataset(dcfg, tcfg.gnn_input_dim, seed=tcfg.seed)
    val_total = dcfg.val_pairs_per_class * dcfg.num_classes
    val_pairs = generate_dataset(
        dcfg, tcfg.gnn_input_dim, seed=tcfg.seed + 777_000_001, num_pairs=val_total
    )
    return train_pairs, val_pairs


def _cmd_train(args) -> int:
    tcfg, dcfg = parse_config_file(args.config)
    if not dcfg.data and dcfg.m_min < 2:
        raise ValueError(f"{args.config}: m_min = {dcfg.m_min}, but training needs at least 2")
    train_pairs, val_pairs = _build_datasets(tcfg, dcfg)
    os.makedirs(args.out, exist_ok=True)
    try:
        model, optimizer, history, aborted = train(
            tcfg, train_pairs, val_pairs, log=lambda msg: print(msg, flush=True)
        )
    except ValueError as exc:  # name where the training pairs came from
        raise ValueError(f"{dcfg.data or args.config}: {exc}") from exc
    ckpt_path = os.path.join(args.out, "checkpoint.nmtc")
    save_checkpoint(ckpt_path, model, optimizer, epoch=len(history), history=history)
    with atomic_write(os.path.join(args.out, "history.json"), "w") as fh:
        json.dump({"history": history, "aborted": aborted}, fh, indent=2)
    # plot-friendly flat table of the per-epoch curves
    with atomic_write(os.path.join(args.out, "history.csv"), "w") as fh:
        fh.write("epoch,lr,train_loss,val_accuracy\n")
        for row in history:
            va = "" if row["val_accuracy"] is None else f"{row['val_accuracy']:.6f}"
            fh.write(f"{row['epoch']},{row['lr']:g},{row['train_loss']:.6f},{va}\n")
    result = evaluate(model, val_pairs)
    print(format_accuracy_table(result))
    print(f"checkpoint written to {ckpt_path}")
    if aborted:
        print("training aborted on non-finite loss; last good parameters kept",
              file=sys.stderr)
        return 1
    return 0


def _cmd_eval(args) -> int:
    model, _, _ = model_from_checkpoint(args.checkpoint)
    pairs = read_dataset(args.pairs)
    result = evaluate(model, pairs)
    print(format_accuracy_table(result))
    if args.json:
        with atomic_write(args.json, "w") as fh:
            json.dump(result, fh, indent=2)
    return 0


def _cmd_match(args) -> int:
    model, _, _ = model_from_checkpoint(args.checkpoint)
    pair = read_dataset(args.pair)[0]
    matching, plan, C = model.match_pair(pair)
    scores = C[np.arange(len(matching.assignment)), matching.assignment]
    print("assignment:", " ".join(str(int(j)) for j in matching.assignment))
    print(f"injective: {matching.injective}")
    print(f"max_marginal_error: {plan.max_marginal_error:.3e}")
    print("cosine_scores:", " ".join(f"{s:.4f}" for s in scores))
    print("plan:")
    for row in plan.values:
        print("  " + " ".join(f"{v:.4f}" for v in row))
    correct = float(np.mean(matching.assignment == pair.truth))
    print(f"accuracy_vs_truth: {correct:.4f}")
    return 0


def _cmd_gradcheck(args) -> int:
    cfg = TrainConfig(d_model=16, heads=2, decoder_layers=2, gnn_input_dim=8,
                      kernel_size=3, seed=7)
    model = MatchingModel(cfg)
    dcfg = DataConfig(m_min=4, m_max=5, num_classes=2, jitter_sigma=0.2,
                      noise_level=0.01)
    [pair] = generate_dataset(dcfg, cfg.gnn_input_dim, seed=3, num_pairs=1)
    prepared = [model.prepare(pair)]

    prefixes = {"gnn": ("gnn.",), "decoder": ("dec",), "losses": ("loss.",),
                "all": ("",)}[args.module]
    for name in model.store.names():
        model.store.set_trainable(name, any(name.startswith(p) for p in prefixes))

    def forward(store):
        reports, backward = model.loss(prepared)
        return sum(report.total for report in reports), backward

    reports = grad_check(forward, model.store, eps=1e-5, tol=1e-4)
    failures = 0
    for report in reports:
        print(report)
        failures += not report.passed
    print(f"{len(reports) - failures}/{len(reports)} parameters passed")
    return 1 if failures else 0


def _cmd_gen_data(args) -> int:
    tcfg, dcfg = parse_config_file(args.spec)
    pairs = generate_dataset(dcfg, tcfg.gnn_input_dim, seed=args.seed)
    write_dataset(args.out, pairs)
    print(f"wrote {len(pairs)} pairs to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="normmatch",
        description="Sparse keypoint matching with a normalized transformer decoder",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a pair dataset")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--pairs", required=True)
    p.add_argument("--json", default="", help="also write the result as JSON")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("match", help="match one keypoint pair")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--pair", required=True)
    p.set_defaults(func=_cmd_match)

    p = sub.add_parser("gradcheck", help="finite-difference check of the gradients")
    p.add_argument("--module", choices=("gnn", "decoder", "losses", "all"),
                   default="all")
    p.set_defaults(func=_cmd_gradcheck)

    p = sub.add_parser("gen-data", help="generate a synthetic pair dataset")
    p.add_argument("--spec", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_gen_data)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
