"""Command-line pipeline: train, tweak, sweep, report.

One binary with four subcommands sharing model/config handling. Data goes
to output files only; progress and metric lines go to stderr, so stdout
stays clean. Set TREETWEAK_LOG=debug|info|warning to adjust verbosity.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys

from treetweak import __version__
from treetweak.costs import COST_NAMES
from treetweak.errors import DegenerateLabels, EmptyDataset, TreeTweakError
from treetweak.feature_space import load_instances, load_schema, load_table
from treetweak.forest import load_model, save_model, tree_votes
from treetweak.recommend import (
    categorical_switches,
    diff_to_recommendations,
    feature_frequency_report,
    helpfulness,
    load_ratings,
    rank_correlation,
    ranking_from_scores,
    top_k_transformations,
)
from treetweak.trainer import TrainConfig, evaluate_classifier, stratified_split, train_forest
from treetweak.tweaker import Found, check_search_args, sweep, tweak, write_sweep_csv

DEFAULT_EPSILON_GRID = "0.01,0.05,0.1,0.5,1.0"


def _info(message: str) -> None:
    print(message, file=sys.stderr)


def _cmd_train(args) -> int:
    # Before any file is read, as in sweep.
    cfg = TrainConfig(
        criterion=args.criterion,
        max_depth=args.max_depth,
        num_trees=args.trees,
        features_per_split=args.features_per_split,
        min_samples_split=args.min_samples_split,
        bootstrap=args.bootstrap,
        seed=args.seed,
    )
    stratified_split([], args.test_fraction)
    schema = load_schema(args.schema) if args.schema else None
    space, instances = load_table(args.data, schema)
    train, test = stratified_split(instances, args.test_fraction, seed=args.seed)
    # Evaluation needs both classes in the holdout; find out before training.
    n_pos = sum(inst.label == 1 for inst in test)
    if n_pos == 0 or n_pos == len(test):
        error = EmptyDataset if not test else DegenerateLabels
        raise error(
            f"the holdout of {len(test)} of {len(instances)} instances holds "
            f"{len(test) - n_pos} negative and {n_pos} positive; evaluation needs both classes"
        )
    ens = train_forest(train, cfg, space)
    metrics = evaluate_classifier(ens, test)
    save_model(ens, args.model_out)
    _info(
        f"trained {cfg.num_trees} tree(s) on {len(train)} instances; "
        f"holdout ({len(test)}): f1={metrics.f1:.4f} mcc={metrics.mcc:.4f} "
        f"roc_auc={metrics.roc_auc:.4f}"
    )
    _info(f"model written to {args.model_out}")
    return 0


def _non_finite_at(doc, where: str = "") -> str | None:
    """The JSON location of the first NaN or infinite number in ``doc``,
    such as ``results[0].transformations[0].recommendations[0].to_raw``,
    or None."""
    if isinstance(doc, float):
        return None if math.isfinite(doc) else where
    if isinstance(doc, dict):
        items = ((f"{where}.{key}" if where else str(key), value) for key, value in doc.items())
    elif isinstance(doc, (list, tuple)):
        items = ((f"{where}[{i}]", value) for i, value in enumerate(doc))
    else:
        return None
    for at, value in items:
        found = _non_finite_at(value, at)
        if found is not None:
            return found
    return None


def _write_json(doc, path) -> None:
    """Write ``doc`` as strict JSON. A NaN or infinite number raises
    ValueError, naming its location, before the file is opened."""
    try:
        text = json.dumps(doc, indent=2, allow_nan=False)
    except ValueError:
        where = _non_finite_at(doc)
        if where is None:
            raise
        raise ValueError(f"{where} is not finite") from None
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def _transformation_entry(rank, trans, x, ens):
    recs = diff_to_recommendations(x, trans, ens)
    entry = {
        "rank": rank,
        # None when the cost function was undefined for this pair (the
        # candidate ranks last); keeps the output strict JSON.
        "cost": trans.cost if math.isfinite(trans.cost) else None,
        "source_tree": trans.source_tree,
        "source_path": trans.source_path,
        "candidate_standardized": [float(v) for v in trans.candidate.values],
        "recommendations": [
            {
                "feature": r.feature_name,
                "direction": r.direction,
                "change_standardized": r.magnitude_std,
                "change_raw": r.magnitude_raw,
                "from_raw": r.from_value_raw,
                "to_raw": r.to_value_raw,
                "importance_rank": r.importance_rank,
            }
            for r in recs
        ],
    }
    switches = categorical_switches(x, trans, ens)
    if switches:
        entry["category_switches"] = [
            {"group": g, "from": a, "to": b} for g, a, b in switches
        ]
    return entry


def _cmd_tweak(args) -> int:
    # Before any file is read, so a bad value fails with no eligible row too.
    if args.top_k < 1:
        raise ValueError(f"top-k must be >= 1, got {args.top_k}")
    check_search_args(0, [], [args.epsilon], [], args.budget)
    ens = load_model(args.model)
    instances = load_instances(args.data, ens.feature_space)
    X, _, _ = check_search_args(ens.feature_space.n, instances, [], [], None)
    positive = (tree_votes(ens, X).sum(axis=1) > 0).tolist()
    results = []
    skipped = []
    eligible = covered = 0
    for index, inst in enumerate(instances):
        if positive[index]:
            skipped.append(index)
            continue
        eligible += 1
        outcome = tweak(
            ens,
            inst,
            args.delta,
            args.epsilon,
            skip_satisfied=args.allow_satisfied_skip,
            budget=args.budget,
        )
        entry = {"instance_index": index, "label": inst.label}
        if isinstance(outcome, Found):
            covered += 1
            top = top_k_transformations(outcome, args.top_k)
            entry["status"] = "found"
            entry["num_candidates"] = outcome.num_candidates
            entry["transformations"] = [
                _transformation_entry(rank, trans, inst, ens)
                for rank, trans in enumerate(top, start=1)
            ]
        else:
            entry["status"] = "not_covered"
            entry["reason"] = outcome.reason
            entry["num_candidates"] = 0
            entry["transformations"] = []
        results.append(entry)
    doc = {
        "model": str(args.model),
        "epsilon": args.epsilon,
        "delta": args.delta,
        "top_k": args.top_k,
        "eligible": eligible,
        "covered": covered,
        "coverage": (covered / eligible) if eligible else 0.0,
        "skipped_positive": skipped,
        "results": results,
    }
    _write_json(doc, args.out)
    _info(
        f"tweaked {covered}/{eligible} eligible instances "
        f"(coverage {doc['coverage']:.4f}); "
        f"{len(skipped)} predicted-positive skipped"
    )
    _info(f"recommendations written to {args.out}")
    return 0


def _cmd_sweep(args) -> int:
    try:
        epsilon_grid = [float(v) for v in args.epsilon_grid.split(",") if v.strip()]
    except ValueError as exc:
        raise ValueError(f"--epsilon-grid: {exc}") from None
    if args.deltas.strip() == "all":
        delta_names = list(COST_NAMES)
    else:
        delta_names = [v.strip() for v in args.deltas.split(",") if v.strip()]
    # Before any file is read, as in tweak.
    if not epsilon_grid or not delta_names:
        raise ValueError("--epsilon-grid and --deltas each need at least one value")
    check_search_args(0, [], epsilon_grid, delta_names, args.budget)
    ens = load_model(args.model)
    instances = load_instances(args.data, ens.feature_space)
    rows = sweep(
        ens,
        instances,
        epsilon_grid,
        delta_names,
        skip_satisfied=args.allow_satisfied_skip,
        budget=args.budget,
    )
    write_sweep_csv(rows, args.out)
    _info(
        f"sweep of {len(epsilon_grid)} epsilon x {len(delta_names)} delta "
        f"values written to {args.out} ({len(rows)} rows)"
    )
    return 0


def _load_rankings(path) -> list[list[list[str]]]:
    """Per covered instance of a ``tweak --out`` document, the feature
    names of each transformation's recommendations, best first."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        per_instance = []
        for entry in doc.get("results", []):
            if entry.get("status") != "found":
                continue
            ranked = [
                [rec["feature"] for rec in trans.get("recommendations", [])]
                for trans in entry.get("transformations", [])
            ]
            if ranked:
                per_instance.append(ranked)
    except (AttributeError, KeyError, TypeError, RecursionError) as exc:
        raise TreeTweakError(f"{path} is not a 'tweak' document: {exc!r}") from None
    if not all(isinstance(f, str) for r in per_instance for fs in r for f in fs):
        raise TreeTweakError(f"{path} is not a 'tweak' document: non-string feature")
    return per_instance


def _cmd_report(args) -> int:
    per_instance = _load_rankings(args.recommendations)
    frequency = feature_frequency_report(per_instance)

    correlations = {}
    for a, b in (("top_1", "top_2"), ("top_1", "top_3"), ("top_2", "top_3")):
        common = set(frequency[a]) & set(frequency[b])
        if len(common) < 2:
            continue
        rank_a = ranking_from_scores({f: frequency[a][f] for f in common})
        rank_b = ranking_from_scores({f: frequency[b][f] for f in common})
        try:
            correlations[f"{a}_vs_{b}"] = rank_correlation(rank_a, rank_b)
        except TreeTweakError:
            continue

    out_doc = {
        "frequency": frequency,
        "rank_correlations": correlations,
        "helpfulness": helpfulness(load_ratings(args.ratings)) if args.ratings else None,
    }
    _write_json(out_doc, args.out)
    _info(f"report written to {args.out}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treetweak",
        description="Train tree ensembles and compute minimum-cost feature tweaks.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="train a forest and report holdout metrics")
    train.add_argument("--data", required=True, help="labeled training CSV")
    train.add_argument("--schema", help="optional JSON schema for the raw columns")
    train.add_argument("--model-out", required=True, help="where to write the model")
    train.add_argument("--criterion", choices=("gini", "entropy"), default="gini")
    train.add_argument("--trees", type=int, default=100, help="ensemble size K")
    train.add_argument("--max-depth", type=int, default=None)
    train.add_argument("--features-per-split", type=int, default=None)
    train.add_argument("--min-samples-split", type=int, default=2)
    train.add_argument(
        "--no-bootstrap",
        dest="bootstrap",
        action="store_false",
        default=None,
        help="disable bagging (default: on for K>1)",
    )
    train.add_argument("--seed", type=int, default=0)
    train.add_argument("--test-fraction", type=float, default=0.2)
    train.set_defaults(func=_cmd_train)

    tw = sub.add_parser("tweak", help="compute transformations for negative instances")
    tw.add_argument("--model", required=True)
    tw.add_argument("--data", required=True, help="instances CSV in raw units")
    tw.add_argument("--out", required=True, help="recommendations JSON output")
    tw.add_argument("--epsilon", type=float, default=0.05)
    tw.add_argument("--delta", choices=COST_NAMES, default="cosine")
    tw.add_argument("--top-k", type=int, default=3)
    tw.add_argument("--budget", type=int, default=None, help="max paths to examine")
    tw.add_argument(
        "--allow-satisfied-skip",
        action="store_true",
        help="keep values that already satisfy a path condition",
    )
    tw.set_defaults(func=_cmd_tweak)

    sw = sub.add_parser("sweep", help="coverage/cost grid over epsilon and delta")
    sw.add_argument("--model", required=True)
    sw.add_argument("--data", required=True)
    sw.add_argument("--out", required=True, help="report CSV output")
    sw.add_argument("--epsilon-grid", default=DEFAULT_EPSILON_GRID)
    sw.add_argument("--deltas", default="all", help="'all' or a comma list")
    sw.add_argument("--budget", type=int, default=None)
    sw.add_argument("--allow-satisfied-skip", action="store_true")
    sw.set_defaults(func=_cmd_sweep)

    rp = sub.add_parser("report", help="frequency and helpfulness tables")
    rp.add_argument("--recommendations", required=True, help="JSON from 'tweak'")
    rp.add_argument("--ratings", help="optional ratings CSV (feature_name,verdict)")
    rp.add_argument("--out", required=True, help="report JSON output")
    rp.set_defaults(func=_cmd_report)
    return parser


def _configure_logging() -> None:
    level = getattr(logging, os.environ.get("TREETWEAK_LOG", "warning").upper(), None)
    level = level if isinstance(level, int) else logging.WARNING  # BASIC_FORMAT is a str
    logging.basicConfig(level=level, stream=sys.stderr)


def main(argv=None) -> int:
    _configure_logging()
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (TreeTweakError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
