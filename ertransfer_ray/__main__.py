"""CLI for the three-step container contract (SURVEY §2.10) plus the
job-submission flagship entrypoint:

    python -m ertransfer_ray splitter  <input_dir> [output_dir] [-r R] [-d] [--method m] [-s SEED]
    python -m ertransfer_ray matcher   <input_dir> [output_dir] [-t DIR ...] [-e N] [-pt] [-s SEED]
    python -m ertransfer_ray clustering <predictions_file> [output_dir] [-d]
    python -m ertransfer_ray run-er    <pages.parquet> <workdir> [--theta T] [--shards N]

``run-er`` is the shape a cluster deployment submits
(``ray job submit --working-dir . -- python -m ertransfer_ray run-er …``):
the driver process attaches to the running cluster via RAY_ADDRESS, runs the
checkpointed three-stage pipeline, and a resubmitted job resumes finished
stages from their manifests at zero recompute.

Argument shapes mirror the reference entrypoints
(/root/reference/splitters/KNN-Join/splitter.py:135-158,
methods/emtransformer/entrypoint.py:19-46,
clustering/Probabilities/entrypoint.py:52-58). The CLI owns the Ray session
(guarded — a host process, e.g. pytest, may already hold one); stages are
resolved from the registry, so a user-registered stage runs the same way.
"""

from __future__ import annotations

import argparse
import json
import sys


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="ertransfer_ray")
    sub = p.add_subparsers(dest="stage", required=True)

    nm = sub.add_parser("normalize", help="raw dataset dir -> canonical bundle")
    nm.add_argument("input")
    nm.add_argument("output", nargs="?", default=None)

    mg = sub.add_parser("merger", help="split bundle -> matches.csv")
    mg.add_argument("input")
    mg.add_argument("output", nargs="?", default=None)

    sp = sub.add_parser("splitter", help="tableA/tableB/matches.csv -> splits")
    sp.add_argument("input")
    sp.add_argument("output", nargs="?", default=None)
    sp.add_argument("-r", "--recall", type=float, default=0.90)
    sp.add_argument("-d", "--default", action="store_true")
    sp.add_argument("-s", "--seed", type=int, default=42)
    sp.add_argument("--method", choices=["knn", "deepblocker"], default="knn")

    mt = sub.add_parser("matcher", help="split bundle -> predictions + metrics")
    mt.add_argument("input")
    mt.add_argument("output", nargs="?", default=None)
    mt.add_argument("-t", "--test_data", nargs="*", default=[])
    mt.add_argument("-e", "--epochs", type=int, default=5)
    mt.add_argument("-s", "--seed", type=int, default=42)
    mt.add_argument("-pt", "--prev_trained", action="store_true")
    mt.add_argument("-if", "--input_train_full", choices=["v", "vt"],
                    default=None, dest="input_train_full")
    mt.add_argument("--weights", default=None,
                    help="stored weights JSON — skips training (T9 swap)")

    cl = sub.add_parser("clustering", help="predictions_<ds>.csv -> report")
    cl.add_argument("input")
    cl.add_argument("output", nargs="?", default=None)
    cl.add_argument("-d", "--default", action="store_true")
    cl.add_argument("-s", "--seed", type=int, default=42)

    # the `ray job submit` entrypoint (BASELINE.json north_rule): the whole
    # three-stage flagship over an input_hint-shaped pages parquet, with
    # durable per-stage checkpoints + manifests so a killed job resumes at
    # zero recompute:  ray job submit --working-dir . -- \
    #     python -m ertransfer_ray run-er pages.parquet /mnt/ckpt/run1
    er = sub.add_parser(
        "run-er",
        help="pages parquet -> checkpointed blocking/scoring/clustering run",
    )
    er.add_argument("input", help="pages parquet (url, warc_ts, html, text, lang)")
    er.add_argument("workdir", help="checkpoint dir (stage parquet + manifests)")
    er.add_argument("--theta", type=float, default=0.5,
                    help="match-probability threshold for the cluster graph")
    er.add_argument("--shards", type=int, default=4,
                    help="resume granularity for the shardable stages")
    er.add_argument("--normalized", action="store_true",
                    help="input already carries (url, norm_text, norm_title)")
    return p


def main(argv: list[str] | None = None) -> dict:
    args = build_parser().parse_args(argv)

    import ray

    owns_ray = not ray.is_initialized()
    if owns_ray:
        ray.init(address="local", include_dashboard=False, logging_level="ERROR")
    try:
        if args.stage == "run-er":
            from .pipelines.checkpointed import run_er_checkpointed
            from .pipelines.er_pipeline import ERConfig

            result = run_er_checkpointed(
                args.input,
                args.workdir,
                cfg=ERConfig(theta=args.theta),
                num_shards=args.shards,
                normalized_input=args.normalized,
            )
            print(json.dumps(
                {"stage": "run-er", "ok": True, "stages": result["stages"],
                 "metrics": result["metrics"]},
                sort_keys=True,
            ))
            return result

        from .pipelines.steps import get_stage

        stage = get_stage(args.stage)()
        if args.stage in ("normalize", "merger"):
            result = stage.run(args.input, args.output)
        elif args.stage == "splitter":
            result = stage.run(
                args.input, args.output, recall=args.recall,
                default=args.default, seed=args.seed, method=args.method,
            )
        elif args.stage == "matcher":
            result = stage.run(
                args.input, args.output, test_dirs=tuple(args.test_data),
                epochs=args.epochs, seed=args.seed,
                prev_trained=args.prev_trained,
                input_train_full=args.input_train_full,
                weights_path=args.weights,
            )
        else:
            result = stage.run(
                args.input, args.output, default=args.default, seed=args.seed,
            )
    finally:
        if owns_ray:
            ray.shutdown()
    print(json.dumps({"stage": args.stage, "ok": True}, sort_keys=True))
    return result


if __name__ == "__main__":
    sys.exit(0 if main() is not None else 1)
