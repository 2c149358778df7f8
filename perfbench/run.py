#!/usr/bin/env python3
"""Benchmark of the uenl train/eval pipeline.

    python3 perfbench/run.py --workload desk --seed 0 --seconds 15 --trace 0

Runs, from the repository root, what ``uenl train`` followed by ``uenl eval``
runs: ``load_config`` with overrides, ``build_datasets``, ``train``, a JSON
checkpoint save and load, ``evaluate`` with all four score methods, and
``EvaluationReport.write``. It repeats that pipeline for ``--seconds`` and
checks every output. With ``--trace 0`` the last stdout line carries the
end-to-end metrics of BENCHMARK.json; with ``--trace 1`` it carries the
per-layer metrics of a separately traced pipeline. Earlier stdout lines
record the environment and output digests. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import CONFIG, MAX_SEED, WORKLOADS, overrides_for

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# One BLAS thread: today's matmul is einsum and uses none, and a later
# BLAS-backed matmul stays comparable on a machine shared with other jobs.
BLAS_THREADS = 1
# A fixed count, not a time share: the heap state, and so peak_rss_mb,
# then does not depend on how fast set-up ran.
SETUP_REPEATS = 20
TRACED_SEQUENCES = 2  # traced set-up + pipeline runs; counts must agree
COVERAGE_TOLERANCE = 0.10


class Aborted(Exception):
    """A pipeline stage raised; the stage is already recorded as failed."""


class Ledger:
    """Stages attempted, and the ones that raised or failed a check."""

    def __init__(self) -> None:
        self.stages: list[str] = []
        self.failures: dict[int, list[str]] = {}

    def begin(self, name: str) -> int:
        self.stages.append(name)
        return len(self.stages) - 1

    def check(self, stage: int, ok: bool, message: str) -> None:
        if not ok:
            self.failures.setdefault(stage, []).append(message)
            print(f"check failed [{self.stages[stage]}]: {message}", file=sys.stderr)

    @property
    def attempted(self) -> int:
        return len(self.stages)

    @property
    def failed(self) -> int:
        return len(self.failures)


class Bench:
    """One workload's set-up and pipeline, run through the ``uenl`` package
    API, with every stage recorded in a ledger."""

    def __init__(self, workload, seed: int, out_dir: Path, ledger: Ledger) -> None:
        import uenl

        self.uenl = uenl
        self.workload = workload
        shipped = json.loads((ROOT / CONFIG).read_text(encoding="utf-8"))
        self.overrides = overrides_for(workload, shipped, seed)
        self.out_dir = out_dir
        self.ledger = ledger

    def stage(self, name: str, fn, *args, tracer=None):
        """Run one stage; returns (stage index, result)."""
        idx = self.ledger.begin(name)
        try:
            result = tracer.span(name, fn, *args) if tracer is not None else fn(*args)
        except Exception as exc:  # any library error is a failed operation
            self.ledger.check(idx, False, f"raised {type(exc).__name__}: {exc}")
            raise Aborted from exc
        return idx, result

    def setup(self, tracer=None):
        _, config = self.stage("config.load", self.uenl.load_config, ROOT / CONFIG, self.overrides, tracer=tracer)
        _, bundle = self.stage("data.build_datasets", self.uenl.build_datasets, config, tracer=tracer)
        return config, bundle

    def pipeline(self, config, bundle, tracer=None) -> dict:
        """train -> save -> load -> evaluate -> write, as the CLI runs it."""
        ckpt_path = self.out_dir / "model.ckpt.json"
        report_dir = self.out_dir / "report"
        t0 = time.perf_counter()
        train_idx, checkpoint = self.stage("harness.train", self.uenl.train, config, bundle, tracer=tracer)
        t1 = time.perf_counter()
        save_idx, _ = self.stage("harness.ckpt_save", checkpoint.save, ckpt_path, tracer=tracer)
        _, loaded = self.stage("harness.ckpt_load", self.uenl.Checkpoint.load, ckpt_path, tracer=tracer)
        t2 = time.perf_counter()
        eval_idx, report = self.stage("harness.evaluate", self.uenl.evaluate, loaded, bundle, tracer=tracer)
        t3 = time.perf_counter()
        write_idx, paths = self.stage("harness.report_write", report.write, report_dir, tracer=tracer)
        t4 = time.perf_counter()

        ckpt = ckpt_path.read_bytes()
        report_sha = hashlib.sha256()
        report_bytes = 0
        for key in sorted(paths):
            data = Path(paths[key]).read_bytes()
            report_sha.update(key.encode() + b"\0" + data)
            report_bytes += len(data)
        return {
            "checkpoint": checkpoint,
            "report": report,
            "stages": {"train": train_idx, "save": save_idx, "evaluate": eval_idx, "write": write_idx},
            "train_s": t1 - t0,
            "eval_s": t3 - t2,
            "pipeline_s": t4 - t0,
            "ckpt_sha256": hashlib.sha256(ckpt).hexdigest(),
            "ckpt_bytes": len(ckpt),
            "report_sha256": report_sha.hexdigest(),
            "report_bytes": report_bytes,
        }

    def check_outputs(self, run: dict) -> None:
        import numpy as np

        check, stages, report = self.ledger.check, run["stages"], run["report"]
        for s in report.score_sets:
            for name, scores in [(s.id_name, s.id_scores), *s.ood_scores.items()]:
                check(stages["evaluate"], bool(np.all(np.isfinite(scores))), f"{s.method} scores on {name} not finite")
        for method, name, r in report.metric_rows:
            check(stages["evaluate"], 0.0 <= r.auroc <= 1.0, f"{method}/{name} AUROC {r.auroc} outside [0, 1]")
            check(stages["evaluate"], 0.0 <= r.fpr95 <= 1.0, f"{method}/{name} FPR95 {r.fpr95} outside [0, 1]")
        if self.workload.check_quality:
            loss = run["checkpoint"].train_loss[-1]
            check(stages["train"], loss < math.log(3.0), f"final train loss {loss} not below ln 3")
            err = report.id_error_rate
            check(stages["evaluate"], err <= 0.01, f"ID error {err} above 0.01")

    def check_same_bytes(self, run: dict, first: dict, what: str) -> None:
        check, stages = self.ledger.check, run["stages"]
        check(stages["save"], run["ckpt_sha256"] == first["ckpt_sha256"], f"checkpoint bytes differ from the {what}")
        check(stages["write"], run["report_sha256"] == first["report_sha256"], f"report bytes differ from the {what}")


def same_report(a, b) -> bool:
    import numpy as np

    if (a.metric_rows, a.id_error_rate, a.n_id_test, a.histograms) != (
        b.metric_rows,
        b.id_error_rate,
        b.n_id_test,
        b.histograms,
    ):
        return False
    if [s.method for s in a.score_sets] != [s.method for s in b.score_sets]:
        return False
    for x, y in zip(a.score_sets, b.score_sets):
        if list(x.ood_scores) != list(y.ood_scores) or not np.array_equal(x.id_scores, y.id_scores):
            return False
        if not all(np.array_equal(x.ood_scores[k], y.ood_scores[k]) for k in x.ood_scores):
            return False
    return True


def untraced_runs(bench: Bench, config, bundle, deadline: float) -> tuple[list[dict], list[float]]:
    """Pipelines until ``deadline`` (at least two), each followed by an
    evaluate of the in-memory checkpoint that must match the loaded one.
    Returns the pipeline runs and every evaluate time."""
    runs, eval_s, attempts = [], [], 0
    while attempts < 2 or time.perf_counter() < deadline:
        attempts += 1
        try:
            run = bench.pipeline(config, bundle)
            bench.check_outputs(run)
            t = time.perf_counter()
            idx, reference = bench.stage("harness.evaluate", bench.uenl.evaluate, run["checkpoint"], bundle)
            eval_s += [run["eval_s"], time.perf_counter() - t]
        except Aborted:
            continue
        bench.ledger.check(idx, same_report(reference, run["report"]), "evaluate of the in-memory checkpoint differs from the loaded one")
        if runs:
            bench.check_same_bytes(run, runs[0], "first run")
        run["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        runs.append(run)
        del run["checkpoint"], run["report"]  # keep one model in memory at a time
    return runs, eval_s


def end_to_end(bench: Bench, args, start: float) -> dict:
    setup_s = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        config, bundle = bench.setup()
        setup_s.append(time.perf_counter() - t)

    runs, eval_s = untraced_runs(bench, config, bundle, start + args.seconds)
    if not runs:
        raise Aborted
    train_s = [r["train_s"] for r in runs]
    pipeline_s = [r["pipeline_s"] for r in runs]
    eval_rows = (len(bundle.id_test) + sum(len(ds) for ds in bundle.ood.values())) * len(config.scoring.methods)
    info("samples_s", {k: sorted(round(x, 5) for x in v) for k, v in (("train", train_s), ("evaluate", eval_s), ("pipeline", pipeline_s))})
    info("sha256", {"checkpoint": runs[0]["ckpt_sha256"], "report": runs[0]["report_sha256"]})
    return {
        "setup_s": statistics.median(setup_s),
        "train_samples_per_s": config.epochs * len(bundle.id_train) / statistics.median(train_s),
        "eval_rows_per_s": eval_rows / statistics.median(eval_s),
        "pipeline_s": statistics.median(pipeline_s),
        # After the first run, not at exit: how many runs fit in --seconds
        # depends on speed, and later runs can move the peak.
        "peak_rss_mb": runs[0]["peak_rss_mb"],
    }


def layer_metrics(tr, run: dict, wall_s: float, untraced_pipeline_s: float) -> dict:
    from tracing import OPS

    TRAIN, EVAL = "harness.train", "harness.evaluate"
    steps = max(tr.total("optim.sgd_step", TRAIN)[0], 1)
    epochs, predict_s = tr.total("model.predict_classes", TRAIN, "")
    ms = lambda name, *where: 1e3 * tr.total(name, *where)[1]
    m = {
        "config.load_ms": ms("config.load"),
        "data.build_datasets_ms": ms("data.build_datasets"),
        "tensor.nodes_per_step": tr.total("tensor.apply.", TRAIN, "")[0] / steps,
        "model.predict_classes_ms_per_epoch": 1e3 * predict_s / max(epochs, 1),
        "scoring.forward_passes": tr.total("model.forward", EVAL)[0],
        "metrics.from_scores_ms": ms("metrics.from_scores", EVAL),
        "metrics.histogram_ms": ms("metrics.histogram", EVAL),
        "harness.ckpt_to_json_ms": ms("harness.ckpt_to_json"),
        "harness.ckpt_from_json_ms": ms("harness.ckpt_from_json"),
        "harness.ckpt_bytes": run["ckpt_bytes"],
        "harness.report_write_ms": ms("harness.report_write"),
        "harness.report_bytes": run["report_bytes"],
        "harness.train_self_ms": 1e3 * tr.self_time(TRAIN),
        "harness.evaluate_self_ms": 1e3 * tr.self_time(EVAL),
        "trace.overhead_frac": run["pipeline_s"] / untraced_pipeline_s - 1.0,
        "trace.coverage": tr.self_time() / wall_s,
    }
    for name in ("data.batch_iter", "optim.sgd_step", "losses.uenl_total", "model.forward_train",
                 "model.uncertainty_forward", "tensor.backward"):
        m[f"{name}_ms_per_step"] = ms(name, TRAIN, "") / steps
    for method in ("msp", "energy", "odin", "uncertainty"):
        m[f"scoring.{method}_ms"] = ms(f"scoring.{method}", EVAL)
    for op in OPS:
        calls, secs = tr.total(f"tensor.apply.{op}")
        m[f"tensor.apply.{op}.calls"] = calls
        m[f"tensor.apply.{op}_ms"] = 1e3 * secs
        m[f"tensor.vjp.{op}_ms"] = ms(f"tensor.vjp.{op}")
    return m


COUNTS = ("tensor.nodes_per_step", "scoring.forward_passes", "harness.ckpt_bytes", "harness.report_bytes")


def traced(bench: Bench, args, start: float) -> dict:
    """Untraced pipelines for half of --seconds, then TRACED_SEQUENCES pairs
    of an untraced pipeline and a traced set-up + pipeline, whose outputs
    must match the untraced bytes."""
    import tracing

    config, bundle = bench.setup()
    runs, _ = untraced_runs(bench, config, bundle, start + args.seconds / 2)
    if not runs:
        raise Aborted

    per_sequence = []
    for _ in range(TRACED_SEQUENCES):
        # An untraced run right before each traced one, so that
        # trace.overhead_frac compares runs close in time.
        untraced = bench.pipeline(config, bundle)
        bench.check_same_bytes(untraced, runs[0], "first run")
        tr = tracing.Tracer()
        installation = tracing.install(tr)
        try:
            t0 = time.perf_counter()
            config_t, bundle_t = bench.setup(tracer=tr)
            setup_s = time.perf_counter() - t0
            run = bench.pipeline(config_t, bundle_t, tracer=tr)
        finally:
            installation.uninstall()
        idx = bench.ledger.begin("trace")
        bench.ledger.check(idx, not installation.unrestored(), f"not restored: {installation.unrestored()}")
        bench.check_same_bytes(run, runs[0], "untraced run")
        m = layer_metrics(tr, run, setup_s + run["pipeline_s"], untraced["pipeline_s"])
        bench.ledger.check(
            idx,
            abs(m["trace.coverage"] - 1.0) <= COVERAGE_TOLERANCE,
            f"layer self-times cover {m['trace.coverage']:.3f} of the traced wall time",
        )
        counts = COUNTS + tuple(k for k in m if k.endswith(".calls"))
        if per_sequence:
            for key in counts:
                bench.ledger.check(idx, m[key] == per_sequence[0][key], f"{key} changed between traced runs")
        per_sequence.append(m)
        del run, untraced, config_t, bundle_t
    info("counts", {k: per_sequence[0][k] for k in COUNTS})
    return {k: m[k] if k in counts else statistics.fmean(s[k] for s in per_sequence) for k in m}


def info(key: str, value) -> None:
    print(json.dumps({key: value}), flush=True)


def environment() -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    sha, dirty = None, None
    if (ROOT / ".git").exists():
        try:
            git = ["git", "-C", str(ROOT)]
            sha = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True, text=True, timeout=30, check=True).stdout.strip()
            status = subprocess.run(git + ["status", "--porcelain"], capture_output=True, text=True, timeout=30, check=True)
            dirty = bool(status.stdout.strip())
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "git_sha": sha,
        "git_dirty": dirty,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "machine": platform.machine(),
        "processor": platform.processor() or None,
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0, help="shifts the config and data seeds; 0 keeps the shipped ones")
    p.add_argument("--seconds", type=float, default=10.0, help="how long to repeat the pipeline")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: report per-layer metrics of a traced run")
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    if not 0 <= args.seed < MAX_SEED:
        p.error(f"--seed must lie in [0, {MAX_SEED})")
    return args


def prepare() -> dict | None:
    """Pin the BLAS threads, make ``uenl`` importable from ``src/`` and
    return BENCHMARK.json; None (after printing why) if anything is missing."""
    for var in THREAD_VARS:  # before numpy loads its BLAS
        os.environ[var] = str(BLAS_THREADS)
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        (ROOT / CONFIG).stat()
        sys.path.insert(0, str(ROOT / "src"))
        import uenl

        if Path(uenl.__file__).resolve().parent != ROOT / "src" / "uenl":
            raise ImportError(f"uenl imported from {uenl.__file__}, not from this checkout")
    except (OSError, ValueError, ImportError) as exc:
        print(f"error: cannot load the benchmark or the uenl sources under {ROOT}: {exc}", file=sys.stderr)
        return None
    return spec


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = prepare()
    if spec is None:
        return 2

    start = time.perf_counter()
    info("env", environment())
    out_dir = ROOT / ".bench_out" / f"{args.workload}-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    ledger = Ledger()
    try:
        bench = Bench(WORKLOADS[args.workload], args.seed, out_dir, ledger)
        metrics = traced(bench, args, start) if args.trace else end_to_end(bench, args, start)
    except Aborted:
        print("error: a pipeline stage raised (see the failed checks above)", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        try:
            out_dir.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"error: benchmark computed no value for {missing}", file=sys.stderr)
        return 1
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
