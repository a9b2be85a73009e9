"""Command-line interface: quick looks at the reproduction's systems.

Subcommands:

* ``spaces`` — the Table 5 search spaces and their sizes;
* ``platforms`` — the built-in hardware configurations;
* ``roofline`` — place an MBConv / fused-MBConv block on a platform's
  roofline (the Figure 4 study for one block);
* ``cost`` — the Section 7.3 cost accounting for a training budget;
* ``search`` — a small end-to-end DLRM search (the quickstart);
  ``--telemetry-dir`` records metrics and an event log;
* ``elastic-train`` — train a once-for-all elastic supernet under the
  progressive-shrinking schedule, saved as a versioned artifact;
* ``specialize`` — policy-only search against a trained artifact for
  one hardware target (no weight updates, cache-hot);
* ``fleet`` — specialize the same artifact for every registered
  platform and print the per-device Pareto table;
* ``report telemetry`` — summarize a telemetry directory;
* ``perfmodel`` — two-phase performance-model training on a DLRM slice;
* ``serve`` — the persistent NAS service daemon (durable job queue,
  per-tenant quotas, shared worker pool; see :mod:`repro.service`);
* ``submit`` / ``status`` / ``results`` / ``cancel`` / ``jobs`` /
  ``drain`` — clients of a running daemon, JSON on stdout;
* ``worker`` — join a ``--backend distributed`` controller as a worker
  host (``--connect HOST:PORT``).

Conventions: errors go to **stderr** with a non-zero exit code (1 for
runtime/service failures, 2 for usage, 130 after a graceful SIGINT/
SIGTERM stop); stdout carries only results.  SIGTERM/SIGINT during
``search``/``search supervise`` finish the in-flight step, write a
final checkpoint, and exit cleanly — rerun with ``--resume`` (or the
supervisor) to continue.

Run ``python -m repro <subcommand> --help`` for options.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import pathlib
import sys
from typing import List, Optional

import numpy as np

from .analysis import format_report, format_table
from .core import H2ONas, NasCostModel, PerformanceObjective, SearchConfig
from .core.engine import BACKEND_NAMES
from .hardware import PLATFORMS, platform, simulate
from .models import MbconvSpec, single_block_graph
from .searchspace import per_block_cardinalities, table5_size_rows
from .searchspace import DlrmSpaceConfig, dlrm_search_space
from .service.jobs import (
    dlrm_search_builder,
    elastic_training_builder,
    fleet_sweep,
    platform_performance_fn,
    specialization_builder,
)
from .service.protocol import ServiceError

# Exit codes (stable, documented above): success / failure / usage /
# graceful interrupt (128 + SIGINT, the shell convention).
EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_INTERRUPTED = 130


class CliError(Exception):
    """A handler-level failure with a chosen exit code (stderr, no trace)."""

    def __init__(self, message: str, exit_code: int = EXIT_FAILURE):
        super().__init__(message)
        self.exit_code = exit_code


def positive_int(text: str) -> int:
    """Argparse type: an integer >= 1, rejected at parse time (exit 2)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def nonnegative_int(text: str) -> int:
    """Argparse type: an integer >= 0, rejected at parse time (exit 2)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def cmd_spaces(_args: argparse.Namespace) -> str:
    rows = table5_size_rows()
    blocks = per_block_cardinalities()
    out = format_table(
        ["space", "log10(size)", "paper log10"],
        [[name, f"{r.log10_size:.1f}", f"{r.paper_log10:.0f}"] for name, r in rows.items()],
    )
    out += "\nper-block: " + ", ".join(f"{k}={v:,}" for k, v in blocks.items())
    return out


def cmd_platforms(_args: argparse.Namespace) -> str:
    return format_table(
        ["platform", "matrix TFLOP/s", "HBM GB/s", "CMEM MB", "ICI GB/s", "max W"],
        [
            [
                cfg.name,
                cfg.peak_matrix_tflops,
                cfg.hbm_bandwidth_gbs,
                cfg.cmem_capacity_mb,
                cfg.ici_bandwidth_gbs,
                cfg.max_power_w,
            ]
            for cfg in PLATFORMS.values()
        ],
    )


def cmd_roofline(args: argparse.Namespace) -> str:
    hw = platform(args.platform)
    rows = []
    for block_type in ("mbconv", "fused_mbconv"):
        spec = MbconvSpec(block_type, args.depth, args.depth, se_ratio=0.0)
        graph = single_block_graph(spec, args.resolution, batch=args.batch)
        result = simulate(graph, hw)
        rows.append(
            [
                f"{'F-MBC' if block_type == 'fused_mbconv' else 'MBC'}({args.depth})",
                f"{graph.total_flops / graph.total_bytes:.1f}",
                f"{result.achieved_tflops:.1f}",
                f"{result.total_time_s * 1e3:.3f}",
            ]
        )
    return format_table(
        ["block", "intensity FLOPs/B", "attained TFLOP/s", "latency ms"], rows
    )


def cmd_cost(args: argparse.Namespace) -> str:
    model = NasCostModel(vanilla_training_hours=args.training_hours)
    return format_table(
        ["row", "value"],
        [
            ["one-shot search (x vanilla)", f"{1 + model.search_overhead:.1f}"],
            ["one-shot total incl. retrain (x vanilla)", f"{model.one_shot_multiple():.1f}"],
            ["one-shot total (hours)", f"{model.one_shot_hours():.0f}"],
            [
                f"multi-trial with {args.trials} trials (hours)",
                f"{model.multi_trial_hours(args.trials):.0f}",
            ],
            ["one-shot advantage", f"{model.one_shot_advantage(args.trials):.0f}x"],
        ],
    )


def _make_telemetry(args: argparse.Namespace):
    """The run's shared Telemetry, if ``--telemetry-dir`` was given."""
    telemetry_dir = getattr(args, "telemetry_dir", None)
    if telemetry_dir is None:
        return None
    from .telemetry import Telemetry

    return Telemetry(telemetry_dir)


@contextlib.contextmanager
def _search_session(args: argparse.Namespace):
    """What the search verbs share around their run.

    Yields ``(telemetry, store, should_stop, hint)``: the run's telemetry
    (``--telemetry-dir``), its checkpoint store (``--checkpoint-dir``),
    the graceful-shutdown poll, and the line that tells the user where
    the telemetry went (empty without any).  A SIGINT/SIGTERM stop
    leaves as exit 130; telemetry is closed either way.
    """
    from .runtime import CheckpointStore, GracefulShutdown, SearchInterrupted

    telemetry = _make_telemetry(args)
    hint = "" if telemetry is None else (
        f"\ntelemetry written to {args.telemetry_dir} "
        f"(view with: python -m repro report telemetry {args.telemetry_dir})"
    )
    try:
        store = None
        if args.checkpoint_dir is not None:
            store = CheckpointStore(
                args.checkpoint_dir, keep_last=args.keep_last, telemetry=telemetry
            )
        with GracefulShutdown() as shutdown:
            yield telemetry, store, shutdown.should_stop, hint
    except SearchInterrupted as stop:
        raise CliError(str(stop), EXIT_INTERRUPTED) from None
    finally:
        if telemetry is not None:
            telemetry.close()


def cmd_search(args: argparse.Namespace) -> str:
    from .runtime import run_with_checkpoints

    with _search_session(args) as (telemetry, store, should_stop, hint):
        space, factory = dlrm_search_builder(
            args.steps, args.seed, args.cache, telemetry=telemetry,
            backend=args.backend, workers=args.workers,
        )
        result = run_with_checkpoints(
            factory().search_algorithm,
            store,
            checkpoint_every=args.checkpoint_every,
            resume=args.resume,
            should_stop=should_stop,
        ).result
    out = format_report(space, result)
    if result.eval_stats is not None:
        out += f"\neval runtime: {result.eval_stats.summary()}"
    return out + hint


def cmd_supervise(args: argparse.Namespace) -> str:
    from .runtime import FaultInjector, FaultSpec, SearchSupervisor, SupervisorConfig

    injector = None
    if args.inject_crash_at:
        injector = FaultInjector(
            [FaultSpec("crash", step=k) for k in args.inject_crash_at],
            seed=args.seed,
        )
    with _search_session(args) as (telemetry, store, should_stop, hint):
        space, factory = dlrm_search_builder(
            args.steps, args.seed, args.cache, telemetry=telemetry,
            backend=args.backend, workers=args.workers,
        )
        supervised = SearchSupervisor(
            lambda: factory().search_algorithm,
            store,
            config=SupervisorConfig(
                checkpoint_every=args.checkpoint_every,
                max_restarts=args.max_restarts,
                backoff_base_s=args.backoff_base_s,
            ),
            injector=injector,
            should_stop=should_stop,
        ).run()
    out = format_report(space, supervised.result)
    out += "\n" + format_table(
        ["attempt", "start step", "steps", "outcome", "backoff s"],
        [
            [
                a.attempt,
                "-" if a.start_step is None else a.start_step,
                a.steps_completed,
                a.outcome if a.error is None else f"{a.outcome}: {a.error}",
                f"{a.backoff_s:.2f}",
            ]
            for a in supervised.attempts
        ],
    )
    out += (
        f"\nrestarts: {supervised.restarts}"
        f"  heartbeats: {supervised.heartbeats}"
        f"  steps replayed: {supervised.steps_replayed}"
        f"  snapshots (final attempt): {supervised.snapshots_written}"
    )
    return out + hint


def cmd_elastic_train(args: argparse.Namespace) -> str:
    from .runtime import run_with_checkpoints, save_elastic_artifact

    with _search_session(args) as (telemetry, store, should_stop, hint):
        space, schedule, factory = elastic_training_builder(
            args.steps, args.seed, args.cache, telemetry=telemetry,
            backend=args.backend, workers=args.workers,
        )
        engine = factory()
        run = run_with_checkpoints(
            engine,
            store,
            checkpoint_every=args.checkpoint_every,
            resume=args.resume,
            should_stop=should_stop,
        )
    artifact = save_elastic_artifact(
        args.artifact_dir,
        engine.supernet,
        space,
        schedule,
        trained_steps=args.steps,
        seed=args.seed,
        metadata={"workload": "dlrm_quickstart"},
    )
    history = run.result.history
    lines = [
        f"elastic training: {len(history)} steps over {space.name} "
        f"({schedule!r})",
        format_table(
            ["phase", "starts at", "free tags"],
            [
                [p.name, p.start_step, ", ".join(p.free_tags) or "-"]
                for p in schedule.phases
            ],
        ),
        f"quality: {history[0].mean_quality:.4f} -> "
        f"{history[-1].mean_quality:.4f}",
        f"artifact: {artifact.directory}  (weights sha256 "
        f"{artifact.weights_sha[:12]}..., snapshot {artifact.snapshot_id})",
        "specialize with: python -m repro specialize "
        f"--artifact {artifact.directory} --platform <name>",
    ]
    return "\n".join(lines) + hint


def cmd_specialize(args: argparse.Namespace) -> str:
    from .runtime import run_with_checkpoints

    with _search_session(args) as (telemetry, store, should_stop, hint):
        space, factory = specialization_builder(
            args.artifact, args.platform, args.steps, args.seed, args.cache,
            telemetry=telemetry, backend=args.backend, workers=args.workers,
        )
        result = run_with_checkpoints(
            factory(),
            store,
            checkpoint_every=args.checkpoint_every,
            resume=args.resume,
            should_stop=should_stop,
        ).result
    out = format_report(space, result)
    harness, _, _ = platform_performance_fn(space, args.platform)
    # all three heads, not the two the search's own pricing callable reads
    metrics = harness.metrics_from_simulator(result.final_architecture)
    out += (
        f"\non {harness.serve_hw.name}: "
        f"serving latency {metrics['serving_latency'] * 1e3:.3f}ms  "
        f"train step {metrics['train_step_time'] * 1e3:.3f}ms  "
        f"model size {metrics['model_size'] / 1e6:.1f}MB"
    )
    return out + hint


def cmd_fleet(args: argparse.Namespace) -> str:
    from .analysis import fleet_table
    from .runtime import load_elastic_artifact

    artifact = load_elastic_artifact(args.artifact)
    entries = fleet_sweep(
        args.artifact,
        args.steps,
        args.seed,
        platforms=args.platforms or None,
        use_cache=args.cache,
        backend=args.backend,
        workers=args.workers,
    )
    out = (
        f"fleet sweep from {artifact.directory} "
        f"(trained {artifact.trained_steps} steps, weights sha256 "
        f"{artifact.weights_sha[:12]}...):\n"
    )
    out += fleet_table(entries)
    starred = [e.platform for e in entries if e.pareto]
    out += "\n* = fleet Pareto front on (quality, serving latency): "
    out += ", ".join(starred) if starred else "(empty)"
    return out


def cmd_report_telemetry(args: argparse.Namespace) -> str:
    from .telemetry.report import render_report

    if not pathlib.Path(args.directory).is_dir():
        raise CliError(f"no telemetry directory at {args.directory}")
    return render_report(args.directory).rstrip("\n")


def cmd_perfmodel(args: argparse.Namespace) -> str:
    from .models import baseline_production_dlrm
    from .models.timing import DlrmTimingHarness
    from .perfmodel import (
        ArchitectureEncoder,
        PerformanceModel,
        TwoPhaseConfig,
        TwoPhaseTrainer,
    )

    space = dlrm_search_space(
        DlrmSpaceConfig(num_tables=args.tables, num_dense_stacks=2)
    )
    harness = DlrmTimingHarness(
        baseline_production_dlrm(num_tables=args.tables), seed=args.seed
    )
    model = PerformanceModel(
        ArchitectureEncoder(space),
        hidden_sizes=(128, 128),
        size_fn=harness.model_size,
        seed=args.seed,
    )
    trainer = TwoPhaseTrainer(
        model,
        space,
        simulate_fn=harness.simulate,
        measure_fn=harness.measure,
        config=TwoPhaseConfig(
            pretrain_epochs=args.epochs,
            finetune_epochs=100,
            finetune_lr=5e-5,
        ),
        seed=args.seed,
    )
    pre_report = trainer.pretrain(args.samples)
    pretrain_on_hw = trainer.evaluate(100, harness.measure_deterministic)
    trainer.finetune(20)
    finetuned_on_hw = trainer.evaluate(100, harness.measure_deterministic)
    return format_table(
        ["row", "value"],
        [
            ["simulator samples", args.samples],
            ["NRMSE on pretraining samples", f"{pre_report.nrmse_train_head:.2%}"],
            ["NRMSE of pretrained model on hw", f"{pretrain_on_hw[0]:.2%}"],
            ["NRMSE of finetuned model on hw", f"{finetuned_on_hw[0]:.2%}"],
            ["NRMSE of finetuned model on hw (serve)", f"{finetuned_on_hw[1]:.2%}"],
        ],
    )


# ----------------------------------------------------------------------
# Service subcommands
# ----------------------------------------------------------------------
def _resolve_socket(args: argparse.Namespace) -> str:
    """Socket path from ``--socket`` or ``--spool`` (usage error if neither)."""
    from .service.daemon import SOCKET_NAME

    if getattr(args, "socket", None):
        return args.socket
    if getattr(args, "spool", None):
        return str(pathlib.Path(args.spool) / SOCKET_NAME)
    raise CliError(
        "provide --socket PATH or --spool DIR to locate the daemon", EXIT_USAGE
    )


def _client(args: argparse.Namespace):
    from .service.client import ServiceClient

    return ServiceClient(_resolve_socket(args), timeout=args.timeout)


def cmd_serve(args: argparse.Namespace) -> str:
    from .service.daemon import DaemonConfig, ServiceDaemon
    from .service.scheduler import SchedulerConfig

    config = DaemonConfig(
        spool=args.spool,
        socket_path=args.socket,
        scheduler=SchedulerConfig(
            max_concurrent=args.max_concurrent,
            max_queue_depth=args.max_queue_depth,
            tenant_max_running=args.tenant_max_running,
            tenant_max_queued=args.tenant_max_queued,
            backend=args.backend,
            workers=args.workers,
        ),
    )
    daemon = ServiceDaemon(config)
    print(
        f"repro service daemon listening on {daemon.socket_path} "
        f"(spool: {daemon.spool})",
        file=sys.stderr,
        flush=True,
    )
    summary = daemon.serve()
    return "drained: " + json.dumps(summary, sort_keys=True)


def cmd_submit(args: argparse.Namespace) -> str:
    client = _client(args)
    spec = {
        "kind": "dlrm_quickstart",
        "steps": args.steps,
        "seed": args.seed,
        "cache": args.cache,
        "checkpoint_every": args.checkpoint_every,
        "step_sleep_s": args.step_sleep_s,
    }
    record = client.submit(args.tenant, spec)
    if args.wait:
        record = client.wait(record["job_id"], timeout=args.timeout)
        if record["state"] != "done":
            print(json.dumps(record, indent=2, sort_keys=True))
            raise CliError(
                f"{record['job_id']} finished as {record['state']}"
                + (f": {record['error']}" if record.get("error") else "")
            )
    return json.dumps(record, indent=2, sort_keys=True)


def cmd_status(args: argparse.Namespace) -> str:
    return json.dumps(_client(args).status(args.job_id), indent=2, sort_keys=True)


def cmd_results(args: argparse.Namespace) -> str:
    return json.dumps(_client(args).results(args.job_id), indent=2, sort_keys=True)


def cmd_cancel(args: argparse.Namespace) -> str:
    return json.dumps(_client(args).cancel(args.job_id), indent=2, sort_keys=True)


def cmd_jobs(args: argparse.Namespace) -> str:
    records = _client(args).list_jobs(
        tenant=args.tenant, states=args.state if args.state else None
    )
    return json.dumps(records, indent=2, sort_keys=True)


def cmd_drain(args: argparse.Namespace) -> str:
    return json.dumps(_client(args).drain(), indent=2, sort_keys=True)


def cmd_worker(args: argparse.Namespace) -> str:
    from .core.engine.distributed import run_worker

    print(
        f"repro worker connecting to {args.connect}"
        + (f" (max tasks: {args.max_tasks})" if args.max_tasks else ""),
        file=sys.stderr,
        flush=True,
    )
    try:
        executed = run_worker(
            args.connect,
            worker_id=args.worker_id,
            max_tasks=args.max_tasks,
            connect_timeout=args.timeout,
        )
    except ConnectionError as error:
        raise CliError(f"could not reach controller at {args.connect}: {error}")
    return f"worker exited after {executed} tasks"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="H2O-NAS reproduction (ASPLOS 2023) command-line tools",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("spaces", help="Table 5 search spaces and sizes").set_defaults(
        handler=cmd_spaces
    )
    sub.add_parser("platforms", help="built-in hardware configs").set_defaults(
        handler=cmd_platforms
    )
    roofline = sub.add_parser("roofline", help="MBConv vs fused MBConv on a platform")
    roofline.add_argument("--platform", default="tpu_v4i", choices=sorted(PLATFORMS))
    roofline.add_argument("--depth", type=positive_int, default=64)
    roofline.add_argument("--resolution", type=positive_int, default=56)
    roofline.add_argument("--batch", type=positive_int, default=64)
    roofline.set_defaults(handler=cmd_roofline)

    cost = sub.add_parser("cost", help="Section 7.3 cost accounting")
    cost.add_argument("--training-hours", type=float, default=1000.0)
    cost.add_argument("--trials", type=positive_int, default=100)
    cost.set_defaults(handler=cmd_cost)

    search = sub.add_parser("search", help="small end-to-end DLRM search")

    def add_search_args(p, checkpoint_dir_required: bool) -> None:
        p.add_argument("--steps", type=positive_int, default=60)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument(
            "--cache",
            action=argparse.BooleanOptionalAction,
            default=True,
            help="memoize candidate pricing by decision indices (--no-cache to disable)",
        )
        p.add_argument(
            "--checkpoint-dir",
            default=None,
            required=checkpoint_dir_required,
            help="snapshot full search state into this directory",
        )
        p.add_argument(
            "--checkpoint-every",
            type=positive_int,
            default=10,
            help="steps between snapshots",
        )
        p.add_argument(
            "--keep-last",
            type=positive_int,
            default=3,
            help="snapshots retained in the checkpoint directory",
        )
        p.add_argument(
            "--telemetry-dir",
            default=None,
            help="record run telemetry (metrics summary + event log) "
            "into this directory; view with 'report telemetry'",
        )
        p.add_argument(
            "--backend",
            choices=list(BACKEND_NAMES),
            default=None,
            help="execution backend for per-core shard work "
            "(default: $REPRO_BACKEND, then serial); all backends "
            "produce bit-identical results — processes runs GIL-free "
            "across cores with supernet weights in shared memory",
        )
        p.add_argument(
            "--workers",
            type=positive_int,
            default=None,
            help="worker count for --backend threads/processes/distributed "
            "(default: $REPRO_WORKERS, then min(4, cpu cores)); must be >= 1",
        )

    add_search_args(search, checkpoint_dir_required=False)
    search.add_argument(
        "--resume",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="resume from the newest good snapshot in --checkpoint-dir",
    )
    search.set_defaults(handler=cmd_search)

    search_sub = search.add_subparsers(dest="search_command")
    supervise = search_sub.add_parser(
        "supervise",
        help="run the search under the fault-tolerant supervisor "
        "(bounded restarts, resume from checkpoints)",
    )
    add_search_args(supervise, checkpoint_dir_required=True)
    supervise.add_argument(
        "--max-restarts",
        type=nonnegative_int,
        default=5,
        help="restart budget before giving up",
    )
    supervise.add_argument(
        "--backoff-base-s",
        type=float,
        default=0.05,
        help="base of the exponential restart backoff",
    )
    supervise.add_argument(
        "--inject-crash-at",
        type=int,
        nargs="*",
        default=[],
        metavar="STEP",
        help="inject a deterministic crash before each listed step "
        "(fault-tolerance demo)",
    )
    supervise.set_defaults(handler=cmd_supervise)

    elastic_train = sub.add_parser(
        "elastic-train",
        help="train a once-for-all elastic supernet, save it as an artifact",
    )
    add_search_args(elastic_train, checkpoint_dir_required=False)
    elastic_train.add_argument(
        "--artifact-dir",
        required=True,
        help="write the trained elastic artifact (weights + manifest) here",
    )
    elastic_train.add_argument(
        "--resume",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="resume from the newest good snapshot in --checkpoint-dir",
    )
    elastic_train.set_defaults(handler=cmd_elastic_train)

    specialize = sub.add_parser(
        "specialize",
        help="policy-only search against a trained elastic artifact "
        "for one hardware target",
    )
    add_search_args(specialize, checkpoint_dir_required=False)
    specialize.add_argument(
        "--artifact",
        required=True,
        help="elastic artifact directory written by elastic-train",
    )
    specialize.add_argument(
        "--platform",
        required=True,
        help=f"hardware target ({', '.join(sorted(PLATFORMS))}; "
        "common aliases accepted)",
    )
    specialize.add_argument(
        "--resume",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="resume from the newest good snapshot in --checkpoint-dir",
    )
    specialize.set_defaults(handler=cmd_specialize)

    fleet = sub.add_parser(
        "fleet",
        help="specialize one trained artifact for every fleet platform "
        "and print the per-device Pareto table",
    )
    fleet.add_argument(
        "--artifact",
        required=True,
        help="elastic artifact directory written by elastic-train",
    )
    fleet.add_argument("--steps", type=positive_int, default=20)
    fleet.add_argument("--seed", type=int, default=0)
    fleet.add_argument(
        "--platforms",
        nargs="*",
        default=[],
        metavar="NAME",
        help="subset of platforms to sweep (default: all registered)",
    )
    fleet.add_argument(
        "--cache", action=argparse.BooleanOptionalAction, default=True
    )
    fleet.add_argument("--backend", choices=list(BACKEND_NAMES), default=None)
    fleet.add_argument("--workers", type=positive_int, default=None)
    fleet.set_defaults(handler=cmd_fleet)

    report = sub.add_parser(
        "report", help="render reports from run artifacts"
    )
    report_sub = report.add_subparsers(dest="report_command", required=True)
    report_telemetry = report_sub.add_parser(
        "telemetry",
        help="summarize a --telemetry-dir (counters, spans, event log)",
    )
    report_telemetry.add_argument(
        "directory", help="telemetry directory a run wrote with --telemetry-dir"
    )
    report_telemetry.set_defaults(handler=cmd_report_telemetry)

    perfmodel = sub.add_parser(
        "perfmodel", help="two-phase performance-model training (Table 1, small)"
    )
    perfmodel.add_argument("--samples", type=positive_int, default=2000)
    perfmodel.add_argument("--tables", type=positive_int, default=4)
    perfmodel.add_argument("--epochs", type=positive_int, default=30)
    perfmodel.add_argument("--seed", type=int, default=0)
    perfmodel.set_defaults(handler=cmd_perfmodel)

    # -- service ---------------------------------------------------------
    serve = sub.add_parser(
        "serve",
        help="run the persistent NAS service daemon (durable queue, "
        "quotas, shared worker pool); SIGTERM drains gracefully",
    )
    serve.add_argument(
        "--spool",
        required=True,
        help="service state directory (job records, per-job runs, socket)",
    )
    serve.add_argument(
        "--socket",
        default=None,
        help="Unix socket path (default: <spool>/daemon.sock)",
    )
    serve.add_argument("--max-concurrent", type=positive_int, default=2,
                       help="searches running simultaneously")
    serve.add_argument("--max-queue-depth", type=positive_int, default=64,
                       help="queued jobs across all tenants before rejects")
    serve.add_argument("--tenant-max-running", type=positive_int, default=2,
                       help="running jobs one tenant may hold")
    serve.add_argument("--tenant-max-queued", type=positive_int, default=8,
                       help="queued jobs one tenant may hold")
    serve.add_argument(
        "--backend",
        choices=list(BACKEND_NAMES),
        default=None,
        help="execution backend for shard fan-out inside each job "
        "(default: $REPRO_BACKEND, then serial)",
    )
    serve.add_argument("--workers", type=positive_int, default=None,
                       help="worker-pool size for pooled backends; must be >= 1")
    serve.set_defaults(handler=cmd_serve)

    def add_client_args(p) -> None:
        p.add_argument("--socket", default=None, help="daemon socket path")
        p.add_argument(
            "--spool", default=None,
            help="daemon spool dir (socket defaults to <spool>/daemon.sock)",
        )
        p.add_argument("--timeout", type=float, default=60.0,
                       help="client timeout in seconds")

    submit = sub.add_parser("submit", help="submit a search job to the daemon")
    add_client_args(submit)
    submit.add_argument("--tenant", default="default", help="tenant the job bills to")
    submit.add_argument("--steps", type=positive_int, default=20)
    submit.add_argument("--seed", type=int, default=0)
    submit.add_argument(
        "--cache", action=argparse.BooleanOptionalAction, default=True,
        help="memoize candidate pricing (--no-cache to disable)",
    )
    submit.add_argument("--checkpoint-every", type=positive_int, default=1,
                        help="steps between the job's durable snapshots")
    submit.add_argument("--step-sleep-s", type=float, default=0.0,
                        help="artificial per-step latency (testing/benchmarks)")
    submit.add_argument("--wait", action="store_true",
                        help="poll until the job reaches a terminal state")
    submit.set_defaults(handler=cmd_submit)

    status = sub.add_parser("status", help="show one job's record")
    add_client_args(status)
    status.add_argument("job_id")
    status.set_defaults(handler=cmd_status)

    results = sub.add_parser("results", help="fetch a done job's results payload")
    add_client_args(results)
    results.add_argument("job_id")
    results.set_defaults(handler=cmd_results)

    cancel = sub.add_parser(
        "cancel",
        help="cancel a job (queued: now; running: at its next step "
        "boundary, after a final checkpoint)",
    )
    add_client_args(cancel)
    cancel.add_argument("job_id")
    cancel.set_defaults(handler=cmd_cancel)

    jobs = sub.add_parser("jobs", help="list jobs (optionally filtered)")
    add_client_args(jobs)
    jobs.add_argument("--tenant", default=None)
    jobs.add_argument(
        "--state", action="append", default=None, metavar="STATE",
        help="filter by state (repeatable): queued/running/done/failed/cancelled",
    )
    jobs.set_defaults(handler=cmd_jobs)

    drain = sub.add_parser(
        "drain",
        help="gracefully stop the daemon: no new admissions, running "
        "jobs checkpoint and re-queue, then the daemon exits",
    )
    add_client_args(drain)
    drain.set_defaults(handler=cmd_drain)

    worker = sub.add_parser(
        "worker",
        help="join a distributed-backend controller as a worker host: "
        "rehydrates supernets from controller broadcasts and scores "
        "stage tasks until the controller shuts down",
    )
    worker.add_argument(
        "--connect",
        required=True,
        metavar="HOST:PORT",
        help="controller address (a search running --backend distributed "
        "prints/binds one; see DistributedBackend.address)",
    )
    worker.add_argument(
        "--worker-id",
        default=None,
        help="label for this worker in controller telemetry "
        "(default: <hostname>/<pid>)",
    )
    worker.add_argument(
        "--max-tasks",
        type=positive_int,
        default=None,
        help="exit abruptly after this many tasks — a deterministic "
        "host-loss injection for resilience testing",
    )
    worker.add_argument(
        "--timeout", type=float, default=10.0, help="connect timeout in seconds"
    )
    worker.set_defaults(handler=cmd_worker)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        out = args.handler(args)
    except CliError as error:
        print(f"error: {error}" if error.exit_code != EXIT_INTERRUPTED
              else f"interrupted: {error}", file=sys.stderr)
        return error.exit_code
    except ServiceError as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_FAILURE
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED
    except (ValueError, OSError, RuntimeError) as error:
        # Operational failures (bad paths, corrupt artifacts, exhausted
        # restart budgets) are reported, not stack-traced; genuine bugs
        # (TypeError, KeyError, ...) still traceback loudly.
        print(f"error: {type(error).__name__}: {error}", file=sys.stderr)
        return EXIT_FAILURE
    if out:
        try:
            print(out)
            sys.stdout.flush()
        except BrokenPipeError:
            # Reader (e.g. `head`) closed the pipe; silence the
            # interpreter's exit-time flush and exit quietly.
            import os

            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return EXIT_OK


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
