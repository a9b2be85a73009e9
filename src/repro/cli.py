"""Command-line interface: quick looks at the reproduction's systems.

Subcommands:

* ``spaces`` / ``platforms`` — the Table 5 search spaces and the
  built-in hardware configurations;
* ``roofline`` — place an MBConv / fused-MBConv block on a platform's
  roofline (the Figure 4 study for one block);
* ``cost`` — the Section 7.3 cost accounting for a training budget;
* ``search`` (the quickstart DLRM search), ``elastic-train`` (a
  once-for-all elastic supernet, saved as a versioned artifact) and
  ``specialize`` (a policy-only search against that artifact for one
  hardware target) — one job kind each (:mod:`repro.service.jobs`):
  flags -> :class:`~repro.service.jobs.JobSpec` -> the one executor,
  ``run_spec`` -> the verb's report; ``search supervise`` restarts the
  same spec's engine under the fault-tolerant supervisor;
  ``--telemetry-dir`` records metrics and an event log;
* ``fleet`` — one ``specialize`` spec per registered platform, all
  validated before the first runs, and the per-device Pareto table;
* ``report telemetry`` — summarize a telemetry directory;
* ``perfmodel`` — two-phase performance-model training on a DLRM slice;
* ``serve`` — the persistent NAS service daemon (durable job queue,
  per-tenant quotas, a process per job; see :mod:`repro.service`);
* ``submit`` (every ``JobSpec`` field a flag, declared once in
  :data:`SPEC_FLAGS` as for the search verbs, ``--kind`` included) /
  ``status`` / ``results`` / ``cancel`` / ``jobs`` / ``drain`` —
  clients of a running daemon, JSON on stdout;
* ``worker`` — join a ``--backend distributed`` controller as a worker
  host (``--connect HOST:PORT``).

Conventions: errors go to **stderr** with a non-zero exit code (1 for
runtime/service failures, 2 for usage — a spec ``JobSpec`` refuses
included, 130 after a graceful SIGINT/SIGTERM stop); stdout carries
only results.  SIGTERM/SIGINT during a search verb finish the in-flight
step, write a final checkpoint, and exit cleanly — rerun with
``--resume`` (or the supervisor) to continue.

Run ``python -m repro <subcommand> --help`` for options.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import pathlib
import sys
from dataclasses import fields
from typing import List, Optional

from .analysis import format_report, format_table
from .core import NasCostModel
from .core.engine import BACKEND_NAMES
from .hardware import PLATFORMS, platform, simulate
from .models import MbconvSpec, single_block_graph
from .searchspace import per_block_cardinalities, table5_size_rows
from .searchspace import DlrmSpaceConfig, dlrm_search_space
from .service.jobs import (
    JOB_KINDS,
    JobSpec,
    build_job,
    fleet_sweep,
    platform_performance_fn,
    run_spec,
)
from .service.protocol import JobSpecError, ServiceError

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


def _int_at_least(low: int):
    """Argparse type: an integer >= ``low``, rejected at parse time (exit 2)."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    return parse


positive_int, nonnegative_int = _int_at_least(1), _int_at_least(0)


#: Each :class:`JobSpec` field's flag, declared once.  A verb takes the
#: fields it runs with, at the defaults it names (``JobSpec``'s if none).
SPEC_FLAGS = {
    "--kind": dict(choices=JOB_KINDS, help="what the job runs"),
    "--steps": dict(type=positive_int),
    "--seed": dict(type=int),
    "--cache": dict(action=argparse.BooleanOptionalAction, help="memoize candidate "
                    "pricing by decision indices (--no-cache to disable)"),
    "--checkpoint-every": dict(type=positive_int, help="steps between snapshots"),
    "--step-sleep-s": dict(type=float, help="artificial per-step latency (testing/benchmarks)"),
    "--artifact": dict(help="elastic artifact directory written by elastic-train"),
    "--platform": dict(help=f"hardware target ({', '.join(sorted(PLATFORMS))}; "
                       "common aliases accepted)"),
}


def add_spec_args(parser, *flags: str, required: bool = False, **defaults) -> None:
    for flag in flags:
        name = flag[2:].replace("-", "_")
        default = defaults.get(name, getattr(JobSpec, name))
        parser.add_argument(flag, default=default, required=required, **SPEC_FLAGS[flag])


def add_backend_args(parser) -> None:
    parser.add_argument(
        "--backend", choices=list(BACKEND_NAMES), default=None,
        help="execution backend for per-core shard work "
        "(default: $REPRO_BACKEND, then serial); all backends "
        "produce bit-identical results — processes runs GIL-free "
        "across cores with supernet weights in shared memory",
    )
    parser.add_argument(
        "--workers", type=positive_int, default=None,
        help="worker count for --backend processes/distributed "
        "(default: $REPRO_WORKERS, then min(4, cpu cores)); must be >= 1",
    )


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


@contextlib.contextmanager
def _search_session(args: argparse.Namespace):
    """What the search verbs share around their run.

    Yields ``(telemetry, store, should_stop)``: the run's telemetry
    (``--telemetry-dir``), its checkpoint store (``--checkpoint-dir``)
    and the graceful-shutdown poll.  A SIGINT/SIGTERM stop leaves as
    exit 130; telemetry is closed either way.
    """
    from .runtime import CheckpointStore, GracefulShutdown, SearchInterrupted
    from .telemetry import Telemetry

    telemetry = None if args.telemetry_dir is None else Telemetry(args.telemetry_dir)
    try:
        store = None
        if args.checkpoint_dir is not None:
            store = CheckpointStore(
                args.checkpoint_dir, keep_last=args.keep_last, telemetry=telemetry
            )
        with GracefulShutdown() as shutdown:
            yield telemetry, store, shutdown.should_stop
    except SearchInterrupted as stop:
        raise CliError(str(stop), EXIT_INTERRUPTED) from None
    finally:
        if telemetry is not None:
            telemetry.close()


def _telemetry_hint(args: argparse.Namespace) -> str:
    """The line that tells the user where the telemetry went (or none)."""
    if args.telemetry_dir is None:
        return ""
    return (
        f"\ntelemetry written to {args.telemetry_dir} "
        f"(view with: python -m repro report telemetry {args.telemetry_dir})"
    )


def _spec(args: argparse.Namespace) -> JobSpec:
    """The :class:`JobSpec` a verb's flags describe (its ``kind`` included)."""
    values = {f.name: getattr(args, f.name) for f in fields(JobSpec) if hasattr(args, f.name)}
    return JobSpec(**values)


def _run(args: argparse.Namespace):
    """Flags -> :class:`JobSpec` -> the one executor: ``(space, engine, result)``."""
    spec = _spec(args)
    with _search_session(args) as (telemetry, store, should_stop):
        return run_spec(
            spec, store, telemetry, resume=args.resume, should_stop=should_stop,
            backend=args.backend, workers=args.workers,
            artifact_dir=getattr(args, "artifact_dir", None),
        )


def cmd_search(args: argparse.Namespace) -> str:
    space, _, result = _run(args)
    out = format_report(space, result)
    if result.eval_stats is not None:
        out += f"\neval runtime: {result.eval_stats.summary()}"
    return out + _telemetry_hint(args)


def cmd_supervise(args: argparse.Namespace) -> str:
    from .runtime import FaultInjector, FaultSpec, SearchSupervisor, SupervisorConfig

    spec = _spec(args)
    injector = None
    if args.inject_crash_at:
        injector = FaultInjector(
            [FaultSpec("crash", step=k) for k in args.inject_crash_at],
            seed=args.seed,
        )
    with _search_session(args) as (telemetry, store, should_stop):
        space, factory = build_job(spec, telemetry, args.backend, args.workers)
        supervised = SearchSupervisor(
            factory,
            store,
            config=SupervisorConfig(
                checkpoint_every=spec.checkpoint_every,
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
    return out + _telemetry_hint(args)


def cmd_elastic_train(args: argparse.Namespace) -> str:
    from .runtime import load_elastic_artifact

    space, engine, result = _run(args)
    artifact = load_elastic_artifact(args.artifact_dir)
    schedule, history = engine.schedule, result.history
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
    return "\n".join(lines) + _telemetry_hint(args)


def cmd_specialize(args: argparse.Namespace) -> str:
    space, _, result = _run(args)
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
    return out + _telemetry_hint(args)


def cmd_fleet(args: argparse.Namespace) -> str:
    from .analysis import fleet_table
    from .runtime import load_elastic_artifact

    artifact = load_elastic_artifact(args.artifact)
    entries = fleet_sweep(
        args.artifact, args.steps, args.seed, platforms=args.platforms or None,
        use_cache=args.cache, backend=args.backend, workers=args.workers,
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
        ),
    )
    daemon = ServiceDaemon(config)
    summary = daemon.serve(
        on_listening=lambda: print(
            f"repro service daemon listening on {daemon.socket_path} "
            f"(spool: {daemon.spool})",
            file=sys.stderr,
            flush=True,
        )
    )
    return "drained: " + json.dumps(summary, sort_keys=True)


def cmd_submit(args: argparse.Namespace) -> str:
    spec = _spec(args)  # an invalid spec is refused here, before any socket
    client = _client(args)
    record = client.submit(args.tenant, spec.to_dict())
    if args.wait:
        record = client.wait(record["job_id"], timeout=args.timeout)
        if record["state"] != "done":
            print(json.dumps(record, indent=2, sort_keys=True))
            raise CliError(
                f"{record['job_id']} finished as {record['state']}"
                + (f": {record['error']}" if record.get("error") else "")
            )
    return json.dumps(record, indent=2, sort_keys=True)


def cmd_job(args: argparse.Namespace) -> str:
    """``status`` / ``results`` / ``cancel``: the client call of that name."""
    reply = getattr(_client(args), args.command)(args.job_id)
    return json.dumps(reply, indent=2, sort_keys=True)


def cmd_jobs(args: argparse.Namespace) -> str:
    records = _client(args).list_jobs(
        tenant=args.tenant, states=args.state if args.state else None
    )
    return json.dumps(records, indent=2, sort_keys=True)


def cmd_drain(args: argparse.Namespace) -> str:
    return json.dumps(_client(args).drain(), indent=2, sort_keys=True)


def cmd_worker(args: argparse.Namespace) -> str:
    from .core.engine.distributed import WorkerHost

    print(f"repro worker connecting to {args.connect}", file=sys.stderr, flush=True)
    try:
        executed = WorkerHost(
            args.connect,
            worker_id=args.worker_id,
            connect_timeout=args.timeout,
        ).run()
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

    def add_search_args(p, supervised: bool = False) -> None:
        add_spec_args(
            p, "--steps", "--seed", "--cache", "--checkpoint-every",
            steps=60, checkpoint_every=10,
        )
        p.add_argument("--checkpoint-dir", default=None, required=supervised,
                       help="snapshot full search state into this directory")
        p.add_argument("--keep-last", type=positive_int, default=3,
                       help="snapshots retained in the checkpoint directory")
        p.add_argument("--telemetry-dir", default=None,
                       help="record run telemetry (metrics summary + event log) "
                       "into this directory; view with 'report telemetry'")
        add_backend_args(p)
        if not supervised:
            p.add_argument("--resume", action=argparse.BooleanOptionalAction, default=True,
                           help="resume from the newest good snapshot in --checkpoint-dir")

    add_search_args(search)
    search.set_defaults(handler=cmd_search, kind="dlrm_quickstart")

    search_sub = search.add_subparsers(dest="search_command")
    supervise = search_sub.add_parser(
        "supervise",
        help="run the search under the fault-tolerant supervisor "
        "(bounded restarts, resume from checkpoints)",
    )
    add_search_args(supervise, supervised=True)
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
        type=nonnegative_int,
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
    add_search_args(elastic_train)
    elastic_train.add_argument(
        "--artifact-dir",
        required=True,
        help="write the trained elastic artifact (weights + manifest) here",
    )
    elastic_train.set_defaults(handler=cmd_elastic_train, kind="elastic_train")

    specialize = sub.add_parser(
        "specialize",
        help="policy-only search against a trained elastic artifact "
        "for one hardware target",
    )
    add_search_args(specialize)
    add_spec_args(specialize, "--artifact", "--platform", required=True)
    specialize.set_defaults(handler=cmd_specialize, kind="specialize")

    fleet = sub.add_parser(
        "fleet",
        help="specialize one trained artifact for every fleet platform "
        "and print the per-device Pareto table",
    )
    add_spec_args(fleet, "--artifact", required=True)
    add_spec_args(fleet, "--steps", "--seed", "--cache")
    fleet.add_argument(
        "--platforms",
        nargs="*",
        default=[],
        metavar="NAME",
        help="subset of platforms to sweep (default: all registered)",
    )
    add_backend_args(fleet)
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
        "quotas, a serial process per job); SIGTERM drains gracefully",
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
    add_spec_args(submit, *SPEC_FLAGS)
    submit.add_argument("--wait", action="store_true",
                        help="poll until the job reaches a terminal state")
    submit.set_defaults(handler=cmd_submit)

    for verb, help_text in (
        ("status", "show one job's record"),
        ("results", "fetch a done job's results payload"),
        ("cancel", "cancel a job (queued: now; running: at its next step "
         "boundary, after a final checkpoint)"),
    ):
        one_job = sub.add_parser(verb, help=help_text)
        add_client_args(one_job)
        one_job.add_argument("job_id")
        one_job.set_defaults(handler=cmd_job)

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
        help="controller address: the host:port a search running "
        "--backend distributed listens on, set by $REPRO_DIST_BIND",
    )
    worker.add_argument(
        "--worker-id",
        default=None,
        help="label for this worker in controller telemetry "
        "(default: <hostname>/<pid>)",
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
        # a spec the flags describe that JobSpec refuses is a usage error
        return EXIT_USAGE if isinstance(error, JobSpecError) else EXIT_FAILURE
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
