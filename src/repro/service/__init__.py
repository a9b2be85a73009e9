"""NAS-as-a-service: a persistent multi-tenant search daemon.

The paper's deployment shape (and Rankitect's, at Meta scale) is not a
one-shot CLI run but a long-lived service: many searches from many
users multiplexed over shared compute, surviving preemption, with
per-job isolation and quotas.  This package composes the pieces the
repo already had — :func:`~repro.runtime.supervisor
.run_with_checkpoints`, the checkpoint store, the telemetry event log —
into that production surface:

* :mod:`repro.service.queue` — durable FIFO job queue, one atomic JSON
  record per job under a spool directory; SIGKILL-safe by construction;
* :mod:`repro.service.jobs` — validated job specs of three kinds
  (quickstart search, elastic training, specialization), the one
  executor the daemon and the CLI share, per-job execution with
  private checkpoint/telemetry dirs, fingerprinted results;
* :mod:`repro.service.scheduler` — admission control, per-tenant
  quotas, N concurrent searches in a process each, graceful
  cancel/drain at step boundaries;
* :mod:`repro.service.daemon` — the ``repro serve`` process: Unix
  socket, newline-delimited JSON verbs (submit / status / list /
  results / cancel / drain / ping);
* :mod:`repro.service.client` — typed client used by the CLI
  subcommands and tests;
* :mod:`repro.service.protocol` — the wire format and the typed error
  taxonomy shared by both sides.

The load-bearing invariant: a job's results are bit-identical to a
one-shot run of the same spec, no matter how many times the daemon was
killed and restarted underneath it.
"""

from .client import ServiceClient
from .daemon import DaemonConfig, ServiceDaemon
from .jobs import JobSpec, dlrm_search_builder, one_shot_payload, result_payload, run_job
from .protocol import (
    AdmissionClosedError,
    DaemonUnavailableError,
    JobSpecError,
    JobStateError,
    ProtocolError,
    QuotaExceededError,
    ResultsNotReadyError,
    ServiceError,
    UnknownJobError,
    UnknownVerbError,
)
from .queue import JOB_STATES, TERMINAL_STATES, JobQueue, JobRecord
from .scheduler import JobScheduler, SchedulerConfig

__all__ = [
    "AdmissionClosedError",
    "DaemonConfig",
    "DaemonUnavailableError",
    "JOB_STATES",
    "JobQueue",
    "JobRecord",
    "JobScheduler",
    "JobSpec",
    "JobSpecError",
    "JobStateError",
    "ProtocolError",
    "QuotaExceededError",
    "ResultsNotReadyError",
    "SchedulerConfig",
    "ServiceClient",
    "ServiceDaemon",
    "ServiceError",
    "TERMINAL_STATES",
    "UnknownJobError",
    "UnknownVerbError",
    "dlrm_search_builder",
    "one_shot_payload",
    "result_payload",
    "run_job",
]
