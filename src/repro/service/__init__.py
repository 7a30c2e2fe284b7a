"""PCM device-as-a-service: an async HTTP front end over the datapath.

The batch kernels of :mod:`repro.coding.batch` turned the Figure-9 read
path into a throughput engine; this package stands a *long-running
service* in front of it — the ROADMAP's "heavy traffic from millions of
users" slice.  A service owns what the offline layers never had to:
persistent simulated devices whose **drift advances in virtual time**
and whose **mark-and-spare wear accumulates across requests**, plus the
machinery to take those requests concurrently:

- :mod:`repro.service.device` — the virtual-time device engine: a
  registry of simulated PCM devices, each a vectorized drifting cell
  array with per-write counter-based RNG (every write draws from a
  ``SeedSequence`` addressed by ``(device seed, block, epoch)``, so
  results are independent of request interleaving);
- :mod:`repro.service.batching` — the dynamic batching queue: concurrent
  read/write requests coalesce into single
  :class:`~repro.coding.batch.BatchThreeOnTwoCodec` calls, run on the
  event-loop thread whenever the flush task is idle (a batch is whatever
  queued while the previous one ran), provably bit-identical to
  sequential execution;
- :mod:`repro.service.http` — a dependency-free asyncio HTTP/1.1 server
  (keep-alive, routing, JSON bodies);
- :mod:`repro.service.app` — the endpoint layer: device CRUD, block
  read/write, virtual-clock control, job submission and polling, ``/metrics``;
- :mod:`repro.service.codes` — the structured event-code catalog every
  response carries;
- :mod:`repro.service.telemetry` — per-endpoint latency/error counters
  and the batch-size histogram exported on ``/metrics``;
- :mod:`repro.service.jobs` — background submit/poll execution of
  every campaign job kind, each run as a one-job campaign;
- :mod:`repro.service.loadgen` — the synthetic-client load harness
  behind ``results/BENCH_service.json``.

Start one from the command line with ``python -m repro serve``; see
``docs/SERVICE.md`` for the endpoint reference, batching semantics, and
the determinism contract.
"""

from repro.service.app import ServiceApp, ServiceConfig, ServiceRunner
from repro.service.batching import BatchQueue, DynamicBatcher, QueueFull
from repro.service.clock import VirtualClock
from repro.service.codes import CODES, EventCode, ServiceError
from repro.service.device import DeviceRegistry, VirtualDevice
from repro.service.jobs import JobManager
from repro.service.telemetry import Telemetry

__all__ = [
    "BatchQueue",
    "CODES",
    "DeviceRegistry",
    "DynamicBatcher",
    "EventCode",
    "JobManager",
    "QueueFull",
    "ServiceApp",
    "ServiceConfig",
    "ServiceError",
    "ServiceRunner",
    "Telemetry",
    "VirtualClock",
    "VirtualDevice",
]
