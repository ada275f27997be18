"""repro.server — the network daemon and multi-tenant serving tier.

Everything under this package turns one in-process
:class:`~repro.service.EvaluationService` into a long-lived network
service (DESIGN.md §10): several clients — human, CI, optimiser — share
one scheduler, one content-addressed result cache and one warm period
memory across a real socket, with per-tenant quotas and weighted fair
queueing deciding who gets the pool when they all want it at once.

The pieces:

* :mod:`~repro.server.app` — :class:`ReproServer`: the threaded HTTP
  daemon (``python -m repro serve``);
* :mod:`~repro.server.client` — :class:`ServerClient`: the thin stdlib
  client (``repro submit --connect HOST:PORT``), with cursor-resumed
  streaming;
* :mod:`~repro.server.tenancy` — API tokens, priorities, ``max_pending``
  quotas, stride-scheduled fair admission, ``REPRO_SERVER_*`` validation;
* :mod:`~repro.server.encoding` — SSE or checksummed binary frames out
  (JSON specs in are :mod:`repro.service.spec`'s);
* :mod:`~repro.server.router` — method + path-pattern dispatch.

Stdlib only, like the rest of the repo.
"""

from .app import HttpError, ReproServer
from .client import ServerClient, ServerError
from .encoding import Submission, parse_controls, parse_submission
from .tenancy import (
    AuthError,
    QuotaError,
    Tenant,
    TenantRegistry,
    parse_tokens,
    validate_server_env,
)

__all__ = [
    "AuthError",
    "HttpError",
    "QuotaError",
    "ReproServer",
    "ServerClient",
    "ServerError",
    "Submission",
    "Tenant",
    "TenantRegistry",
    "parse_controls",
    "parse_submission",
    "parse_tokens",
    "validate_server_env",
]
