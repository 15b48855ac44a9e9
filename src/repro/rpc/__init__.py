"""The served half of the chain service: JSON-RPC over `ChainService`.

Layers, outermost first: a transport (:class:`SimTransport` for
deterministic in-process runs, :func:`serve_http` for ``repro serve``), the
JSON-RPC 2.0 dispatcher, and the :class:`RpcFacade` owning admission
(:mod:`repro.mempool`), block production and the overload ladder
(backpressure, deadline shedding, read circuit breaker).  ``run_ingress``
drives the whole stack with a seeded open-loop client fleet and certifies
conservation plus serial equivalence — the chaos catalogue's ingress
scenarios are thin configs over it.  Its event loop, ``run_fleet``, is
the one fleet loop: ``repro soak --loadgen`` runs it too.
"""

from .dispatcher import RpcDispatcher
from .facade import ProducedBlock, RpcConfig, RpcFacade, ingress_backoff_policy
from .ingress import IngressConfig, IngressReport, run_ingress
from .transport import SimTransport, serve_http

__all__ = [
    "IngressConfig",
    "IngressReport",
    "ProducedBlock",
    "RpcConfig",
    "RpcDispatcher",
    "RpcFacade",
    "SimTransport",
    "ingress_backoff_policy",
    "run_ingress",
    "serve_http",
]
