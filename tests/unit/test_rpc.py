"""The JSON-RPC dispatcher and the ingress facade's overload machinery."""

from __future__ import annotations

import asyncio
import json
import urllib.request

import pytest

from repro.errors import BackpressureActive, CircuitOpen
from repro.evm.message import Transaction
from repro.executors import make_executor
from repro.mempool import Mempool, MempoolConfig, wire_transaction
from repro.obs import MetricsRegistry
from repro.rpc import (
    RpcConfig,
    RpcDispatcher,
    RpcFacade,
    SimTransport,
    serve_http,
)
from repro.service import ChainService
from repro.workloads import ChainSpec, build_chain


@pytest.fixture()
def stack():
    chain = build_chain(ChainSpec(accounts=12, tokens=1, amm_pairs=0, seed=5))
    executor = make_executor("serial", 1)
    service = ChainService(None, executor, chain=chain)
    metrics = MetricsRegistry()
    mempool = Mempool(MempoolConfig(capacity=8, high_watermark=0.5, low_watermark=0.25), chain.world, metrics=metrics)
    facade = RpcFacade(service, mempool, RpcConfig(block_txs=4), metrics=metrics)
    transport = SimTransport(RpcDispatcher(facade, metrics=metrics))
    return chain, service, mempool, facade, transport


def transfer_wire(chain, sender_index=0, nonce=0, gas_price=10):
    return wire_transaction(
        Transaction(
            sender=chain.accounts[sender_index],
            to=chain.accounts[-1],
            value=1_000,
            data=b"",
            gas_limit=21_000,
            gas_price=gas_price,
            nonce=nonce,
        )
    )


def rpc(method, params, request_id=1):
    return {"jsonrpc": "2.0", "id": request_id, "method": method, "params": params}


class TestDispatcher:
    def test_parse_error(self, stack):
        *_, facade, transport = stack
        response = json.loads(transport.dispatcher.handle("{not json"))
        assert response["error"]["code"] == -32700

    def test_invalid_request_and_unknown_method(self, stack):
        *_, transport = stack
        assert transport.request([1, 2, 3])["error"]["code"] == -32600
        assert transport.request(rpc("bogus", {}))["error"]["code"] == -32601

    def test_invalid_params(self, stack):
        *_, transport = stack
        assert transport.request(rpc("get_balance", {}))["error"]["code"] == -32602

    def test_send_and_read_round_trip(self, stack):
        chain, service, mempool, facade, transport = stack
        response = transport.request(rpc("send_transaction", transfer_wire(chain)))
        tx_hash = response["result"]["tx_hash"]
        assert tx_hash.startswith("0x")
        # Pending until a block is produced.
        receipt = transport.request(rpc("get_receipt", {"tx_hash": tx_hash}))
        assert receipt["result"]["status"] == "pending"
        produced = facade.produce_block(now_us=50_000.0)
        assert produced.outcome is not None and produced.outcome.tx_count == 1
        receipt = transport.request(rpc("get_receipt", {"tx_hash": tx_hash}))
        assert receipt["result"]["status"] == 1
        assert receipt["result"]["gas_used"] == 21_000
        block = transport.request(rpc("get_block", {}))["result"]
        assert block["tx_hashes"] == [tx_hash]
        balance = transport.request(
            rpc("get_balance", {"address": "0x" + chain.accounts[0].hex()})
        )["result"]
        assert balance["nonce"] == 1

    def test_admission_error_envelope(self, stack):
        chain, *_, transport = stack
        wire = transfer_wire(chain)
        wire["chain_id"] = 999
        response = transport.request(rpc("send_transaction", wire))
        error = response["error"]
        assert error["code"] == -32000
        assert error["data"]["reason"] == "wrong-chain-id"
        assert error["data"]["retryable"] is False

    def test_health_is_never_shed(self, stack):
        *_, facade, transport = stack
        facade.circuit_open = True
        facade.backpressure_active = True
        health = transport.request(rpc("health", {}))["result"]
        assert health["circuit_open"] and health["backpressure"]


class TestOverload:
    def test_backpressure_hysteresis(self, stack):
        chain, service, mempool, facade, transport = stack
        # capacity 8, high watermark 4, low watermark 2.
        for index in range(4):
            facade.send_transaction(transfer_wire(chain, sender_index=index))
        with pytest.raises(BackpressureActive) as err:
            facade.send_transaction(transfer_wire(chain, sender_index=5))
        assert err.value.retry_after_us > 0
        # Producing a block drains 4 txs; depth 0 <= low watermark clears it.
        facade.produce_block(now_us=50_000.0)
        facade.send_transaction(transfer_wire(chain, sender_index=5))

    def test_circuit_breaker_opens_and_closes(self, stack):
        chain, service, mempool, facade, transport = stack
        # Overrun the 50 ms interval by 150 ms per tick: integrator passes
        # the 200 ms open threshold on the second tick.
        facade._account_lag(50_000.0, 200_000.0)
        assert not facade.circuit_open
        facade._account_lag(100_000.0, 200_000.0)
        assert facade.circuit_open
        with pytest.raises(CircuitOpen):
            facade.get_balance({"address": "0x" + chain.accounts[0].hex()})
        # Idle on-schedule ticks drain the backlog below 75 ms and close it.
        for tick in range(3, 9):
            facade._account_lag(tick * 50_000.0, 0.0)
        assert not facade.circuit_open
        facade.get_balance({"address": "0x" + chain.accounts[0].hex()})

    def test_slow_ticks_accrue_lag_without_slow_commits(self, stack):
        *_, facade, _ = stack
        # A consumer ticking at 3x the 50 ms interval accrues 50 ms of lag
        # per tick even when the commit lane itself is instant.
        facade._account_lag(0.0, 0.0)
        for tick in range(1, 5):
            facade._account_lag(tick * 150_000.0, 0.0)
        assert facade.commit_lag_us >= 200_000.0
        assert facade.circuit_open

    def test_retry_after_escalates_with_pressure(self, stack):
        *_, facade, _ = stack
        level0 = facade.retry_after_us()
        facade._pressure_streak = 3
        assert facade.retry_after_us() > level0


class TestHttpTransport:
    def test_serve_http_answers_like_the_dispatcher(self, stack):
        # `repro serve` is the one way to reach a node from outside the
        # process: one POST on loopback must get the same answer as the
        # in-process transport, including for a body that is not JSON.
        *_, transport = stack
        health = rpc("health", {})
        malformed = b"{not json"
        # No proxy handler: the request must go straight to loopback.
        opener = urllib.request.build_opener(urllib.request.ProxyHandler({}))

        def post(port: int, body: bytes) -> dict:
            request = urllib.request.Request(
                f"http://127.0.0.1:{port}/",
                data=body,
                headers={"Content-Type": "application/json"},
            )
            with opener.open(request, timeout=10) as response:
                assert response.status == 200
                return json.loads(response.read())

        async def serve_two() -> tuple[dict, dict]:
            server = await serve_http(transport.dispatcher, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            try:
                return (
                    await asyncio.to_thread(post, port, json.dumps(health).encode()),
                    await asyncio.to_thread(post, port, malformed),
                )
            finally:
                server.close()
                await server.wait_closed()

        health_http, malformed_http = asyncio.run(serve_two())
        assert health_http == transport.request(health)
        assert "result" in health_http
        assert malformed_http == json.loads(
            transport.dispatcher.handle(malformed.decode())
        )
        assert malformed_http["error"]["code"] == -32700
