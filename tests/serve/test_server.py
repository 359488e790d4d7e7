"""Server tests: admission control, tenant isolation, drain accounting."""

import numpy as np
import pytest

from repro import api
from repro.errors import BenchConfigError, ServeError, ServeRejectedError
from repro.serve import Client, ServeConfig, Server, TenantQuota
from repro.serve.config import priority_rank
from repro.serve.trajectory import gate_serve_trajectory

from ..conftest import make_random_triplets


@pytest.fixture(scope="module")
def server():
    srv = Server(backend="thread", workers=2, max_queue=64)
    srv.start()
    yield srv
    if not srv._stopped.is_set():
        srv.stop()


@pytest.fixture
def client(server):
    with Client(port=server.port) as c:
        yield c


class TestConfig:
    def test_priority_ranks_are_ordered(self):
        assert priority_rank("interactive") < priority_rank("normal")
        assert priority_rank("normal") < priority_rank("batch")
        with pytest.raises(BenchConfigError):
            priority_rank("urgent")

    def test_tenant_quota_coercion(self):
        config = ServeConfig(tenants={"a": 4, "b": {"max_in_flight": 2},
                                      "c": TenantQuota(max_in_flight=9)})
        assert config.quota_for("a").max_in_flight == 4
        assert config.quota_for("b").max_in_flight == 2
        assert config.quota_for("c").max_in_flight == 9
        assert config.quota_for("unknown") == config.default_quota

    def test_bad_quota_rejected(self):
        with pytest.raises(BenchConfigError):
            ServeConfig(tenants={"a": 0})
        with pytest.raises(BenchConfigError):
            ServeConfig(tenants={"a": {"max_inflight": 3}})

    def test_config_and_kwargs_are_exclusive(self):
        with pytest.raises(ServeError):
            Server(ServeConfig(), workers=2)


class TestServing:
    def test_multiply_roundtrip(self, client):
        reply = client.multiply("dw4096", fmt="csr", variant="serial",
                                k=8, scale=64)
        assert reply.output.shape == (128, 8)
        assert reply.plan_provenance in ("built", "memory", "shared", "disk")
        assert reply.priority == "normal"

    def test_inline_triplets_bit_identical_to_api(self, client, rng_factory):
        t = make_random_triplets(30, 20, density=0.3, seed=7)
        B = rng_factory(7).standard_normal((20, 4))
        reply = client.multiply(t, dense=B, fmt="csr", variant="serial", k=4)
        direct = api.multiply(t, B, fmt="csr", variant="serial", k=4)
        assert np.array_equal(reply.output, direct)

    def test_explicit_dense_matches_server_generated(self, client):
        # The server generates B exactly like the engine: default_rng(seed+1).
        t = make_random_triplets(12, 10, density=0.4, seed=1)
        rng = np.random.default_rng(5 + 1)
        B = rng.standard_normal((10, 3))
        explicit = client.multiply(t, dense=B, fmt="csr", k=3, seed=5)
        generated = client.multiply(t, fmt="csr", k=3, seed=5)
        assert np.array_equal(explicit.output, generated.output)

    def test_ping_and_stats(self, client):
        assert client.ping()["pong"] is True
        stats = client.stats()
        assert stats["backend"] == "thread"
        assert stats["counters"]["serve_admitted"] >= 1

    def test_verify_flag_flows_through(self, client):
        t = make_random_triplets(8, 8, density=0.5, seed=2)
        reply = client.multiply(t, fmt="csr", k=2, verify=True)
        assert reply.verified is True


class TestAdmissionControl:
    def test_unknown_priority_rejected_as_protocol(self, client):
        from repro.errors import ServeProtocolError

        with pytest.raises(ServeProtocolError, match="priority"):
            client.multiply("dw4096", fmt="csr", k=2, scale=64,
                            priority="urgent")

    def test_unknown_request_key_rejected(self, server):
        import uuid

        from repro.errors import ServeProtocolError
        from repro.serve.wire import PROTOCOL_VERSION

        with Client(port=server.port) as c:
            with pytest.raises(ServeProtocolError):
                c._call({"v": PROTOCOL_VERSION, "op": "multiply",
                         "id": uuid.uuid4().hex[:12], "tenant": "default",
                         "priority": "normal",
                         "req": {"matrix": "dw4096", "bogus_knob": 1}})

    def test_unknown_op_rejected(self, server):
        import uuid

        from repro.errors import ServeProtocolError
        from repro.serve.wire import PROTOCOL_VERSION

        with Client(port=server.port) as c:
            with pytest.raises(ServeProtocolError):
                c._call({"v": PROTOCOL_VERSION, "op": "divide",
                         "id": uuid.uuid4().hex[:12]})

    def test_bad_matrix_name_is_execute_error(self, client):
        from repro.errors import ServeRemoteError

        with pytest.raises(ServeRemoteError):
            client.multiply("no_such_matrix", fmt="csr", k=2)

    def test_tenant_quota_enforced(self):
        # quota=1 with a single-threaded engine: the second concurrent
        # request of the tenant must be rejected with code "quota".
        import threading

        srv = Server(backend="thread", workers=1, max_queue=64,
                     tenants={"tiny": 1})
        srv.start()
        try:
            t = make_random_triplets(300, 300, density=0.05, seed=0)
            codes = []
            lock = threading.Lock()

            def fire():
                with Client(port=srv.port, tenant="tiny") as c:
                    try:
                        c.multiply(t, fmt="csr", k=16, repeats=4)
                        with lock:
                            codes.append("ok")
                    except ServeRejectedError as exc:
                        with lock:
                            codes.append(exc.code)

            threads = [threading.Thread(target=fire) for _ in range(6)]
            for th in threads:
                th.start()
            for th in threads:
                th.join()
            assert "quota" in codes  # at least one rejection
            assert "ok" in codes  # and at least one success
        finally:
            trajectory = srv.stop()
        assert trajectory["accounting"]["balanced"]
        assert trajectory["counters"]["serve_rejected_quota"] >= 1

    def test_overload_when_queue_full(self):
        srv = Server(backend="thread", workers=1, max_queue=1)
        srv.start()
        try:
            t = make_random_triplets(300, 300, density=0.05, seed=1)
            import threading

            codes = []
            lock = threading.Lock()

            def fire():
                with Client(port=srv.port) as c:
                    try:
                        c.multiply(t, fmt="csr", k=16, repeats=4)
                        with lock:
                            codes.append("ok")
                    except ServeRejectedError as exc:
                        with lock:
                            codes.append(exc.code)

            threads = [threading.Thread(target=fire) for _ in range(8)]
            for th in threads:
                th.start()
            for th in threads:
                th.join()
            assert "ok" in codes
        finally:
            trajectory = srv.stop()
        assert trajectory["accounting"]["balanced"]


class TestTenantIsolation:
    def test_per_tenant_cache_namespaces(self, tmp_path):
        srv = Server(backend="thread", workers=2, cache_dir=str(tmp_path))
        srv.start()
        try:
            t = make_random_triplets(40, 40, density=0.2, seed=9)
            with Client(port=srv.port, tenant="acme") as c:
                c.multiply(t, fmt="csr", k=4)
            with Client(port=srv.port, tenant="beta") as c:
                c.multiply(t, fmt="csr", k=4)
            assert (tmp_path / "tenants" / "acme").is_dir()
            assert (tmp_path / "tenants" / "beta").is_dir()
        finally:
            srv.stop()

    def test_tenants_share_one_backend(self):
        srv = Server(backend="thread", workers=2)
        srv.start()
        try:
            with Client(port=srv.port, tenant="a") as c:
                c.multiply("dw4096", fmt="csr", k=2, scale=64)
            with Client(port=srv.port, tenant="b") as c:
                c.multiply("dw4096", fmt="csr", k=2, scale=64)
            with srv._tenants_lock:
                engines = [s.engine for s in srv._tenants.values()]
            assert len(engines) == 2
            assert engines[0]._backend is engines[1]._backend
        finally:
            srv.stop()


class TestDrain:
    def test_draining_rejects_new_requests(self):
        srv = Server(backend="thread", workers=1)
        srv.start()
        srv.request_drain()
        srv.wait(timeout=30)
        trajectory = srv._trajectory
        assert trajectory["accounting"]["balanced"]
        # The listener is closed: a fresh connection must fail.
        with pytest.raises(ServeError):
            Client(port=srv.port, timeout=2.0).ping()

    def test_stop_returns_balanced_trajectory(self):
        srv = Server(backend="thread", workers=2)
        srv.start()
        with Client(port=srv.port) as c:
            for _ in range(5):
                c.multiply("dw4096", fmt="csr", k=4, scale=64)
        trajectory = srv.stop()
        acc = trajectory["accounting"]
        assert acc["admitted"] == 5
        assert acc["completed"] == 5
        assert acc["balanced"]
        assert trajectory["latency_s"]["count"] == 5
        regressed, _ = gate_serve_trajectory(trajectory, {"p99_s": 60.0})
        assert not regressed

    def test_zero_grace_cancels_queued_work(self):
        srv = Server(backend="thread", workers=1, drain_grace_s=0.0)
        srv.start()
        import threading

        t = make_random_triplets(400, 400, density=0.05, seed=3)
        results = []

        def burst():
            try:
                client = Client(port=srv.port)
            except ServeError:
                # The drain closed the listener before this thread connected.
                results.append("rejected")
                return
            with client as c:
                for _ in range(4):
                    try:
                        c.multiply(t, fmt="csr", k=16, repeats=3)
                        results.append("ok")
                    except (ServeRejectedError, ServeError):
                        results.append("rejected")

        threads = [threading.Thread(target=burst) for _ in range(3)]
        for th in threads:
            th.start()
        srv.request_drain()
        for th in threads:
            th.join()
        trajectory = srv.stop()
        assert trajectory["accounting"]["balanced"]


class TestFacade:
    def test_api_serve_context_manager(self):
        with api.serve(backend="thread", workers=2,
                       tenants={"acme": 8}) as server:
            with api.Client(port=server.port, tenant="acme") as c:
                reply = c.multiply("dw4096", fmt="csr", k=8, scale=64)
        assert reply.output.shape == (128, 8)
        assert reply.tenant == "acme"

    def test_server_cannot_start_twice(self, server):
        with pytest.raises(ServeError):
            server.start()
