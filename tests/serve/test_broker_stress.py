"""Broker shutdown under the concurrency detector: the PR-7 bug, kept dead.

``RequestBroker.close`` once let the batcher exit on ``_closing`` alone and
never joined the GPU workers — the re-broken variant lives on as
``corpus-broker-close``.  These tests drive the *fixed* broker through the
same hostile schedule (submissions racing close) inside an instrumented
window and require zero findings: no leaked threads, no stuck waits, no
lock-order cycles.
"""

import threading

import pytest

from repro.analysis.concurrency import (ConcurrencyMonitor, findings_from_facts,
                                        instrumented)
from repro.analysis.rules import RuleConfig
from repro.serve.broker import (BrokerClosed, BrokerConfig, BrokerRejected,
                                RequestBroker)
from repro.workloads import register_workload, unregister_workload

from .test_broker import StubWorkload


@pytest.fixture
def stub():
    workload = StubWorkload(prep_sleep_s=0.01)
    register_workload(workload)
    yield workload
    unregister_workload(workload.name)


def _detect(body, grace_join_s=2.0):
    monitor = ConcurrencyMonitor(grace_join_s=grace_join_s)
    try:
        with instrumented(monitor):
            body()
    finally:
        facts = monitor.finish()
    return findings_from_facts(facts, "broker-stress", RuleConfig())


class TestCloseUnderFire:
    def test_concurrent_submitters_racing_close(self, stub):
        def body():
            config = BrokerConfig(workload="serve-stub", prep_workers=2,
                                  gpu_workers=2, queue_limit=8)
            broker = RequestBroker(config)
            go = threading.Event()
            outcomes = []

            def submitter(base):
                go.wait()
                for i in range(6):
                    try:
                        broker.submit(base + i)
                        outcomes.append("ok")
                    except (BrokerClosed, BrokerRejected) as exc:
                        outcomes.append(type(exc).__name__)

            def closer():
                go.wait()
                broker.close()

            threads = [threading.Thread(target=submitter, args=(100,),
                                        name="stress-submit-a"),
                       threading.Thread(target=submitter, args=(200,),
                                        name="stress-submit-b"),
                       threading.Thread(target=closer, name="stress-close")]
            for t in threads:
                t.start()
            go.set()
            for t in threads:
                t.join()
            broker.close()  # idempotent
            assert len(outcomes) == 12

        assert _detect(body) == []

    def test_drain_then_close_is_clean(self, stub):
        def body():
            config = BrokerConfig(workload="serve-stub", prep_workers=2,
                                  gpu_workers=1)
            with RequestBroker(config) as broker:
                futures = [broker.submit(i) for i in range(4)]
                for future in futures:
                    future.result(timeout=10.0)

        assert _detect(body) == []

    def test_double_close_from_two_threads(self, stub):
        def body():
            config = BrokerConfig(workload="serve-stub", prep_workers=1,
                                  gpu_workers=1)
            broker = RequestBroker(config)
            broker.submit(0)
            threads = [threading.Thread(target=broker.close,
                                        name=f"stress-closer-{i}")
                       for i in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()

        assert _detect(body) == []

    def test_submit_that_loses_the_race_to_close_is_rejected(self, stub):
        config = BrokerConfig(workload="serve-stub", prep_workers=1,
                              gpu_workers=1)
        broker = RequestBroker(config)
        # close() has shut the prep pool down after submit's closed check.
        broker._prep_pool.shutdown(wait=True)
        with pytest.raises(BrokerClosed):
            broker.submit(0)
        assert broker.stats()["submitted"] == 0
        broker.close()
