"""Stats conventions: cumulative counters, fresh components for baselines.

``RouterStats`` and ``RegistryStats`` deliberately accumulate across
``run_beaconing`` epochs (Prometheus counter semantics) — an experiment
wanting a clean baseline builds a fresh network.
"""

import pytest

from repro.obs import (
    NOOP_TELEMETRY,
    CounterBackedStats,
    MetricsRegistry,
    Telemetry,
    resolve,
)
from repro.scion.addr import IA
from repro.scion.network import ScionNetwork
from repro.scion.topology import GlobalTopology, LinkType

A = IA.parse("71-100")
B = IA.parse("71-200")


def _topology():
    topo = GlobalTopology()
    core = IA.parse("71-1")
    topo.add_as(core, is_core=True, name="core")
    topo.add_as(A, name="leafA")
    topo.add_as(B, name="leafB")
    topo.add_link(A, core, LinkType.PARENT, 0.005, link_name="a-core")
    topo.add_link(B, core, LinkType.PARENT, 0.004, link_name="b-core")
    return topo


class _DemoStats(CounterBackedStats):
    FIELDS = ("hits", "misses")
    PREFIX = "demo"


class TestCounterBackedStats:
    def test_standalone_fields_read_as_ints(self):
        stats = _DemoStats()
        stats.inc("hits")
        stats.inc("hits", 2)
        assert stats.hits == 3
        assert isinstance(stats.hits, int)
        assert stats.misses == 0
        assert stats.as_dict() == {"hits": 3, "misses": 0}

    def test_unknown_field_raises(self):
        with pytest.raises(AttributeError):
            _DemoStats().nonsense

    def test_registry_backed_fields_are_shared_views(self):
        metrics = MetricsRegistry()
        stats = _DemoStats(metrics, labels={"as": "71-1"})
        stats.inc("hits", 4)
        counter = metrics.counter("demo_hits_total", labels={"as": "71-1"})
        assert counter.value == 4
        assert 'demo_hits_total{as="71-1"} 4' in metrics.prometheus_text()


class TestEpochConvention:
    def test_stats_survive_run_beaconing_epochs(self):
        network = ScionNetwork(_topology(), seed=3, telemetry=Telemetry())
        network.registry.stats.inc("lookups")
        router = network.dataplane.routers[A]
        router.stats.inc("forwarded", 10)
        lookups_before = network.registry.stats.lookups
        network.run_beaconing()
        # Cumulative counter semantics: a beaconing epoch is not a reset.
        assert network.registry.stats.lookups >= lookups_before
        assert network.dataplane.routers[A].stats.forwarded == 10


class TestDisabledMode:
    def test_resolve_none_is_the_shared_noop(self):
        assert resolve(None) is NOOP_TELEMETRY
        assert not NOOP_TELEMETRY.enabled

    def test_network_without_telemetry_keeps_working_stats(self):
        network = ScionNetwork(_topology(), seed=3)
        assert network.telemetry is NOOP_TELEMETRY
        router = network.dataplane.routers[A]
        router.stats.inc("forwarded")
        assert router.stats.forwarded == 1
        assert network.registry.stats.lookups >= 0
        # Nothing is exported: the no-op registry renders empty.
        assert network.telemetry.metrics.prometheus_text() == ""
