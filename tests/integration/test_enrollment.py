"""Integration: enrolling new ASes into the running SCIERA network.

This is the operation the whole paper is about scaling — "connecting
additional institutions". The tests enroll the institutions Appendix C
says are coming (UIUC, SURF, CERN, TUM, ...) and verify they become fully
reachable, authenticated participants.
"""

import pytest

from repro.core.orchestrator import Orchestrator
from repro.scion.addr import IA
from repro.scion.topology import TopologyError
from repro.sciera.build import build_sciera


@pytest.fixture(scope="module")
def world():
    return build_sciera(seed=51)


class TestEnrollment:
    def test_enroll_single_homed_institution(self, world):
        network = world.network
        surf = IA.parse("71-1103")  # SURF, via GEANT
        service = network.enroll_as(
            surf, [(IA.parse("71-20965"), 0.004)], name="SURF", region="EU",
        )
        assert service.certificate_healthy(network.timestamp)
        # Reachable from everywhere, in both directions.
        for other_text in ("71-225", "71-2:0:3b", "71-2:0:5c"):
            other = IA.parse(other_text)
            to_paths = network.paths(other, surf)
            from_paths = network.paths(surf, other)
            assert to_paths and from_paths
            assert network.probe(to_paths[0]).success
            assert network.probe(from_paths[0]).success

    def test_enroll_dual_homed_institution_gets_multipath(self, world):
        network = world.network
        uiuc = IA.parse("71-1224")
        network.enroll_as(
            uiuc,
            [(IA.parse("71-2:0:35"), 0.003), (IA.parse("71-2:0:3f"), 0.002)],
            name="UIUC", region="NA",
        )
        paths = network.paths(uiuc, IA.parse("71-20965"))
        origins = {meta.as_sequence[1] for meta in paths}
        # Both upstream providers are used.
        assert IA.parse("71-2:0:35") in origins
        assert IA.parse("71-2:0:3f") in origins
        assert len(paths) >= 2

    def test_existing_pairs_unaffected_by_enrollment(self, world):
        network = world.network
        before = {
            meta.fingerprint
            for meta in network.paths(IA.parse("71-225"), IA.parse("71-1916"))
        }
        network.enroll_as(
            IA.parse("71-3303"), [(IA.parse("71-20965"), 0.005)], name="TUM",
        )
        after = {
            meta.fingerprint
            for meta in network.paths(IA.parse("71-225"), IA.parse("71-1916"))
        }
        assert before <= after  # nothing lost by growing the network

    def test_enrolled_as_is_orchestratable(self, world):
        network = world.network
        cern = IA.parse("71-513")
        network.enroll_as(cern, [(IA.parse("71-20965"), 0.001)], name="CERN")
        orchestrator = Orchestrator(network, cern)
        assert orchestrator.plan_setup().total_hours < 8
        assert orchestrator.unhealthy(network.timestamp) == []

    def test_duplicate_enrollment_rejected(self, world):
        with pytest.raises(TopologyError, match="already enrolled"):
            world.network.enroll_as(
                IA.parse("71-225"), [(IA.parse("71-20965"), 0.01)]
            )

    def test_enrollment_requires_parent(self, world):
        with pytest.raises(TopologyError, match="parent"):
            world.network.enroll_as(IA.parse("71-7777"), [])

    def test_enrollment_requires_known_isd(self, world):
        with pytest.raises(TopologyError, match="ISD"):
            world.network.enroll_as(
                IA.parse("99-1"), [(IA.parse("71-20965"), 0.01)]
            )

    def test_enrolled_as_beacons_verify(self, world):
        """New AS's segments carry valid signatures under the ISD TRC."""
        from repro.scion.control.segments import Beacon

        network = world.network
        imec = IA.parse("71-2611")
        service = network.enroll_as(
            imec, [(IA.parse("71-20965"), 0.002)], name="imec",
        )
        resolver = Beacon.make_validating_key_resolver(
            network.cert_chain, network.trc_for, network.timestamp
        )
        ups = service.path_server.up_segments
        assert ups
        for segment in ups:
            segment.verify(resolver)
