"""Per-path performance time-series export (the ScionPathML shape).

ScionPathML's contribution (PAPERS.md) is mundane and valuable: export
per-path measurements — RTT, loss, revocations, path churn — as flat
time-series rows a benchmark or an ML pipeline can consume directly.
The SCIONLab path-dynamics study motivates the churn half: which paths
appear and disappear between lookups is itself a signal.  This module is
the first step of ROADMAP item 4 (the ML-ready path dataset): the
recorder hangs off a :class:`~repro.obs.Telemetry` bundle and the
pan/daemon layers feed it opt-in, exactly like the profiler and flight
recorder.

Row schema (one flat record per observation)::

    time_s, src, dst, fingerprint, event, rtt_ms, ok, detail

``event`` is one of ``probe`` (a dataplane send/probe with its RTT or
failure), ``path-appeared`` / ``path-disappeared`` (churn between
consecutive lookups for a pair), or ``revocation`` (an interface
revocation accepted by the daemon).  Export is CSV or JSON, both
deterministically ordered by insertion (sim time never goes backwards
within a source).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

CSV_HEADER = "time_s,src,dst,fingerprint,event,rtt_ms,ok,detail"


@dataclass(frozen=True)
class PathSample:
    """One flat time-series row."""

    time_s: float
    src: str
    dst: str
    fingerprint: str
    event: str          # "probe" | "path-appeared" | "path-disappeared" | "revocation"
    rtt_ms: float = 0.0
    ok: bool = True
    detail: str = ""

    def csv_row(self) -> str:
        return (
            f"{self.time_s:.6f},{self.src},{self.dst},{self.fingerprint},"
            f"{self.event},{self.rtt_ms:.3f},{int(self.ok)},{self.detail}"
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "time_s": self.time_s,
            "src": self.src,
            "dst": self.dst,
            "fingerprint": self.fingerprint,
            "event": self.event,
            "rtt_ms": self.rtt_ms,
            "ok": self.ok,
            "detail": self.detail,
        }


class PathSeriesRecorder:
    """Collects per-path samples; bounded by ``max_samples`` (oldest kept —
    a truncated campaign should keep its beginning, where the baseline
    lives, and the ``dropped`` counter says the tail was cut)."""

    def __init__(self, max_samples: int = 200_000):
        self.max_samples = int(max_samples)
        self.samples: List[PathSample] = []
        self.dropped = 0
        #: (src, dst) -> fingerprints seen at the previous lookup.
        self._last_seen: Dict[Tuple[str, str], frozenset] = {}

    def attach(self, telemetry) -> "PathSeriesRecorder":
        telemetry.path_series = self
        return self

    # -- recording ---------------------------------------------------------------

    def _append(self, sample: PathSample) -> None:
        if len(self.samples) >= self.max_samples:
            self.dropped += 1
            return
        self.samples.append(sample)

    def record_probe(
        self,
        time_s: float,
        src: str,
        dst: str,
        fingerprint: str,
        rtt_s: float,
        ok: bool,
        failure: str = "",
    ) -> None:
        """One dataplane probe/send observation (RTT on success, the
        failure class on loss — loss is a sample too, not a gap)."""
        self._append(PathSample(
            time_s=time_s, src=src, dst=dst, fingerprint=fingerprint,
            event="probe", rtt_ms=rtt_s * 1000.0, ok=ok, detail=failure,
        ))

    def record_selection(
        self,
        time_s: float,
        src: str,
        dst: str,
        fingerprints: Sequence[str],
    ) -> None:
        """The path set a lookup returned: diffs against the previous
        lookup for the pair become churn events."""
        key = (src, dst)
        current = frozenset(fingerprints)
        previous = self._last_seen.get(key)
        if previous is not None:
            for fingerprint in sorted(current - previous):
                self._append(PathSample(
                    time_s=time_s, src=src, dst=dst,
                    fingerprint=fingerprint, event="path-appeared",
                ))
            for fingerprint in sorted(previous - current):
                self._append(PathSample(
                    time_s=time_s, src=src, dst=dst,
                    fingerprint=fingerprint, event="path-disappeared",
                    ok=False,
                ))
        self._last_seen[key] = current

    def record_revocation(self, time_s: float, key: str,
                          src: str = "", detail: str = "") -> None:
        """An interface revocation the endhost accepted."""
        self._append(PathSample(
            time_s=time_s, src=src, dst="", fingerprint=key,
            event="revocation", ok=False, detail=detail,
        ))

    # -- queries / export --------------------------------------------------------

    def churn_counts(self) -> Dict[str, int]:
        """pair -> appeared+disappeared events (the churn signal)."""
        counts: Dict[str, int] = {}
        for sample in self.samples:
            if sample.event in ("path-appeared", "path-disappeared"):
                pair = f"{sample.src}->{sample.dst}"
                counts[pair] = counts.get(pair, 0) + 1
        return counts

    def series_for(
        self, src: str, dst: str, event: Optional[str] = "probe"
    ) -> List[PathSample]:
        return [
            s for s in self.samples
            if s.src == src and s.dst == dst
            and (event is None or s.event == event)
        ]

    def to_csv(self) -> str:
        lines = [CSV_HEADER]
        lines.extend(sample.csv_row() for sample in self.samples)
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        doc = {
            "schema": 1,
            "dropped": self.dropped,
            "samples": [sample.to_dict() for sample in self.samples],
        }
        return json.dumps(doc, sort_keys=True)
