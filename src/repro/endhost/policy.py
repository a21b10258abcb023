"""Path policies: how applications pick among SCIERA's many paths.

Mirrors the PAN library options surfaced in the paper's bat integration
(Appendix E): an optional *sequence* of hop predicates, a *preference*
ordering (latency, hops, disjointness, carbon/"green"), and geofencing
(Section 4.7: avoiding untrusted ASes, choosing green paths).

A policy takes the candidate :class:`~repro.scion.path.PathMeta` list and
returns it filtered and ordered, best first.
"""

from __future__ import annotations

import abc
from typing import Iterable, List, Optional, Sequence, Set, Tuple

from repro.errors import ReproError
from repro.scion.addr import IA, AddrError
from repro.scion.path import PathMeta


class PolicyError(ReproError):
    """Raised for malformed policy expressions."""


class PathPolicy(abc.ABC):
    """Filter-and-order over candidate paths."""

    @abc.abstractmethod
    def order(self, paths: Sequence[PathMeta]) -> List[PathMeta]:
        """Return the acceptable paths, best first."""

    def best(self, paths: Sequence[PathMeta]) -> Optional[PathMeta]:
        ordered = self.order(paths)
        return ordered[0] if ordered else None

    def then(self, other: "PathPolicy") -> "PathPolicy":
        """Compose: apply self, then use ``other`` to order the survivors."""
        return _Chained(self, other)


class _Chained(PathPolicy):
    def __init__(self, first: PathPolicy, second: PathPolicy):
        self._first = first
        self._second = second

    def order(self, paths: Sequence[PathMeta]) -> List[PathMeta]:
        return self._second.order(self._first.order(paths))


class ShortestPolicy(PathPolicy):
    """Fewest AS hops; ties broken by lowest path identifier (paper §5.4)."""

    def order(self, paths: Sequence[PathMeta]) -> List[PathMeta]:
        return sorted(paths, key=lambda p: (p.path.num_as_hops(), p.fingerprint))


class LowestLatencyPolicy(PathPolicy):
    """Lowest measured RTT, falling back to the static latency estimate."""

    def order(self, paths: Sequence[PathMeta]) -> List[PathMeta]:
        def key(meta: PathMeta):
            measured = (
                meta.measured_rtt_s
                if meta.measured_rtt_s is not None
                else 2 * meta.latency_estimate_s
            )
            return (measured, meta.fingerprint)

        return sorted(paths, key=key)


class MostDisjointPolicy(PathPolicy):
    """Fewest interfaces shared with a set of reference paths.

    The multiping tool (paper §5.4) probes "the most disjoint path": the
    path sharing the fewest globally-unique interface ids with the shortest
    and the fastest paths.
    """

    def __init__(self, reference: Iterable[PathMeta]):
        self._reference = list(reference)

    def order(self, paths: Sequence[PathMeta]) -> List[PathMeta]:
        return sorted(
            paths,
            key=lambda p: (p.shared_interfaces(self._reference), p.fingerprint),
        )


class GeofencePolicy(PathPolicy):
    """Exclude paths through forbidden ISDs/ASes (or outside allowed ISDs)."""

    def __init__(
        self,
        forbidden_isds: Iterable[int] = (),
        forbidden_ases: Iterable[IA] = (),
        allowed_isds: Optional[Iterable[int]] = None,
    ):
        self.forbidden_isds: Set[int] = set(forbidden_isds)
        self.forbidden_ases: Set[IA] = set(forbidden_ases)
        self.allowed_isds: Optional[Set[int]] = (
            set(allowed_isds) if allowed_isds is not None else None
        )

    def permits(self, meta: PathMeta) -> bool:
        for ia in meta.as_sequence:
            if ia.isd in self.forbidden_isds or ia in self.forbidden_ases:
                return False
            if self.allowed_isds is not None and ia.isd not in self.allowed_isds:
                return False
        return True

    def order(self, paths: Sequence[PathMeta]) -> List[PathMeta]:
        return [meta for meta in paths if self.permits(meta)]


class GreenPolicy(PathPolicy):
    """Lowest estimated carbon intensity first (paper §4.7, [54])."""

    def order(self, paths: Sequence[PathMeta]) -> List[PathMeta]:
        return sorted(paths, key=lambda p: (p.carbon_gco2_per_gb, p.fingerprint))


class SequencePolicy(PathPolicy):
    """Hop-predicate sequences, e.g. ``"71-100 0* 71-2:0:3b"``.

    Predicates, space separated, matched against the path's AS sequence:

    * ``ISD-AS`` — exactly this AS;
    * ``ISD-0``  — any AS of the ISD;
    * ``0``      — any single AS;
    * ``0*``     — any number (including zero) of arbitrary ASes.
    """

    def __init__(self, sequence: str):
        self._predicates = self._parse(sequence)
        self.sequence = sequence

    @staticmethod
    def _parse(sequence: str) -> List[Tuple[str, Optional[int], Optional[int]]]:
        predicates: List[Tuple[str, Optional[int], Optional[int]]] = []
        tokens = sequence.split()
        if not tokens:
            raise PolicyError("empty hop-predicate sequence")
        for token in tokens:
            if token == "0*":
                predicates.append(("star", None, None))
            elif token == "0":
                predicates.append(("any", None, None))
            elif "-" in token:
                isd_text, as_text = token.split("-", 1)
                try:
                    isd = int(isd_text)
                except ValueError:
                    raise PolicyError(f"bad hop predicate {token!r}") from None
                if as_text == "0":
                    predicates.append(("isd", isd, None))
                else:
                    try:
                        ia = IA.parse(token)
                    except AddrError as exc:
                        raise PolicyError(f"bad hop predicate {token!r}") from exc
                    predicates.append(("exact", ia.isd, ia.asn))
            else:
                raise PolicyError(f"bad hop predicate {token!r}")
        return predicates

    def matches(self, meta: PathMeta) -> bool:
        return self._match(self._predicates, list(meta.as_sequence))

    @classmethod
    def _match(cls, predicates, sequence) -> bool:
        if not predicates:
            return not sequence
        kind, isd, asn = predicates[0]
        if kind == "star":
            # Match zero or more ASes: try consuming progressively.
            return any(
                cls._match(predicates[1:], sequence[i:])
                for i in range(len(sequence) + 1)
            )
        if not sequence:
            return False
        head = sequence[0]
        if kind == "any":
            ok = True
        elif kind == "isd":
            ok = head.isd == isd
        else:
            ok = head.isd == isd and head.asn == asn
        return ok and cls._match(predicates[1:], sequence[1:])

    def order(self, paths: Sequence[PathMeta]) -> List[PathMeta]:
        return [meta for meta in paths if self.matches(meta)]


class PreferencePolicy(PathPolicy):
    """Comma-separated sort orders, mirroring PAN's ``--preference`` flag."""

    AVAILABLE = ("latency", "hops", "disjointness", "carbon")

    def __init__(self, preference: str):
        self._criteria = [c.strip() for c in preference.split(",") if c.strip()]
        unknown = [c for c in self._criteria if c not in self.AVAILABLE]
        if unknown:
            raise PolicyError(
                f"unknown preference criteria {unknown}; "
                f"available: {'|'.join(self.AVAILABLE)}"
            )
        if not self._criteria:
            raise PolicyError("empty preference string")

    def order(self, paths: Sequence[PathMeta]) -> List[PathMeta]:
        def key(meta: PathMeta):
            parts = []
            for criterion in self._criteria:
                if criterion == "latency":
                    parts.append(
                        meta.measured_rtt_s
                        if meta.measured_rtt_s is not None
                        else 2 * meta.latency_estimate_s
                    )
                elif criterion == "hops":
                    parts.append(meta.path.num_as_hops())
                elif criterion == "disjointness":
                    # The command line names no reference paths: no path
                    # shares an interface with them, so this criterion
                    # leaves the order to the next one.
                    parts.append(0)
                elif criterion == "carbon":
                    parts.append(meta.carbon_gco2_per_gb)
            parts.append(meta.fingerprint)
            return tuple(parts)

        return sorted(paths, key=key)


def policy_from_commandline(
    sequence: str = "",
    preference: str = "",
    interactive: bool = False,
    chooser=None,
) -> PathPolicy:
    """The PAN ``PolicyFromCommandline`` equivalent used by the bat port.

    ``interactive`` selection is modeled by a ``chooser`` callable receiving
    the ordered paths and returning the chosen one's index.
    """
    policy: PathPolicy = ShortestPolicy()
    if preference:
        policy = PreferencePolicy(preference)
    if sequence:
        policy = SequencePolicy(sequence).then(policy)
    if interactive:
        if chooser is None:
            raise PolicyError("interactive selection needs a chooser callable")
        policy = _InteractivePolicy(policy, chooser)
    return policy


class _InteractivePolicy(PathPolicy):
    def __init__(self, inner: PathPolicy, chooser):
        self._inner = inner
        self._chooser = chooser

    def order(self, paths: Sequence[PathMeta]) -> List[PathMeta]:
        ordered = self._inner.order(paths)
        if not ordered:
            return []
        index = self._chooser(ordered)
        if not (0 <= index < len(ordered)):
            raise PolicyError(f"chooser returned invalid index {index}")
        chosen = ordered[index]
        return [chosen] + [meta for meta in ordered if meta is not chosen]
