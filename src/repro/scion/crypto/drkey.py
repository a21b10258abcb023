"""DRKey: SCION's dynamically recreatable key hierarchy.

LightningFilter authenticates packets at line rate because the receiving
AS can *derive* the symmetric key it shares with any source — one PRF
invocation instead of a key lookup or an asymmetric operation. The
hierarchy:

* each AS holds a per-epoch secret value ``SV_A``;
* the first-level key for traffic from AS B toward A is
  ``K_{A->B} = PRF(SV_A, "drkey-l1" || B || epoch)`` — A derives it on the
  fly; B fetches it once from A's control service over an authenticated
  channel;
* host-level keys bind individual end hosts:
  ``K_{A->B:h} = PRF(K_{A->B}, "host" || h)``.

The asymmetry is the point: the *fast side* (A, verifying at line rate)
only derives; the *slow side* (B, stamping packets) prefetched its key.
Epochs bound key lifetime so compromise heals without revocation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.errors import ReproError
from repro.scion.crypto.keys import SymmetricKey


class DrkeyError(ReproError):
    """Raised for epoch mismatches or malformed requests."""


#: Default epoch length: one day (short-lived, like the AS certificates).
DEFAULT_EPOCH_S = 24 * 3600.0


@dataclass(frozen=True)
class DrkeyEpoch:
    """One validity window of the hierarchy."""

    index: int
    not_before: float
    not_after: float

    def contains(self, t: float) -> bool:
        return self.not_before <= t < self.not_after


def epoch_at(t: float, epoch_s: float = DEFAULT_EPOCH_S) -> DrkeyEpoch:
    if t < 0:
        raise DrkeyError("time must be non-negative")
    index = int(t // epoch_s)
    return DrkeyEpoch(index, index * epoch_s, (index + 1) * epoch_s)


class DrkeyProvider:
    """The fast side: an AS deriving keys from its secret value."""

    def __init__(self, local_ia: str, master: SymmetricKey,
                 epoch_s: float = DEFAULT_EPOCH_S):
        self.local_ia = local_ia
        self._master = master
        self.epoch_s = epoch_s

    def secret_value(self, epoch: DrkeyEpoch) -> SymmetricKey:
        """``SV_A`` for one epoch — never leaves the AS."""
        return self._master.derive(f"drkey-sv:{self.local_ia}:{epoch.index}")

    def level1_key(self, remote_ia: str, t: float) -> SymmetricKey:
        """``K_{A->B}``: the key A shares with all of B for this epoch."""
        epoch = epoch_at(t, self.epoch_s)
        return self.secret_value(epoch).derive(f"drkey-l1:{remote_ia}")

    def host_key(self, remote_ia: str, remote_host: str, t: float) -> SymmetricKey:
        """``K_{A->B:h}``: bound to one host of the remote AS."""
        return self.level1_key(remote_ia, t).derive(f"host:{remote_host}")


class DrkeyClient:
    """The slow side: an AS that fetched level-1 keys and derives host keys.

    ``fetch`` models the authenticated control-plane exchange (in reality
    protected by the CP-PKI); afterwards the client can stamp packets for
    the provider without further interaction — until the epoch rolls.
    """

    def __init__(self, local_ia: str, epoch_s: float = DEFAULT_EPOCH_S):
        self.local_ia = local_ia
        self.epoch_s = epoch_s
        self._level1: Dict[Tuple[str, int], SymmetricKey] = {}
        self.fetches = 0

    def fetch(self, provider: DrkeyProvider, t: float) -> SymmetricKey:
        """Obtain ``K_{provider->me}`` for the epoch containing ``t``."""
        epoch = epoch_at(t, self.epoch_s)
        cache_key = (provider.local_ia, epoch.index)
        cached = self._level1.get(cache_key)
        if cached is not None:
            return cached
        key = provider.level1_key(self.local_ia, t)
        self._level1[cache_key] = key
        self.fetches += 1
        return key

    def host_key(self, provider_ia: str, local_host: str, t: float) -> SymmetricKey:
        epoch = epoch_at(t, self.epoch_s)
        level1 = self._level1.get((provider_ia, epoch.index))
        if level1 is None:
            raise DrkeyError(
                f"no level-1 key for {provider_ia} in epoch {epoch.index}; "
                "fetch first"
            )
        return level1.derive(f"host:{local_host}")
