"""Reference campaign refresh: the all-pairs rescan the engine replaced.

Every link event marks the whole campaign dirty and the next interval
re-derives the selection of *every* pair — O(pairs x paths) per dirty
interval, obviously right.  ``test_campaign_refresh.py`` runs it beside
:class:`MultipingCampaign` and requires record-for-record equal datasets.
"""

from repro.netsim.failures import LinkEvent
from repro.sciera.multiping import MultipingCampaign


class FullRescanCampaign(MultipingCampaign):
    _dirty = False

    def _on_link_event(self, event: LinkEvent) -> None:
        self.stats.refresh_events += 1
        self._dirty = True

    def _refresh(self) -> None:
        if not self._states:
            self._ensure_analyzed()
            # Events before the sweep are reflected in its selection.
            self._dirty = False
        if not self._dirty:
            return
        for key in self._pairs:
            self._refresh_pair(self._states[key])
        self.stats.full_refreshes += 1
        self.stats.pairs_refreshed += len(self._pairs)
        self._dirty = False
