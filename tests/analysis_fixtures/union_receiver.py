"""Fixture: receivers typed ``Union[...]`` follow every member class."""

from typing import Dict, Optional, Union

from repro.analysis.witness import named_lock


class LocalPeer:
    def __init__(self):
        self._state = named_lock("fixture.local_state")

    def export(self):
        with self._state:
            return {}


class WirePeer:
    def __init__(self):
        self._pool = named_lock("fixture.wire_pool")

    def export(self):
        with self._pool:
            return {}


class Registry:
    def __init__(self):
        self._topology = named_lock("fixture.topology")
        self._sync = named_lock("fixture.sync")
        self.peers: Dict[str, Union[LocalPeer, WirePeer]] = {}

    def peer(self, name: str) -> Union[LocalPeer, WirePeer]:
        return self.peers[name]

    def through_return(self, name):
        with self._topology:
            peer = self.peer(name)
            peer.export()

    def through_annotated_local(self, table, name):
        with self._sync:
            peer: Optional[Union[LocalPeer, WirePeer]] = table.get(name)
            if peer is not None:
                peer.export()
