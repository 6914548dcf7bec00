"""Pluggable coherence-protocol backend registry.

A *backend* bundles everything that makes a directory protocol a
protocol: the cache-side state machine (which stable states satisfy a
load or a store), the directory-side controller (entry format and
transaction FSM), and the slice of the interned message vocabulary the
home node consumes.  :class:`~repro.system.Manycore` builds a machine
from whatever backend ``config.protocol`` names, so every harness —
litmus, fuzz, figures, campaigns, the batched kernel — is generic over
protocols.

Registering a backend is one call::

    register_backend(ProtocolBackend(
        name="my_protocol",
        description="...",
        uses_wireless=False,
        uses_sharer_threshold=False,
        readable_states=frozenset({MODIFIED, EXCLUSIVE, SHARED}),
        writable_states=frozenset({MODIFIED, EXCLUSIVE}),
        directory_kinds=(...interned kind names...),
        cache_factory=...,
        directory_factory=...,
    ))

Contract highlights (docs/PROTOCOLS.md has the full version):

* ``readable_states`` / ``writable_states`` are the *cache-side*
  permission sets.  They are per-backend precisely so a backend cannot
  silently inherit WiDir's W-state readability (the historical
  module-level frozenset import in ``cache.py``).
* ``directory_kinds`` scopes the message vocabulary: the wired router
  only forwards those kind_ids to the home node, everything else goes
  to the cache controller.  New kinds interned past
  ``messages.NUM_PROTOCOL_KINDS`` never perturb other backends'
  dispatch tables.
* Directory entries must keep the ``sharers``-set / ``owner`` /
  ``sharer_count`` idiom: the coherence checker and the trace snapshots
  read those fields directly.
* Factories receive the exact constructor signatures of the stock
  controllers; importing controller modules is deferred into the
  factories to keep this module import-light (config validation pulls
  it in).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Tuple

from repro.coherence import messages as mk
from repro.config.registry import Registry
from repro.coherence.states import (
    EXCLUSIVE,
    MODIFIED,
    SHARED,
    WIRELESS,
)

#: Message kinds every directory controller consumes (the MESI core).
BASE_DIRECTORY_KINDS: Tuple[str, ...] = (
    mk.GETS,
    mk.GETX,
    mk.PUTS,
    mk.PUTM,
    mk.PUTW,
    mk.INV_ACK,
    mk.INV_ACK_DATA,
    mk.WB_DATA,
    mk.FWD_ACK,
    mk.WIR_UPGR_ACK,
    mk.WIR_DWGR_ACK,
)


@dataclass(frozen=True)
class ProtocolBackend:
    """Everything the machine needs to instantiate one coherence protocol."""

    name: str
    description: str
    #: True when the machine must build the wireless plane (WNoC channel +
    #: tone network) for this protocol.
    uses_wireless: bool
    #: True when ``max_wired_sharers`` is a meaningful knob for this
    #: protocol (drives the ``/tN`` sweep-label suffix and the threshold
    #: litmus variants).
    uses_sharer_threshold: bool
    #: Cache-line states a load may hit in.
    readable_states: frozenset
    #: Cache-line states a store may hit in (without an upgrade).
    writable_states: frozenset
    #: Interned kind *names* routed to the directory at the home node.
    directory_kinds: Tuple[str, ...]
    #: ``(sim, node, config, amap, noc, stats, rng, wireless, tone) ->``
    #: cache controller.
    cache_factory: Callable = field(repr=False, default=None)
    #: ``(sim, node, config, amap, noc, memory_controllers, stats,
    #: wireless, tone) -> directory controller``.
    directory_factory: Callable = field(repr=False, default=None)

    def directory_kind_ids(self) -> frozenset:
        """Dense kind_ids of :attr:`directory_kinds`."""
        return frozenset(mk.kind_id(name) for name in self.directory_kinds)

    def directory_kind_table(self) -> List[bool]:
        """Dense ``kind_id -> bool`` table: True = route to the directory.

        Sized to the full interned vocabulary at call time; ids interned
        by *other* backends simply read False, so routing stays an O(1)
        list index on the hot path.
        """
        table = [False] * mk.num_kinds()
        for kid in self.directory_kind_ids():
            table[kid] = True
        return table


def _load_builtins() -> None:
    """Import the plugin modules that self-register the stock backends."""
    # Imported for their registration side effects; the classic
    # baseline/widir backends are declared below in this module.
    from repro.coherence import hybrid_update  # noqa: F401
    from repro.coherence import phase_priority  # noqa: F401


_REGISTRY: Registry = Registry("protocol backend", _load_builtins)


def register_backend(backend: ProtocolBackend) -> ProtocolBackend:
    """Add ``backend`` to the registry (idempotent for identical re-adds)."""
    return _REGISTRY.register(backend.name, backend)


def get_backend(name: str) -> ProtocolBackend:
    """Look up a backend; raises ``ValueError`` naming the known set."""
    return _REGISTRY.get(name)


def backend_names() -> Tuple[str, ...]:
    """Registered backend names, sorted for stable CLI/docs output."""
    return _REGISTRY.names()


def registered_backends() -> Tuple[ProtocolBackend, ...]:
    """All registered backends, sorted by name."""
    return _REGISTRY.values()


def _baseline_cache(sim, node, config, amap, noc, stats, rng, wireless, tone):
    from repro.coherence.cache import CacheController

    return CacheController(
        sim, node, config, amap, noc, stats, rng, wireless=wireless, tone=tone
    )


def _baseline_directory(
    sim, node, config, amap, noc, memory_controllers, stats, wireless, tone
):
    from repro.coherence.dir_controller import DirectoryController

    return DirectoryController(
        sim,
        node,
        config,
        amap,
        noc,
        memory_controllers,
        stats,
        wireless=wireless,
        tone=tone,
    )


register_backend(
    ProtocolBackend(
        name="baseline",
        description="Directory MESI with invalidation-based sharing (DirB).",
        uses_wireless=False,
        uses_sharer_threshold=False,
        readable_states=frozenset({MODIFIED, EXCLUSIVE, SHARED}),
        writable_states=frozenset({MODIFIED, EXCLUSIVE}),
        directory_kinds=BASE_DIRECTORY_KINDS,
        cache_factory=_baseline_cache,
        directory_factory=_baseline_directory,
    )
)

register_backend(
    ProtocolBackend(
        name="widir",
        description=(
            "WiDir: MESI plus a wireless update-mode W state for "
            "highly-shared lines (the source paper's protocol)."
        ),
        uses_wireless=True,
        uses_sharer_threshold=True,
        readable_states=frozenset({MODIFIED, EXCLUSIVE, SHARED, WIRELESS}),
        writable_states=frozenset({MODIFIED, EXCLUSIVE}),
        directory_kinds=BASE_DIRECTORY_KINDS,
        cache_factory=_baseline_cache,
        directory_factory=_baseline_directory,
    )
)
