"""Cross-MAC differential harness for the pluggable wireless MAC API.

Every registered MAC backend drives the *same* seeded memory-operation
stream through the same WiDir machine (threshold forced to 1 so the
wireless path dominates). The stream's final memory image is
interleaving-independent — one writer per variable plus a commutative
RMW counter — so four different channel disciplines must converge on one
answer, while per-MAC golden digests pin each discipline's exact timing
and observation history.

Channel-error variants run the same stream with seeded frame corruption
and missed tones, proving every MAC's retransmit path under the same
oracles. The MAC structural invariants (token never collides, CSMA only
starts transmissions on slot boundaries, the FDMA partition is total)
get hypothesis property tests against a bare channel, and each MAC-scoped
mutation gets a smoke test proving the fuzz liveness oracle catches it.
"""

import hashlib
import json
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config.system import ChannelErrorConfig, SystemConfig, WirelessConfig
from repro.engine.rng import DeterministicRng
from repro.engine.simulator import Simulator
from repro.stats.collectors import StatsRegistry
from repro.system import Manycore
from repro.verify.artifacts import FailureArtifact, shrink_trial
from repro.verify.fuzz import execute_trial, generate_trial
from repro.verify.litmus import suite_configs
from repro.verify.mutations import (
    MUTATION_MACS,
    MUTATION_PROTOCOLS,
    MUTATIONS,
)
from repro.wireless.channel import WirelessDataChannel
from repro.wireless.frames import WirelessFrame
from repro.wireless.mac import (
    DEFAULT_MAC,
    MacBackend,
    get_mac,
    mac_names,
    registered_macs,
)
from repro.wireless.mac_fdma import FdmaMacState

NUM_CORES = 8
STREAM_SEED = 4021
OPS_PER_CORE = 40

#: Per-MAC golden digests of the differential stream (cycles + observation
#: history + final image), plus ``<mac>+err`` variants with the seeded
#: channel-error model on. Regenerate deliberately with
#: ``python -m tests.test_mac_backends`` after an intentional MAC change;
#: an unexplained diff is a semantic regression.
GOLDEN_MAC_DIGESTS = {
    "brs": "98f33512bec98f78",
    "csma_slotted": "ffce035d8e91edcf",
    "fdma": "ff5e78ea0b793dd4",
    "token": "1fd9d97e5834cb36",
    "brs+err": "c277dcd6a6028991",
    "csma_slotted+err": "d3a04597c6d30378",
    "fdma+err": "19e353dad3c87f56",
    "token+err": "6a1fbd6b160a0f44",
}

#: Seeded error model for the ``+err`` variants: aggressive enough that
#: the bounded stream always exercises both retransmit paths.
ERRORS = ChannelErrorConfig(frame_corruption_prob=0.15, missed_tone_prob=0.15)


# ------------------------------------------------------ the seeded stream


def differential_stream(
    seed: int = STREAM_SEED,
    num_cores: int = NUM_CORES,
    ops_per_core: int = OPS_PER_CORE,
):
    """One program per core: single-writer stores, shared loads, RMWs."""
    rng = DeterministicRng(seed).split("mac-differential")
    programs = []
    for core in range(num_cores):
        ops = []
        version = 0
        for _ in range(ops_per_core):
            roll = rng.randint(0, 99)
            if roll < 35:
                version += 1
                ops.append(("store", core, core * 1000 + version))
            elif roll < 80:
                ops.append(("load", rng.randint(0, num_cores - 1), None))
            else:
                ops.append(("rmw", num_cores, None))
        programs.append(ops)
    return programs


def expected_final_image(programs, num_cores=NUM_CORES):
    image = {}
    rmws = 0
    for core, ops in enumerate(programs):
        for kind, var, value in ops:
            if kind == "store":
                image[var] = value
            elif kind == "rmw":
                rmws += 1
    image[num_cores] = rmws
    return image


def _machine_for(mac: str, errors: bool, num_cores: int = NUM_CORES) -> Manycore:
    config = SystemConfig(
        num_cores=num_cores,
        protocol="widir",
        seed=9,
        check_interval=200,  # the online invariant monitor rides along
        mac=mac,
    )
    # Threshold 1 with full pointers: every contended line goes wireless,
    # so the MAC under test carries the bulk of the traffic.
    config = replace(
        config,
        directory=replace(
            config.directory, num_pointers=num_cores, max_wired_sharers=1
        ),
    )
    if errors:
        config = replace(config, channel_errors=ERRORS)
    return Manycore(config)


def run_mac_differential(mac: str, errors: bool = False):
    """Drive the stream through one MAC; returns (digest, image, machine)."""
    programs = differential_stream()
    machine = _machine_for(mac, errors)
    line_bytes = machine.config.l1.line_bytes
    addresses = {var: (0x40 + var) * line_bytes for var in range(NUM_CORES + 1)}
    observations = [[] for _ in range(NUM_CORES)]
    finished = [False] * NUM_CORES

    def step(core: int, index: int) -> None:
        if index >= len(programs[core]):
            finished[core] = True
            return
        kind, var, value = programs[core][index]
        if kind == "load":

            def on_load(v, core=core, index=index):
                observations[core].append(v)
                step(core, index + 1)

            machine.caches[core].load(addresses[var], on_load)
        elif kind == "store":
            machine.caches[core].store(
                addresses[var],
                value,
                lambda core=core, index=index: step(core, index + 1),
            )
        else:

            def on_rmw(old, core=core, index=index):
                observations[core].append(old)
                step(core, index + 1)

            machine.caches[core].rmw(addresses[var], on_rmw)

    for core in range(NUM_CORES):
        step(core, 0)
    machine.run()

    assert all(finished), f"{mac}: unfinished cores (liveness)"
    machine.check_coherence(quiescent=True)  # SWMR + value agreement

    image = {}

    def read_back(var: int) -> None:
        if var > NUM_CORES:
            return

        def on_value(v, var=var):
            image[var] = v
            read_back(var + 1)

        machine.caches[0].load(addresses[var], on_value)

    read_back(0)
    machine.run()
    machine.check_coherence(quiescent=True)

    witness = {
        "mac": mac,
        "errors": errors,
        "cycles": machine.sim.now,
        "observations": observations,
        "image": sorted(image.items()),
    }
    digest = hashlib.sha256(
        json.dumps(witness, sort_keys=True).encode()
    ).hexdigest()[:16]
    return digest, image, machine


def _counter(machine: Manycore, name: str) -> int:
    return machine.stats.counter(name).value


# --------------------------------------------------------------- registry


def test_registry_has_all_four_macs():
    assert set(mac_names()) >= {"brs", "csma_slotted", "fdma", "token"}
    assert DEFAULT_MAC == "brs"
    for backend in registered_macs():
        assert isinstance(backend, MacBackend)
        assert backend.description
    assert get_mac("token").collision_free
    assert get_mac("fdma").collision_free and get_mac("fdma").multi_channel
    assert get_mac("brs").uses_backoff and not get_mac("brs").collision_free
    assert get_mac("csma_slotted").uses_backoff


def test_unknown_mac_raises_with_known_set():
    with pytest.raises(ValueError, match="brs"):
        get_mac("definitely_not_a_mac")


def test_litmus_matrix_covers_every_mac():
    labels = {label for label, _ in suite_configs(num_cores=8)}
    for mac in mac_names():
        if mac == DEFAULT_MAC:
            continue
        assert f"widir-{mac}" in labels
        assert f"widir-mws1-{mac}" in labels
    assert "widir-chanerr" in labels
    macs = {config.mac for _, config in suite_configs(num_cores=8)}
    assert macs == set(mac_names())


# ----------------------------------------------------- differential tests


@pytest.mark.parametrize("mac", mac_names())
def test_differential_stream_matches_golden_digest(mac):
    digest, image, machine = run_mac_differential(mac)
    assert image == expected_final_image(differential_stream())
    if get_mac(mac).collision_free:
        assert _counter(machine, "wnoc.collisions") == 0, (
            f"{mac} claims collision_free but collided"
        )
    assert mac in GOLDEN_MAC_DIGESTS, f"pin a golden digest for {mac}"
    assert digest == GOLDEN_MAC_DIGESTS[mac], (
        f"{mac} digest drifted: {digest} != {GOLDEN_MAC_DIGESTS[mac]} — "
        "a semantic change to this MAC (or an event-order change)"
    )


@pytest.mark.parametrize("mac", mac_names())
def test_differential_stream_with_channel_errors(mac):
    digest, image, machine = run_mac_differential(mac, errors=True)
    assert image == expected_final_image(differential_stream())
    # The error model actually fired: the stream is long enough that both
    # injection paths trigger at these probabilities.
    assert _counter(machine, "wnoc.corrupted") > 0
    assert _counter(machine, "tone.missed") > 0
    key = f"{mac}+err"
    assert digest == GOLDEN_MAC_DIGESTS[key], (
        f"{key} digest drifted: {digest} != {GOLDEN_MAC_DIGESTS[key]}"
    )


def test_final_memory_images_identical_across_macs():
    images = {mac: run_mac_differential(mac)[1] for mac in mac_names()}
    reference = images[DEFAULT_MAC]
    for mac, image in images.items():
        assert image == reference, (
            f"{mac} final memory image diverges from {DEFAULT_MAC}"
        )


# ------------------------------------------------- bare-channel harness


def _bare_channel(
    mac: str, num_nodes: int = 8, **overrides
) -> WirelessDataChannel:
    config = WirelessConfig(**overrides)
    channel = WirelessDataChannel(
        Simulator(),
        config,
        num_nodes,
        StatsRegistry(),
        DeterministicRng(1234).split("bare-channel"),
        mac=get_mac(mac),
    )
    for node in range(num_nodes):
        channel.register_receiver(node, lambda frame: None)
    return channel


def _blast(channel: WirelessDataChannel, sends):
    """Queue (time, node) transmissions; returns delivery count."""
    delivered = []
    for at, node in sends:
        def queue(node=node):
            frame = WirelessFrame("WirUpd", node, 0x40 + node)
            channel.transmit(frame, on_delivered=lambda: delivered.append(1))

        channel.sim.schedule_at(at, queue)
    channel.sim.run()
    return len(delivered)


SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

sends_strategy = st.lists(
    st.tuples(st.integers(0, 60), st.integers(0, 7)),
    min_size=1,
    max_size=16,
)


@SETTINGS
@given(sends=sends_strategy)
def test_property_token_never_collides(sends):
    """Any burst pattern: the token MAC delivers everything with zero
    collisions and zero backoff draws (no policies exist to draw from)."""
    channel = _bare_channel("token")
    assert channel._backoff == ()
    assert _blast(channel, sends) == len(sends)
    assert channel.stats.counter("wnoc.collisions").value == 0


@SETTINGS
@given(sends=sends_strategy)
def test_property_fdma_never_collides_and_delivers_all(sends):
    channel = _bare_channel("fdma")
    assert _blast(channel, sends) == len(sends)
    assert channel.stats.counter("wnoc.collisions").value == 0


@SETTINGS
@given(sends=sends_strategy)
def test_property_csma_transmissions_start_on_slot_boundaries(sends):
    """Every granted transmission starts at a contention-slot boundary,
    for any arrival pattern (frame lengths are not slot multiples, so
    un-deferred arbitration would violate this immediately)."""
    channel = _bare_channel("csma_slotted")
    slot = (
        channel.config.preamble_cycles + channel.config.collision_detect_cycles
    )
    starts = []
    original_grant = channel.grant

    def recording_grant(request, now, start_delay, duration):
        starts.append(now + start_delay)
        original_grant(request, now, start_delay, duration)

    channel.grant = recording_grant
    assert _blast(channel, sends) == len(sends)
    assert starts, "no transmission was ever granted"
    assert all(start % slot == 0 for start in starts), starts


@SETTINGS
@given(
    lines=st.lists(st.integers(0, 2**24 - 1), min_size=1, max_size=64),
    k=st.integers(1, 8),
)
def test_property_fdma_partition_is_total(lines, k):
    """Every line lands on exactly one sub-channel in [0, k); per-channel
    counts always sum to the total (the partition loses nothing)."""
    channel = _bare_channel("fdma", fdma_channels=k)
    state = channel._mac
    assert isinstance(state, FdmaMacState)
    counts = [0] * k
    for line in lines:
        sub = state.subchannel(line)
        assert 0 <= sub < k
        assert state.subchannel(line) == sub  # static: same line, same sub
        counts[sub] += 1
    assert sum(counts) == len(lines)


@SETTINGS
@given(
    line=st.integers(0, 2**24 - 1),
    k=st.integers(1, 8),
)
def test_property_fdma_aligned_addresses_spread(line, k):
    """Line indices and line-aligned byte addresses (constant low bits)
    must map consistently — the fold keeps high bits relevant."""
    channel = _bare_channel("fdma", fdma_channels=k)
    state = channel._mac
    sub = state.subchannel(line)
    assert 0 <= sub < k


# ------------------------------------------- mutation smoke: the MAC zoo


def test_mac_mutations_registered_with_applicability():
    for name in ("token_lost", "csma_always_defer"):
        assert name in MUTATIONS
        assert MUTATION_PROTOCOLS[name] == ("widir",)
    assert MUTATION_MACS["token_lost"] == ("token",)
    assert MUTATION_MACS["csma_always_defer"] == ("csma_slotted",)
    # MAC-scoped mutations refuse machines on the wrong MAC.
    from repro.verify.mutations import apply_mutation

    machine = Manycore(SystemConfig(num_cores=4, protocol="widir"))
    with pytest.raises(ValueError):
        apply_mutation(machine, "token_lost")
    with pytest.raises(ValueError):
        apply_mutation(machine, "csma_always_defer")


def test_mutation_token_lost_caught_and_replayable(tmp_path):
    """A vanished token deadlocks the channel; the failure shrinks and
    replays from a serialized artifact (config carries the MAC)."""
    spec = generate_trial(
        0, 6, num_cores=8, ops_per_core=30, protocol="widir",
        check_interval=150, mac="token",
    )
    spec.mutation = "token_lost"
    spec.max_events = 150_000  # bounded: the deadlock shows up fast
    result = execute_trial(spec)
    assert not result.ok
    assert "max_events" in result.failure or "deadlock" in result.failure

    shrunk = shrink_trial(spec, max_checks=12)
    assert 0 < shrunk.total_ops <= spec.total_ops
    artifact = FailureArtifact(
        campaign="smoke", seed=0, trial_index=6, failure=result.failure,
        spec=shrunk, shrunk=True,
        original_ops=spec.total_ops, shrunk_ops=shrunk.total_ops,
    )
    loaded = FailureArtifact.load(artifact.save(tmp_path / "token.json"))
    assert SystemConfig.from_dict(loaded.spec.config).mac == "token"
    replay = execute_trial(loaded.spec)
    assert not replay.ok
    assert execute_trial(loaded.spec).failure == replay.failure


def test_mutation_csma_always_defer_deadlocks():
    spec = generate_trial(
        0, 7, num_cores=8, ops_per_core=30, protocol="widir",
        check_interval=150, mac="csma_slotted",
    )
    spec.mutation = "csma_always_defer"
    spec.max_events = 150_000
    result = execute_trial(spec)
    assert not result.ok
    assert "max_events" in result.failure or "deadlock" in result.failure


# ----------------------------------------------- fuzz with channel errors


def test_fuzz_trial_with_channel_errors_is_clean_and_deterministic():
    """Seeded corruption + missed tones on a correct machine must pass
    every oracle, deterministically, on every MAC."""
    for index, mac in enumerate(mac_names()):
        spec = generate_trial(
            21, index, num_cores=8, ops_per_core=25, protocol="widir",
            mac=mac, channel_errors=True,
        )
        assert SystemConfig.from_dict(spec.config).channel_errors.enabled
        first = execute_trial(spec)
        assert first.ok, (mac, first.failure)
        second = execute_trial(spec)
        assert (first.digest, first.cycles) == (second.digest, second.cycles)


if __name__ == "__main__":  # pragma: no cover - golden regeneration aid
    for _mac in mac_names():
        print(f'    "{_mac}": "{run_mac_differential(_mac)[0]}",')
    for _mac in mac_names():
        print(
            f'    "{_mac}+err": '
            f'"{run_mac_differential(_mac, errors=True)[0]}",'
        )
