"""Controller/mapper hot-loop parity and regression tests.

The controller's activation and RowClone loops use row-arithmetic
adjacency, memoized clone-pair checks and pre-resolved command costs.
These tests pin them to :class:`PerCallNeighborController`, a test-local
oracle that re-derives every neighbour through
``AddressMapper.compute_neighbors`` and charges through
``CommandStats.record``, and guard the memoization against the one thing
that could invalidate it — defense remaps through the indirection table
(they cannot: adjacency is physical).
"""

import numpy as np
import pytest

from repro.dram import (
    Command,
    DramDevice,
    DramGeometry,
    MemoryController,
    RowAddress,
    TimingParams,
)
from repro.dram.commands import command_latency_ns

GEOMETRY = DramGeometry(
    banks=2, subarrays_per_bank=2, rows_per_subarray=32, row_bytes=64
)


class PerCallNeighborController(MemoryController):
    """Oracle controller: validates and resolves every address per call,
    derives neighbours with ``compute_neighbors``, and re-derives each
    command's cost on every charge.  Emits no command events."""

    def _charge(self, command, actor, repeat=1):
        self.stats.record(command, self.timing, repeat)
        self.actor_stats(actor).record(command, self.timing, repeat)
        self.now_ns += command_latency_ns(command, self.timing) * repeat

    def _disturb(self, neighbor, count):
        sa = self.device.subarray_at(neighbor)
        sa.disturbance[neighbor.row] += count
        self._check_threshold(neighbor, sa)

    def _activate_chunk(self, physical, actor, count, hammer):
        self.device.subarray_at(physical).reset_disturbance(physical.row)
        self.device.bank(physical.bank).activate(
            physical.subarray, physical.row
        )
        if hammer:
            self._charge_hammer(actor, count)
        else:
            self._charge(Command.ACT, actor, count)
        for hook in self._activate_hooks:
            hook(physical, self.now_ns, count)
        for neighbor in self.device.mapper.compute_neighbors(physical):
            self._disturb(neighbor, count)

    def rowclone(self, src, dst, actor="system"):
        self.device.mapper.validate(src)
        self.device.mapper.validate(dst)
        if not src.same_subarray(dst) or src == dst:
            raise ValueError(f"invalid RowClone FPM pair {src} -> {dst}")
        self.device.subarray_at(src).copy_row(src.row, dst.row)
        self._mark_dirty(self.indirection.logical(dst))
        self._charge(Command.AAP, actor)
        for row in (src, dst):
            for neighbor in self.device.mapper.compute_neighbors(row):
                if neighbor != src and neighbor != dst:
                    self._disturb(neighbor, 1)
        self._maybe_refresh()


def make_controller(t_rh: int = 50, cls=MemoryController) -> MemoryController:
    controller = cls(DramDevice(GEOMETRY), TimingParams(t_rh=t_rh))
    controller.device.fill_random(np.random.default_rng(7))
    return controller


class TestNeighborMemoization:
    def test_neighbors_match_uncached(self):
        mapper = DramDevice(GEOMETRY).mapper
        for addr in (RowAddress(0, 0, 0), RowAddress(1, 1, 5),
                     RowAddress(0, 1, 31)):
            assert mapper.neighbors(addr) == mapper.compute_neighbors(addr)

    def test_memoization_survives_indirection_remaps(self):
        """Adjacency is physical: remapping logical rows must not change
        (or stale-poison) the memoized neighbour lists."""
        controller = make_controller()
        mapper = controller.device.mapper
        victim = RowAddress(0, 0, 10)
        before = list(mapper.neighbors(victim))
        # Remap the victim and one of its neighbours somewhere else.
        controller.indirection.swap(victim, RowAddress(0, 0, 20))
        controller.indirection.swap(RowAddress(0, 0, 11), RowAddress(0, 0, 25))
        after = mapper.neighbors(victim)
        assert after == before
        assert after == mapper.compute_neighbors(victim)
        # The remap is visible through the indirection, not the mapper.
        assert controller.indirection.physical(victim) == RowAddress(0, 0, 20)

    def test_validate_still_rejects_bad_addresses(self):
        mapper = DramDevice(GEOMETRY).mapper
        mapper.validate(RowAddress(0, 0, 0))  # warm the memo
        with pytest.raises(ValueError):
            mapper.validate(RowAddress(0, 0, GEOMETRY.rows_per_subarray))
        with pytest.raises(ValueError):
            mapper.validate(RowAddress(GEOMETRY.banks, 0, 0))
        with pytest.raises(ValueError):
            mapper.neighbors(RowAddress(0, GEOMETRY.subarrays_per_bank, 0))

    def test_indirection_version_bumps_on_swap(self):
        controller = make_controller()
        ind = controller.indirection
        v0 = ind.version
        ind.swap(RowAddress(0, 0, 1), RowAddress(0, 0, 2))
        assert ind.version == v0 + 1
        ind.swap(RowAddress(0, 0, 1), RowAddress(0, 0, 2))  # swap back
        assert ind.version == v0 + 2


def _hammer_script(controller: MemoryController) -> None:
    """A mixed activation/rowclone workload crossing the flip threshold."""
    aggressor = RowAddress(0, 0, 5)
    victim = RowAddress(0, 0, 6)
    controller.declare_attack_targets(victim, [3, 11])
    controller.activate(aggressor, actor="attacker", count=60, hammer=True)
    controller.rowclone(RowAddress(0, 0, 20), RowAddress(0, 0, 22),
                        actor="defender")
    controller.rowclone(RowAddress(0, 0, 22), RowAddress(0, 0, 24),
                        actor="defender")
    controller.activate(RowAddress(1, 1, 9), actor="attacker", count=55,
                        hammer=True)
    controller.advance_time(1000.0)


class TestReferenceParity:
    def test_identical_state_after_workload(self):
        library = make_controller()
        reference = make_controller(cls=PerCallNeighborController)
        _hammer_script(library)
        _hammer_script(reference)
        assert library.now_ns == reference.now_ns
        assert library.stats.counts == reference.stats.counts
        assert library.stats.total_time_ns == reference.stats.total_time_ns
        assert library.stats.total_energy_pj == reference.stats.total_energy_pj
        flips_library = [
            (e.physical_row, e.bit, e.old_value, e.new_value)
            for e in library.device.fault_log.events
        ]
        flips_reference = [
            (e.physical_row, e.bit, e.old_value, e.new_value)
            for e in reference.device.fault_log.events
        ]
        assert flips_library == flips_reference
        assert len(flips_library) == 2  # both declared bits landed
        for bank in range(GEOMETRY.banks):
            for sub in range(GEOMETRY.subarrays_per_bank):
                sa_l = library.device.banks[bank].subarrays[sub]
                sa_r = reference.device.banks[bank].subarrays[sub]
                np.testing.assert_array_equal(sa_l.rows, sa_r.rows)
                np.testing.assert_array_equal(
                    sa_l.disturbance, sa_r.disturbance
                )

    def test_rowclone_still_validates(self):
        controller = make_controller()
        with pytest.raises(ValueError):
            controller.rowclone(RowAddress(0, 0, 1), RowAddress(0, 1, 1))
        with pytest.raises(ValueError):
            controller.rowclone(RowAddress(0, 0, 1), RowAddress(0, 0, 1))
        with pytest.raises(ValueError):
            controller.rowclone(RowAddress(0, 0, 1), RowAddress(0, 0, 99))


class TestDirtyTracking:
    def test_poke_and_write_mark_dirty(self):
        controller = make_controller()
        row = RowAddress(0, 1, 4)
        version = controller.content_version
        controller.poke_logical(row, np.zeros(GEOMETRY.row_bytes, np.uint8))
        assert controller.dirty_rows_since(version) == [row]
        version = controller.content_version
        controller.write_logical(
            row, np.ones(GEOMETRY.row_bytes, np.uint8), actor="system"
        )
        assert row in controller.dirty_rows_since(version)
        assert controller.dirty_rows_since(controller.content_version) == []

    def test_flip_marks_victim_logical_row_dirty(self):
        controller = make_controller()
        victim = RowAddress(0, 0, 6)
        # Remap the victim's data elsewhere so physical != logical.
        moved = RowAddress(0, 0, 15)
        controller.indirection.swap(victim, moved)
        version = controller.content_version
        physical = controller.indirection.physical(victim)
        controller.declare_attack_targets(physical, [0])
        aggressor = physical.with_row(physical.row - 1)
        controller.activate(aggressor, actor="attacker", count=60, hammer=True)
        dirty = controller.dirty_rows_since(version)
        assert victim in dirty  # the *logical* owner of the flipped data

    def test_rowclone_marks_destination_dirty(self):
        controller = make_controller()
        version = controller.content_version
        controller.rowclone(RowAddress(0, 0, 2), RowAddress(0, 0, 8))
        assert RowAddress(0, 0, 8) in controller.dirty_rows_since(version)


class TestVectorizedFlipBits:
    def test_matches_naive_reference(self):
        rng = np.random.default_rng(3)
        sa = make_controller().device.banks[0].subarrays[0]
        reference = sa.rows[4].copy()
        bits = sorted(rng.choice(GEOMETRY.row_bytes * 8, 17, replace=False))
        events = sa.flip_bits(4, [int(b) for b in bits])
        assert [e[0] for e in events] == list(bits)
        for bit, old, new in events:
            byte_index, bit_in_byte = divmod(bit, 8)
            assert old == (int(reference[byte_index]) >> bit_in_byte) & 1
            assert new == 1 - old
            reference[byte_index] ^= 1 << bit_in_byte
        np.testing.assert_array_equal(sa.rows[4], reference)

    def test_empty_and_invalid(self):
        sa = make_controller().device.banks[0].subarrays[0]
        assert sa.flip_bits(0, []) == []
        with pytest.raises(ValueError):
            sa.flip_bits(0, [GEOMETRY.row_bytes * 8])
        with pytest.raises(ValueError):
            sa.flip_bits(0, [-1])

    def test_duplicate_bits_report_sequential_events(self):
        """Duplicates cancel in the data, but events must alternate
        old/new exactly as sequential application reported them."""
        sa = make_controller().device.banks[0].subarrays[0]
        before = sa.rows[2].copy()
        old = (int(before[0]) >> 5) & 1
        events = sa.flip_bits(2, [5, 5, 5])
        assert events == [
            (5, old, 1 - old), (5, 1 - old, old), (5, old, 1 - old)
        ]
        # Odd number of toggles: the bit ends flipped once.
        assert ((int(sa.rows[2][0]) >> 5) & 1) == 1 - old
        events = sa.flip_bits(2, [9, 9])
        assert events[0][1] == 1 - events[1][1]
        np.testing.assert_array_equal(sa.rows[2][1:], before[1:])
