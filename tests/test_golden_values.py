"""Golden-value regression tests.

These lock in the calibrated model's headline numbers with generous but
meaningful bands, so silent regressions of the physics or the calibration
are caught immediately.  If a deliberate recalibration moves a value,
update the band *and* EXPERIMENTS.md together.
"""

import random

import pytest

from repro import Command, DramPowerModel
from repro.circuits import column, wordline
from repro.core.idd import idd0, idd2n, idd4r, idd7_mixed
from repro.core.trace import evaluate_trace
from repro.devices import ddr3_2g_55nm
from repro.trace import AddressDecoder, replay_trace_file
from repro.workloads import random_trace


@pytest.fixture(scope="module")
def model():
    return DramPowerModel(ddr3_2g_55nm())


class TestHeadlineCurrents:
    """The 2 Gb DDR3-1600 x16 55 nm reference device."""

    def test_idd0(self, model):
        assert idd0(model).milliamps == pytest.approx(70.6, rel=0.15)

    def test_idd2n(self, model):
        assert idd2n(model).milliamps == pytest.approx(40.8, rel=0.15)

    def test_idd4r(self, model):
        assert idd4r(model).milliamps == pytest.approx(160.0, rel=0.15)

    def test_energy_per_bit(self, model):
        assert idd7_mixed(model).energy_per_bit_pj == pytest.approx(
            18.1, rel=0.15)


class TestOperationEnergies:
    def test_activate_energy(self, model):
        # Dominated by 16384 bitlines × ~100 fF × Vbl/2 through the Vbl
        # regulator: a couple of nanojoules.
        energy = model.operation_energy(Command.ACT)
        assert energy == pytest.approx(2.2e-9, rel=0.3)

    def test_read_energy(self, model):
        energy = model.operation_energy(Command.RD)
        assert energy == pytest.approx(1.15e-9, rel=0.3)

    def test_precharge_energy(self, model):
        energy = model.operation_energy(Command.PRE)
        assert energy == pytest.approx(0.6e-9, rel=0.5)


class TestCircuitCapacitances:
    """Absolute capacitance sanity at the 55 nm calibration point."""

    def test_local_wordline_tens_of_femtofarad(self, model):
        cap = wordline.local_wordline_capacitance(model.device)
        assert 10e-15 < cap < 100e-15

    def test_master_wordline_sub_picofarad(self, model):
        cap = wordline.master_wordline_capacitance(model.device,
                                                   model.geometry)
        assert 0.1e-12 < cap < 2e-12

    def test_csl_about_a_picofarad(self, model):
        cap = column.csl_capacitance(model.device, model.geometry)
        assert 0.3e-12 < cap < 3e-12

    def test_master_dataline_sub_picofarad(self, model):
        cap = column.master_dataline_capacitance(model.device,
                                                 model.geometry)
        assert 0.2e-12 < cap < 2e-12


class TestGeometryGolden:
    def test_die_area(self, model):
        assert model.geometry.die_area * 1e6 == pytest.approx(66.7,
                                                              rel=0.1)

    def test_block_matches_paper_sample(self, model):
        # The paper's Figure 1 sample lists A1 = 3396 µm for a DDR3-era
        # array block; our derived 55 nm block lands in the same range.
        height = model.geometry.array_block.height
        assert 2.5e-3 < height < 4.5e-3


def _k6_text(device, lines=3000, seed=2010):
    """A seeded k6 trace: addresses over the whole decoder width, a
    60 % chance of walking on to the next cache line, a third of the
    accesses writes, and a REF every 400 lines."""
    rng = random.Random(seed)
    width = AddressDecoder.from_device(device).address_bits
    address = 0
    out = []
    for i in range(lines):
        if i % 400 == 399:
            op = "REF"
        else:
            op = "P_MEM_WR" if rng.random() < 0.33 else "P_MEM_RD"
        if rng.random() < 0.6:
            address = (address + 64) % (1 << width)
        else:
            address = rng.getrandbits(width) & ~63
        out.append(f"0x{address:x} {op} {i * 5}")
    return "\n".join(out) + "\n"


def _counts(result):
    return ({command.value: count
             for command, count in result.counts.items() if count},
            result.row_hits, result.row_misses, result.row_conflicts)


class TestTraceAnswers:
    """Pinned trace prices.  The parity suites hold every fast path to
    the scalar oracle, so a pricing change would move them together
    and pass; these literals would not.  Recorded on the model as
    calibrated; a deliberate recalibration updates them."""

    @pytest.mark.parametrize("backend", ["serial", "auto"])
    def test_k6_replay(self, model, tmp_path, backend):
        path = tmp_path / "golden.trc"
        path.write_text(_k6_text(model.device))
        accumulator, _ = replay_trace_file(model, path, backend=backend)
        result = accumulator.result()
        assert accumulator.commands_seen == 5500
        assert _counts(result) == (
            {"act": 1254, "pre": 1246, "rd": 2023, "wr": 970, "ref": 7},
            1739, 1254, 0)
        assert result.energy == pytest.approx(6.5278204979188034e-06,
                                              rel=1e-12)
        assert result.duration == pytest.approx(1.5045e-05, rel=1e-12)
        assert sum(result.breakdown.as_dict().values()) \
            == pytest.approx(result.energy, rel=1e-12)

    def test_strict_command_trace(self, model):
        result = evaluate_trace(
            model, random_trace(model.device, 2000, with_refresh=True,
                                seed=3), strict=True)
        assert _counts(result) == (
            {"act": 1042, "pre": 1042, "rd": 1341, "wr": 659},
            998, 1042, 0)
        assert result.energy == pytest.approx(6.543032059391516e-06,
                                              rel=1e-12)
        assert result.duration == pytest.approx(3.954749999999911e-05,
                                                rel=1e-12)
        assert sum(result.breakdown.as_dict().values()) \
            == pytest.approx(result.energy, rel=1e-12)
