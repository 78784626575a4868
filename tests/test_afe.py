import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pdcalib.afe import (
    EventTable,
    PdSignalRecord,
    TiaParams,
    currents_to_record,
    noise_gain,
    noise_gain_corners,
    peak_voltages,
    phase_margin,
    q_factor,
    q_from_phase_margin,
    tia_step_response,
)


class TestStepResponse:
    def test_steady_state_10v(self):
        p = TiaParams()
        # 100 uA * 100 kOhm: full-scale output
        assert tia_step_response(100e-6, 1.0, p) == pytest.approx(10.0, rel=1e-9)

    def test_zero_time(self):
        assert tia_step_response(100e-6, 0.0, TiaParams()) == 0.0

    def test_time_constant_point(self):
        p = TiaParams()
        v = tia_step_response(100e-6, p.tau, p)
        assert v == pytest.approx(10.0 * (1 - math.exp(-1)), rel=1e-3)
        assert v / 10.0 == pytest.approx(0.632, abs=1e-3)

    def test_monotone_in_t_linear_in_current(self):
        p = TiaParams()
        t = np.linspace(0, 5 * p.tau, 200)
        v = tia_step_response(50e-6, t, p)
        assert np.all(np.diff(v) > 0)
        np.testing.assert_allclose(tia_step_response(100e-6, t, p), 2 * v, rtol=1e-12)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            tia_step_response(1e-6, -1e-9, TiaParams())


class TestNoiseGain:
    def test_dc_limit(self):
        p = TiaParams()
        expected = (p.r_f + p.r_sh) / p.r_sh  # ~1.0000004
        assert noise_gain(1e-3, p) == pytest.approx(expected, rel=1e-9)
        assert expected == pytest.approx(1.0000004, rel=1e-7)

    def test_high_frequency_asymptote(self):
        p = TiaParams()
        expected = (p.c_f + p.c_in) / p.c_f
        assert expected == pytest.approx(3.96, abs=0.01)
        assert noise_gain(1e9, p) == pytest.approx(expected, rel=1e-3)

    def test_monotone_between_corners(self):
        p = TiaParams()
        f_zero, f_pole = noise_gain_corners(p)
        assert f_zero < f_pole
        freqs = np.geomspace(f_zero, f_pole, 64)
        gains = [noise_gain(f, p) for f in freqs]
        assert all(b >= a - 1e-12 for a, b in zip(gains, gains[1:]))

    def test_corner_values(self):
        # one zero, one pole: frozen against the closed-form corner expressions
        p = TiaParams()
        f_zero, f_pole = noise_gain_corners(p)
        assert f_zero == pytest.approx(5908.4, rel=1e-3)
        assert f_pole == pytest.approx(23405.1, rel=1e-3)


class TestQFactor:
    def test_default_parameters_overdamped(self):
        q = q_factor(TiaParams())
        assert q == pytest.approx(0.47, abs=0.05)
        assert q < 0.5

    def test_large_cf_heavily_overdamped(self):
        q = q_factor(TiaParams(c_f=6.8e-9))
        assert q < 0.2

    def test_45_degree_phase_margin(self):
        assert q_from_phase_margin(math.radians(45.0)) == pytest.approx(2.0 ** 0.25, rel=1e-12)
        assert 2.0 ** 0.25 == pytest.approx(1.189, abs=1e-3)

    def test_non_crossing_loop_rejected(self):
        # GBWP far below the noise-gain zero: no crossover to measure
        with pytest.raises(ValueError):
            phase_margin(TiaParams(gbwp=100.0))


class TestCurrentsToRecord:
    def test_zero_currents_zero_noise(self):
        rec = currents_to_record(np.zeros(16), TiaParams(), 2.3e-6, 0.0, seed=0)
        np.testing.assert_array_equal(rec.element_voltages, 0.0)

    def test_single_hot_element_saturates(self):
        currents = np.zeros(16)
        currents[5] = 100e-6
        # pulse 100x the time constant: effectively steady state
        rec = currents_to_record(currents, TiaParams(), 100 * TiaParams().tau, 0.0, seed=0)
        v = rec.element_voltages[0]
        assert v[list(rec.sampled_channels).index(5)] == pytest.approx(10.0, abs=1e-6)
        assert np.all(v[[0, 2, 3]] < 1e-9)

    def test_seed_determinism(self):
        currents = np.full(16, 20e-6)
        a = currents_to_record(currents, TiaParams(), 2.3e-6, 0.1, seed=42)
        b = currents_to_record(currents, TiaParams(), 2.3e-6, 0.1, seed=42)
        np.testing.assert_array_equal(a.element_voltages, b.element_voltages)
        c = currents_to_record(currents, TiaParams(), 2.3e-6, 0.1, seed=43)
        assert np.any(c.element_voltages != a.element_voltages)

    def test_clamped_to_rails(self):
        currents = np.full(16, 500e-6)  # would be 50 V unclamped
        rec = currents_to_record(currents, TiaParams(), 1.0, 0.0, seed=0)
        assert np.all(rec.element_voltages <= 10.0)

    def test_record_validation(self):
        with pytest.raises(ValueError):
            PdSignalRecord("p", np.array([[11.0]]), np.array([0.0]), (0,))
        with pytest.raises(ValueError):
            PdSignalRecord("p", np.array([[1.0], [2.0]]), np.array([0.0]), (0,))

    def test_voltage_columns_match_sampled_channels(self):
        with pytest.raises(ValueError, match="^PD 'p', event 0: 2 voltages for 3 sampled channels$"):
            PdSignalRecord("p", np.array([[1.0, 2.0]]), np.array([0.0]), (0, 5, 10))

    @pytest.mark.parametrize("channels", [(15, 10, 5, 0), (-1, 5, 10, 15), (0, 5, 5, 15), ()])
    def test_sampled_channels_must_be_increasing_element_indices(self, channels):
        # a record whose channels the frame file would refuse must not be
        # built in memory either, where the pipeline would take it silently
        with pytest.raises(ValueError, match="not strictly increasing element indices from 0 up"):
            PdSignalRecord("p", np.ones((1, len(channels))), np.array([0.0]), channels)

    def test_bad_pulse_width(self):
        with pytest.raises(ValueError):
            currents_to_record(np.zeros(16), TiaParams(), 0.0, 0.0, seed=0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_values_refused(self, value):
        def refused(where):
            return pytest.raises(ValueError, match=f"^{re.escape(f'{where} {value!r}')} is not a finite number$")

        with refused("PD 'p', event 0: element voltage 1"):
            PdSignalRecord("p", np.array([[1.0, value]]), np.array([0.0]), (0, 5))
        with refused("PD 'p', event 1: sample time"):
            PdSignalRecord("p", np.array([[1.0], [2.0]]), np.array([0.0, value]), (0,))
        with refused("PD 'p', event 0: noise floor"):
            PdSignalRecord("p", np.array([[1.0]]), np.array([0.0]), (0,), noise_floor=value)
        # a record without events has no event rows to check its floor on
        with refused("PD 'p': noise floor"):
            PdSignalRecord("p", np.zeros((0, 1)), np.zeros(0), (0,), noise_floor=value)
        with refused("scan 0: PD 'p': noise floor"):
            _checked_records(["p"], [(0,)], [value], np.zeros(0, dtype=np.intp), np.zeros(0), np.zeros((0, 1)))
        assert PdSignalRecord("p", np.zeros((0, 2)), np.zeros(0), (0, 5)).n_events == 0


def _checked_records(pd_ids, channels, floors, record, times, volts) -> list:
    """The records of a one-frame ``EventTable`` of scan 0, one per id of
    the ascending ``pd_ids``, whose event i belongs to record ``record[i]``,
    checked first. A record's width is that of ``volts``, or its channel
    count when it has no events; ``volts`` is padded with 0 to the widest."""
    record = np.asarray(record, dtype=np.intp)
    widths = np.array([volts.shape[1] if r in record else len(c) for r, c in enumerate(channels)], dtype=np.intp)
    if widths.max() > volts.shape[1]:
        volts = np.pad(volts, ((0, 0), (0, widths.max() - volts.shape[1])))
    table = EventTable(
        np.zeros(len(pd_ids), dtype=np.intp), np.arange(len(pd_ids)), tuple(pd_ids), list(channels),
        np.asarray(floors, dtype=float), widths, record, times, volts,
    )
    table.check([0])
    return table.records()


def _mostly(good, bad):
    """A value of ``good`` four times in five, else one of ``bad``."""
    return st.integers(0, 4 * len(good) + len(bad) - 1).map(lambda k: [*good * 4, *bad][k])


@st.composite
def _event_table(draw):
    """The arguments of ``_checked_records`` for 1 to 4 records of 0 to 3
    events each, whose values may break a record rule; only such a table,
    built by hand, holds a record with no events."""
    m = draw(st.integers(1, 3))
    sizes = draw(st.lists(st.integers(0, 3), min_size=1, max_size=4))
    n = sum(sizes)
    right = tuple(range(0, 5 * m, 5))
    return (
        [f"p{r}" for r in range(len(sizes))],
        [draw(_mostly([right], [right + (99,), right[::-1], ()])) for _ in sizes],
        [draw(_mostly([0.1], [math.nan])) for _ in sizes],
        np.repeat(np.arange(len(sizes)), sizes),
        np.array([draw(_mostly([0.0, 1e-3], [math.inf])) for _ in range(n)]),
        np.array([draw(_mostly([0.0, 1.0, 10.0], [-0.5, 10.5, math.nan])) for _ in range(n * m)]).reshape(n, m),
    )


def _records_or_error(build):
    try:
        records = build()
    except ValueError as exc:
        return str(exc)
    return [
        (r.pd_id, r.element_voltages.shape, r.element_voltages.tobytes(), r.sample_times.tobytes(),
         r.sampled_channels, repr(r.noise_floor))
        for r in records
    ]


@st.composite
def _event_parts(draw):
    """``EventTable.of_events`` parts of 1 to 3 widths over 1 to 6 (frame,
    key) records, keys under 3, of 1 to 4 events each, in shuffled order and
    with tied times; a width's events may come in two parts. Each part's
    voltages are its own, and each event's floor names its (frame, key)."""
    cells = draw(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)), min_size=1, max_size=6, unique=True))
    widths = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3, unique=True))
    events = [  # (frame, key, time, width) per event
        (k, key, draw(st.sampled_from([0.0, 1.0, 2.0])), w)
        for k, key in cells
        for w in [draw(st.sampled_from(widths))]
        for _ in range(draw(st.integers(1, 4)))
    ]
    events = draw(st.permutations(events))
    parts = []
    for w in widths:
        mine = [e for e in events if e[3] == w]
        cut = draw(st.integers(0, len(mine)))
        for chunk in (mine[:cut], mine[cut:]):
            volts = np.arange(len(parts) * 100.0, len(parts) * 100.0 + len(chunk) * w).reshape(len(chunk), w)
            parts.append(([e[0] for e in chunk], [e[1] for e in chunk], [e[2] for e in chunk], volts,
                          [tuple(range(w))] * len(chunk), [10.0 * e[0] + e[1] for e in chunk]))
    return parts


class TestRecordBatch:
    @settings(max_examples=150, deadline=None)
    @given(table=_event_table())
    def test_batch_is_its_records_built_one_by_one(self, table):
        """The same records, or the error of the first record that breaks a
        rule, naming its scan; a record with no events has as many voltage
        columns as sampled channels."""
        pd_ids, channels, floors, record, times, volts = table

        def one_by_one():
            out = []
            for r, pd_id in enumerate(pd_ids):
                mine = record == r
                v = volts[mine] if mine.any() else np.zeros((0, len(channels[r])))
                try:
                    out.append(PdSignalRecord(pd_id, v, times[mine], channels[r], floors[r]))
                except ValueError as exc:
                    raise ValueError(f"scan 0: {exc}") from None
            return out

        assert _records_or_error(lambda: _checked_records(*table)) == _records_or_error(one_by_one)

    def test_records_are_views_of_the_table(self):
        volts, times = np.arange(6.0).reshape(3, 2), np.zeros(3)
        a, b = _checked_records(["a", "b"], [(0, 5), (0, 5)], [0.1, 0.1], [0, 1, 1], times, volts)
        assert np.shares_memory(a.element_voltages, volts) and np.shares_memory(b.sample_times, times)
        assert b.element_voltages.tolist() == [[2.0, 3.0], [4.0, 5.0]]

    def test_one_time_per_event_required(self):
        with pytest.raises(ValueError, match="^one sample time per beam event required$"):
            _checked_records(["a"], [(0,)], [0.1], [0, 0], np.zeros(1), np.ones((2, 1)))

    def test_of_events_rule(self):
        """Records by frame and then pd_id, whatever the keys' order; a
        record's events by time, ties in the order given, its channels and
        floor from its first event as given; one row per event, in record
        order, its voltages padded with 0 to the widest record's."""
        narrow = ([1, 0], [0, 1], [2.0, 0.0], [[1.0], [2.0]], [(0,), (0,)], [0.1, 0.2])
        wide = ([0, 0, 1], [0, 0, 1], [5.0, 5.0, 0.0], [[4.0, 4.5], [5.0, 5.5], [6.0, 6.5]], [(0, 5), (0, 6), (0, 5)],
                [0.4, 0.5, 0.6])
        late = ([1], [0], [1.0], [[3.0]], [(0,)], [0.3])  # the second event of record (1, 0), the first by time
        table = EventTable.of_events([narrow, wide, late], ["y", "x"])
        assert table.frames.tolist() == [0, 0, 1, 1]
        assert (table.pd.tolist(), table.pd_ids) == ([0, 1, 0, 1], ("x", "y"))
        assert table.channels == [(0,), (0, 5), (0, 5), (0,)]
        assert table.floors.tolist() == [0.2, 0.4, 0.6, 0.1]
        assert table.widths.tolist() == [1, 2, 2, 1]
        assert table.record.tolist() == [0, 1, 1, 2, 3, 3]
        assert table.times.tolist() == [0.0, 5.0, 5.0, 0.0, 1.0, 2.0]
        assert table.volts.tolist() == [[2.0, 0.0], [4.0, 4.5], [5.0, 5.5], [6.0, 6.5], [3.0, 0.0], [1.0, 0.0]]
        empty = EventTable.of_events([], [])
        assert (len(empty.frames), len(empty.pd), empty.pd_ids, len(empty.widths)) == (0, 0, (), 0)
        assert (len(empty.record), len(empty.times), empty.volts.shape) == (0, 0, (0, 0))

    @settings(max_examples=100, deadline=None)
    @given(parts=_event_parts())
    @example(parts=[  # a part with no events, wider than every record
        ([0], [1], [0.0], [[1.0]], [(0,)], [0.5]), ([], [], [], np.zeros((0, 3)), [], []),
    ])
    @example(parts=[  # records of one width: nothing is padded
        ([1, 0, 1], [0, 2, 0], [1.0, 0.0, 1.0], [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]], [(0, 5)] * 3, [0.5, 0.5, 0.5]),
    ])
    def test_of_events_gives_each_event_its_record(self, parts):
        """Over parts of 1 to 3 widths: the records are the (frame, key)s
        given, by frame, pd_id and key, each with the channels and floor of
        its first event as given; ``record`` ascends; ``volts`` is as wide
        as the widest record, 0 past each event's record's width; and each
        record's ``views()`` are its own events by time, ties in the order
        given, bit for bit."""
        ids = ["c", "a", "c"]
        given = {}  # (frame, key) -> its events as given: (time, volts, channels, floor)
        for frames, keys, times, volts, channels, floors in parts:
            for event in zip(frames, keys, times, np.asarray(volts, dtype=float), channels, floors):
                given.setdefault(event[:2], []).append(event[2:])
        cells = sorted(given, key=lambda cell: (cell[0], ids[cell[1]], cell[1]))
        table = EventTable.of_events(parts, ids)
        assert table.pd_ids == tuple(sorted({ids[key] for _, key in cells}))
        assert [table.pd_ids[p] for p in table.pd.tolist()] == [ids[key] for _, key in cells]
        assert table.frames.tolist() == [k for k, _ in cells]
        assert table.channels == [given[cell][0][2] for cell in cells]
        assert table.floors.tolist() == [given[cell][0][3] for cell in cells]
        assert table.widths.tolist() == [len(given[cell][0][1]) for cell in cells]
        assert np.all(np.diff(table.record) >= 0)
        assert table.volts.shape == (len(table.record), max(table.widths.tolist()))
        assert not table.volts[np.arange(table.volts.shape[1]) >= table.widths[table.record, None]].any()
        for cell, (times, volts) in zip(cells, table.views()):
            mine = sorted(given[cell], key=lambda event: event[0])
            assert times.tobytes() == np.array([event[0] for event in mine]).tobytes()
            assert volts.tobytes() == np.array([event[1] for event in mine]).tobytes()


class TestPeakVoltages:
    def test_one_call_for_many_records_gives_each_records_bits(self):
        # the simulator's block pass: one noise draw and one call over the
        # cells of several records, in order, as one draw and call per record
        rng = np.random.default_rng(3)
        blocks = [rng.uniform(0.0, 500e-6, (n, 16)) for n in (1, 3, 2)]
        blocks[0][:] = 0.0  # noise alone: some voltages clamp at 0 V
        sampled = (0, 5, 10, 15)
        one_by_one = np.random.default_rng(9)
        single = [
            currents_to_record(c, TiaParams(), 2.3e-6, 0.1, one_by_one, sampled_channels=sampled) for c in blocks
        ]
        cells = np.concatenate([c[:, sampled].ravel() for c in blocks])
        noise = np.random.default_rng(9).normal(0.0, 0.1, size=cells.size)
        volts = peak_voltages(cells, TiaParams(), 2.3e-6, noise)
        assert volts.tobytes() == b"".join(r.element_voltages.tobytes() for r in single)
        assert volts.max() == 10.0 and volts.min() == 0.0  # both rails clamp

    def test_bad_pulse_width(self):
        with pytest.raises(ValueError, match="pulse_width"):
            peak_voltages(np.zeros(4), TiaParams(), -1e-6)
