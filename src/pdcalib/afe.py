"""Analog front-end model: photocurrent -> sampled voltage via the TIA stage.

The trans-impedance amplifier is modeled as the first-order system
``V(t) = I_d * R_f * (1 - exp(-t / (R_f * C_f)))``. Stability is checked
through the noise gain (one zero, one pole) and the quality factor derived
from the loop phase margin; the default part values give Q ~ 0.47, i.e. an
overdamped, non-oscillating response. A batch's PD records and their
events are one ``EventTable``, a row per event whatever its record's sample
width, built by ``EventTable.of_events``; its ``PdSignalRecord``s are views
built on demand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SUPPLY_RAIL_V = 10.0


def pd_id_fault(pd_id) -> str:
    """Why ``pd_id`` cannot be a field of the frame file and the dumps (split at commas and line breaks), or ""."""
    split = "," in pd_id or "".join(pd_id.splitlines()) != pd_id
    return f"PD id {pd_id!r} holds a comma or a line break" if split else ""


def fits_int64(value) -> bool:
    """Whether ``value`` is an integer, not a bool, that an int64 field of the frame file holds."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool) and -2 ** 63 <= value < 2 ** 63


def element_indices(channels) -> bool:
    """Whether ``channels`` are strictly increasing ``fits_int64`` element indices from 0 up, at least one."""
    return len(channels) > 0 and all(fits_int64(b) and a < b for a, b in zip((-1, *channels), channels))


def event_faults(n_channels, times, floors, volts) -> np.ndarray:
    """The PD event rules: (n, 3 + m) bool for the (n, m) ``volts``, true where
    an event's voltage count is not its ``n_channels``, its time or noise
    floor is not finite, or a voltage lies off the 0-10 V supply rails, in
    those columns; ``n_channels`` and ``floors`` are per event or shared."""
    n, m = volts.shape
    faults = np.empty((n, 3 + m), dtype=bool)
    faults[:, 0] = np.not_equal(n_channels, m)
    faults[:, 1] = ~np.isfinite(times)
    faults[:, 2] = ~np.isfinite(floors)
    faults[:, 3:] = ~((volts >= 0.0) & (volts <= SUPPLY_RAIL_V))
    return faults


@dataclass(frozen=True)
class TiaParams:
    """TIA circuit and op-amp/photodiode part values.

    Defaults follow the reference design: R_f = 100 kOhm sized for 100 uA
    max photocurrent into a 0-10 V output range, C_f = 68 pF chosen for an
    overdamped loop.
    """

    r_f: float = 1e5          # feedback resistor, Ohm
    c_f: float = 68e-12       # feedback capacitor, F
    r_sh: float = 250e9       # photodiode shunt resistance, Ohm
    c_pd: float = 200e-12     # photodiode junction capacitance, F
    c_i_amp: float = 1.4e-12  # op-amp input capacitance, F
    gbwp: float = 1e6         # op-amp gain-bandwidth product, Hz

    def __post_init__(self):
        for name in ("r_f", "c_f", "r_sh", "c_pd", "c_i_amp", "gbwp"):
            if getattr(self, name) <= 0:
                raise ValueError(f"TiaParams.{name} must be positive")

    @property
    def c_in(self) -> float:
        """Total capacitance at the amplifier input."""
        return self.c_pd + self.c_i_amp

    @property
    def tau(self) -> float:
        """Feedback time constant R_f * C_f."""
        return self.r_f * self.c_f


@dataclass
class PdSignalRecord:
    """Per-diode peak voltages of one photodetector in the scan of its ``ScanFrame``.

    ``element_voltages`` has one row per beam event (a laser pulse group on
    the detector) and one column per sampled element; ``sample_times`` gives
    the event firing times, and ``sampled_channels`` the sampled elements'
    indices, strictly increasing from 0 up. Voltages are clamped to the 0-10 V
    supply rails.
    """

    pd_id: str
    element_voltages: np.ndarray   # (n_events, n_sampled), V
    sample_times: np.ndarray       # (n_events,), s
    sampled_channels: tuple        # element indices the DAQ captured
    noise_floor: float = 0.1       # V

    def __post_init__(self):
        v = self.element_voltages = np.atleast_2d(np.asarray(self.element_voltages, dtype=float))
        t = self.sample_times = np.atleast_1d(np.asarray(self.sample_times, dtype=float))
        if not element_indices(self.sampled_channels):
            raise ValueError(
                f"sampled channels {tuple(self.sampled_channels)} are not strictly increasing element indices from 0 up"
            )
        if v.shape[0] != t.shape[0]:
            raise ValueError("one sample time per beam event required")
        faults = event_faults(len(self.sampled_channels), t, self.noise_floor, v)
        if faults.any():
            event, column = divmod(int(np.argmax(faults)), faults.shape[1])
            where = f"PD {self.pd_id!r}, event {event}"
            if column == 0:
                raise ValueError(f"{where}: {v.shape[1]} voltages for {len(self.sampled_channels)} sampled channels")
            value = float((t[event], self.noise_floor, *v[event])[column - 1])
            name = ("sample time", "noise floor", *(f"element voltage {j}" for j in range(v.shape[1])))[column - 1]
            why = "lies outside the 0-10 V supply range" if math.isfinite(value) else "is not a finite number"
            raise ValueError(f"{where}: {name} {value!r} {why}")
        if not math.isfinite(self.noise_floor):  # a record without events, which event_faults never sees
            raise ValueError(f"PD {self.pd_id!r}: noise floor {float(self.noise_floor)!r} is not a finite number")

    @property
    def n_events(self) -> int:
        return int(self.element_voltages.shape[0])


@dataclass(eq=False)
class EventTable:
    """The PD records of a batch of scans as one table, by frame and then
    by pd_id: record r is PD ``pd_ids[pd[r]]``'s in the batch's frame
    ``frames[r]``, with the sampled channels ``channels[r]``, the noise
    floor ``floors[r]`` and ``widths[r]`` voltages per event; ``pd_ids``
    ascends, one per PD with a record. Event i, of the firing ``times`` and
    the peak ``volts``, belongs to record ``record[i]``, which ascends;
    ``volts`` has a column per voltage of the widest record, 0 past an
    event's own. ``check`` holds the record rules; nothing else checks them."""

    frames: np.ndarray   # (n_records,) intp
    pd: np.ndarray       # (n_records,) intp, index into pd_ids
    pd_ids: tuple        # ascending distinct str
    channels: list       # (n_records,) tuple of element indices
    floors: np.ndarray   # (n_records,) V
    widths: np.ndarray   # (n_records,) intp, voltages per event
    record: np.ndarray   # (n_events,) intp
    times: np.ndarray    # (n_events,) s
    volts: np.ndarray    # (n_events, max(widths)) V

    @classmethod
    def of_events(cls, parts, pd_ids) -> EventTable:
        """The table of the events ``parts``: the one rule by which the
        simulator, the reader and ``FrameBatch.of_frames`` build one.

        A part is one sample width's event columns (frames, keys, times,
        volts, channels, floors): per event its frame, its record key (an
        index into ``pd_ids``), its time, its row of the (n, m) ``volts``, its
        sampled channels and its noise floor. A record is the events of one
        (frame, key), all of one width; records come by frame, then by
        pd_id, then by key. A record's events come by time, events at one
        time in the order given, and it takes its channels and floor from its
        first event as given; every record has at least one event."""
        frame, key, time, floor = (
            np.concatenate([np.zeros(0, dtype), *(np.asarray(part[i], dtype) for part in parts)])
            for i, dtype in ((0, np.intp), (1, np.intp), (2, float), (5, float))
        )
        width = np.concatenate([np.zeros(0, np.intp), *(np.full(len(part[2]), np.shape(part[3])[1]) for part in parts)])
        flat = np.concatenate([np.zeros(0), *(np.ravel(part[3]) for part in parts)])  # the voltages, event by event
        volts = np.zeros((len(width), width.max(initial=0)))
        volts[np.arange(volts.shape[1]) < width[:, None]] = flat  # each event's row, padded with 0 to the widest
        # the keys used, and their pd_ids sorted as Python strs (a numpy str array drops trailing NULs)
        keys, key_at = np.unique(key, return_inverse=True)
        ids, code = np.unique(np.array([pd_ids[k] for k in keys.tolist()], dtype=object), return_inverse=True)
        record = (frame * len(ids) + code[key_at]) * len(keys) + key_at  # in (frame, pd_id, key) order
        order = np.lexsort((time, record))
        _, starts, rank = np.unique(record[order], return_index=True, return_inverse=True)
        first = np.minimum.reduceat(order, starts)  # each record's first event as given
        channels = [c for part in parts for c in part[4]]
        return cls(frame[first], code[key_at[first]], tuple(ids.tolist()), [channels[i] for i in first.tolist()],
                   floor[first], width[first], rank, time[order], volts[order])

    def check(self, scan_ids):
        """Check the record rules once on the whole table: one
        ``event_faults`` pass over the events, which reads each event's
        floor from its record, one ``element_indices`` call per distinct
        channel tuple and one ``pd_id_fault`` call per pd_id;
        ``scan_ids[k]`` is the scan id of frame k. Records must come by
        (frame, pd), as ``FrameBatch`` requires: a tie is a second record.

        Raises "one sample time per beam event required" for a table with
        more or fewer times or records than voltage rows. Else raises the
        ValueError that ``PdSignalRecord(...)`` raises for the first record
        that breaks a rule, prefixed "scan S: ". Else raises ValueError
        naming the scan and the PD of the first record whose pd_id has a
        ``pd_id_fault`` or that is a second record of its PD in its frame.
        """
        record, (n, m) = self.record, self.volts.shape
        if not len(record) == len(self.times) == n:
            raise ValueError("one sample time per beam event required")
        increasing = {channels: element_indices(channels) for channels in set(self.channels)}
        bad = ~np.array([increasing[channels] for channels in self.channels], dtype=bool) | ~np.isfinite(self.floors)
        n_channels = np.array([len(channels) for channels in self.channels], dtype=np.intp)
        faults = event_faults(m, self.times, self.floors[record], self.volts)
        faults[:, 3:] &= np.arange(m) < self.widths[record, None]  # the voltages past its width are not its own
        bad[record[faults.any(axis=1) | (np.minimum(self.widths, m) != n_channels)[record]]] = True
        if bad.any():  # raises the record's own error, for its events alone
            r = int(np.argmax(bad))
            times, volts = self.views()[r]
            try:
                PdSignalRecord(self.pd_ids[self.pd[r]], volts, times, self.channels[r], float(self.floors[r]))
            except ValueError as exc:
                raise ValueError(f"scan {scan_ids[int(self.frames[r])]}: {exc}") from None
        faults = [pd_id_fault(pd_id) for pd_id in self.pd_ids]
        refused = np.array([bool(fault) for fault in faults], dtype=bool)[self.pd]
        refused[1:] |= (self.frames[1:] == self.frames[:-1]) & (self.pd[1:] == self.pd[:-1])  # a repeated cell
        if refused.any():
            r = int(np.argmax(refused))
            why = faults[self.pd[r]] or f"PD {self.pd_ids[self.pd[r]]!r} has more than one record"
            raise ValueError(f"scan {scan_ids[int(self.frames[r])]}: {why}")

    def views(self) -> list:
        """Every record's (times, volts), views of its run of the table's,
        in record order. Only a table built by hand can hold a record with
        no events: it reads back as no times and (0, width) voltages."""
        at = np.searchsorted(self.record, np.arange(len(self.frames) + 1)).tolist()
        return [(self.times[lo:hi], self.volts[lo:hi, :w]) for lo, hi, w in zip(at, at[1:], self.widths.tolist())]

    def records(self) -> list:
        """Every record as a ``PdSignalRecord`` of views of the table, in
        record order; the table is taken as checked."""
        out = []
        for p, channels, floor, (times, volts) in zip(self.pd.tolist(), self.channels, self.floors.tolist(),
                                                      self.views()):
            record = PdSignalRecord.__new__(PdSignalRecord)  # checked: skip __post_init__
            record.pd_id, record.element_voltages, record.sample_times = self.pd_ids[p], volts, times
            record.sampled_channels, record.noise_floor = channels, floor
            out.append(record)
        return out


def tia_step_response(i_d: float, t, p: TiaParams):
    """Output voltage of the TIA at time ``t`` into a current step ``i_d``.

    Scalar or array ``t`` (seconds, >= 0); steady state is ``i_d * r_f``.
    """
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("tia_step_response requires t >= 0")
    v = i_d * p.r_f * (1.0 - np.exp(-t / p.tau))
    return float(v) if v.ndim == 0 else v


def noise_gain(f: float, p: TiaParams) -> float:
    """Magnitude of the noise gain (the 1/beta curve) at frequency ``f`` Hz.

    One zero at 1/(2 pi (R_f || R_sh)(C_f + C_in)) and one pole at
    1/(2 pi R_f C_f); DC value (R_f + R_sh)/R_sh, high-frequency value
    (C_f + C_in)/C_f.
    """
    if f <= 0:
        raise ValueError("noise_gain requires f > 0")
    s = 2j * math.pi * f
    r_par = p.r_f * p.r_sh / (p.r_f + p.r_sh)
    g = ((p.r_f + p.r_sh) / p.r_sh) * (r_par * (p.c_f + p.c_in) * s + 1.0) / (p.tau * s + 1.0)
    return abs(g)


def noise_gain_corners(p: TiaParams) -> tuple[float, float]:
    """(zero, pole) corner frequencies of the noise gain, Hz."""
    r_par = p.r_f * p.r_sh / (p.r_f + p.r_sh)
    f_zero = 1.0 / (2.0 * math.pi * r_par * (p.c_f + p.c_in))
    f_pole = 1.0 / (2.0 * math.pi * p.tau)
    return f_zero, f_pole


def q_from_phase_margin(phi: float) -> float:
    """Quality factor from a loop phase margin ``phi`` in radians.

    Q = ((1/tan^2(phi) + 0.5)^2 - 0.25)^(1/4); phi = 45 deg gives 2^(1/4).
    """
    if not 0.0 < phi < math.pi / 2 + 1e-12:
        raise ValueError("phase margin must lie in (0, 90] degrees")
    t = math.tan(phi)
    inner = (1.0 / (t * t) + 0.5) ** 2 - 0.25
    return inner ** 0.25


def phase_margin(p: TiaParams) -> float:
    """Loop phase margin (radians) of the TIA feedback loop.

    Uses the conventional graphical construction: the open-loop single-pole
    roll-off |A(f)| = GBWP/f crosses the rising asymptote of the noise gain
    at f_x = sqrt(GBWP * f_zero); the margin is 90 deg minus the noise-gain
    phase at f_x (zero and pole both contribute).
    """
    f_zero, f_pole = noise_gain_corners(p)
    if p.gbwp <= f_zero:
        raise ValueError(
            f"loop gain never crosses the noise gain (GBWP {p.gbwp:g} Hz <= "
            f"noise-gain zero {f_zero:g} Hz)"
        )
    f_x = math.sqrt(p.gbwp * f_zero)
    pm = math.pi / 2 - math.atan(f_x / f_zero) + math.atan(f_x / f_pole)
    if pm <= 0:
        raise ValueError("non-positive phase margin; loop analysis invalid")
    return pm


def q_factor(p: TiaParams) -> float:
    """Quality factor of the TIA loop; < 0.5 means overdamped (no ringing)."""
    return q_from_phase_margin(phase_margin(p))


def peak_voltages(currents, p: TiaParams, pulse_width: float, noise=None) -> np.ndarray:
    """Sampled element peak voltages for photocurrents ``currents`` (A).

    Each voltage is the step response at ``pulse_width`` plus ``noise`` (V,
    an array of the same shape, if given), clamped to the supply rails. The
    model is elementwise, so one call may cover the events of any number of
    records.
    """
    if pulse_width <= 0:
        raise ValueError("pulse_width must be positive")
    peaks = tia_step_response(1.0, pulse_width, p) * currents
    if noise is not None:
        peaks = peaks + noise
    return np.clip(peaks, 0.0, SUPPLY_RAIL_V)


def currents_to_record(
    currents: np.ndarray,
    p: TiaParams,
    pulse_width: float,
    noise_sigma: float,
    seed,
    pd_id: str = "pd",
    sampled_channels=(0, 5, 10, 15),
    event_times=None,
    noise_floor: float = 0.1,
) -> PdSignalRecord:
    """Convert per-element photocurrents to a sampled peak-voltage record.

    ``currents`` is (n_events, n_elements) or (n_elements,) in amperes. Only
    the elements in ``sampled_channels`` are recorded, each as
    ``peak_voltages`` with N(0, noise_sigma) noise drawn in row-major order.
    ``seed`` may be an int or a Generator; the record's scan is its frame's.
    The simulator records a whole block at once (``peak_voltages`` and one
    ``EventTable``); this one-record case is kept only because
    perfbench's ``install_layers`` wraps it by name (as
    ``scene.currents_to_record``).
    """
    currents = np.atleast_2d(np.asarray(currents, dtype=float))
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    sampled = tuple(sampled_channels)
    currents = currents[:, sampled]
    noise = rng.normal(0.0, noise_sigma, size=currents.shape) if noise_sigma > 0 else None
    peaks = peak_voltages(currents, p, pulse_width, noise)
    if event_times is None:
        event_times = np.zeros(peaks.shape[0])
    return PdSignalRecord(
        pd_id=pd_id,
        element_voltages=peaks,
        sample_times=np.asarray(event_times, dtype=float),
        sampled_channels=sampled,
        noise_floor=noise_floor,
    )
