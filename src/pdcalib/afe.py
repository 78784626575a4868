"""Analog front-end model: photocurrent -> sampled voltage via the TIA stage.

The trans-impedance amplifier is modeled as the first-order system
``V(t) = I_d * R_f * (1 - exp(-t / (R_f * C_f)))``. Stability is checked
through the noise gain (one zero, one pole) and the quality factor derived
from the loop phase margin; the default part values give Q ~ 0.47, i.e. an
overdamped, non-oscillating response.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SUPPLY_RAIL_V = 10.0


def element_indices(channels) -> bool:
    """Whether ``channels`` are strictly increasing element indices from 0 up, at least one."""
    return len(channels) > 0 and channels[0] >= 0 and all(a < b for a, b in zip(channels, channels[1:]))


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

    @classmethod
    def batch(cls, pd_ids, sampled_channels, noise_floors, bounds, sample_times, element_voltages) -> list:
        """The records of one event table, checked together.

        Record r has the pd_id ``pd_ids[r]``, the sampled channels
        ``sampled_channels[r]`` and the noise floor ``noise_floors[r]``, and
        its events are the views ``[bounds[r]:bounds[r + 1]]`` of the (n,)
        ``sample_times`` and the (n, m) ``element_voltages``. The rules of a
        record are checked once on the whole table (one ``event_faults``
        pass, one ``element_indices`` call per distinct channel tuple).

        Raises the ValueError that ``PdSignalRecord(...)`` raises for the
        first record that breaks a rule.
        """
        t = np.asarray(sample_times, dtype=float)
        v = np.asarray(element_voltages, dtype=float)
        if v.shape[0] != t.shape[0]:
            raise ValueError("one sample time per beam event required")
        bounds, floors = np.asarray(bounds), np.asarray(noise_floors, dtype=float)
        sizes = np.diff(bounds)
        n_channels = np.repeat([len(channels) for channels in sampled_channels], sizes)
        faults = event_faults(n_channels, t, np.repeat(floors, sizes), v).any(axis=1)
        increasing = {channels: element_indices(channels) for channels in set(sampled_channels)}
        bad = [r for r, channels in enumerate(sampled_channels) if not increasing[channels]][:1]
        bad += np.flatnonzero(~np.isfinite(floors))[:1].tolist()  # also of a record without events
        if faults.any():  # the record that holds the first bad event
            bad.append(int(np.searchsorted(bounds, np.argmax(faults), side="right")) - 1)
        bounds, floors = bounds.tolist(), floors.tolist()
        if bad:  # raises the record's own error
            r = min(bad)
            cls(pd_ids[r], v[bounds[r]:bounds[r + 1]], t[bounds[r]:bounds[r + 1]], sampled_channels[r], floors[r])
        records = []
        for r, pd_id in enumerate(pd_ids):
            record = cls.__new__(cls)  # checked above: skip __post_init__
            a, b = bounds[r], bounds[r + 1]
            record.pd_id, record.element_voltages, record.sample_times = pd_id, v[a:b], t[a:b]
            record.sampled_channels, record.noise_floor = sampled_channels[r], floors[r]
            records.append(record)
        return records

    @property
    def n_events(self) -> int:
        return int(self.element_voltages.shape[0])


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
    The simulator records a whole block at once (``peak_voltages`` and
    ``PdSignalRecord.batch``); this one-record case is kept only because
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
