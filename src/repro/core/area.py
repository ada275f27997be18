"""Area model for wrappers and relay stations.

Section 1 of the paper reports synthesis experiments on a 130 nm library
showing that the wrapper overhead is always below 1 % of a 100 kgate IP and
that the wrapper logic is never timing critical.  The authors' RTL and
library are not available, so this module substitutes an analytical
gate-equivalent model:

* a flip-flop costs ~6 gate equivalents (NAND2-equivalent), a 2-to-1 mux ~3,
  and a small amount of control logic is charged per wrapper and per station;
* a relay station on a *w*-bit channel needs two *w*-bit registers, a *w*-bit
  output mux and a handful of control gates;
* a wrapper input queue of depth *d* on a *w*-bit channel needs ``d·w``
  storage bits plus pointer/counter logic; the WP2 wrapper adds a lag counter
  per channel and the oracle decode logic.

The absolute numbers are estimates; the claim being reproduced is the *ratio*
(wrapper area ≪ IP area), which is insensitive to the exact per-gate figures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Optional

from .netlist import Netlist
from .shell import DEFAULT_QUEUE_CAPACITY


#: Gate equivalents (NAND2) for the primitive elements of the model.
FLOP_GE = 6.0
MUX2_GE = 3.0
COUNTER_BIT_GE = 8.0
CONTROL_FSM_GE = 40.0
ORACLE_DECODE_GE = 25.0


@dataclass(frozen=True)
class AreaEstimate:
    """Gate-equivalent breakdown for one wrapped block or one channel."""

    storage_ge: float
    control_ge: float

    @property
    def total_ge(self) -> float:
        return self.storage_ge + self.control_ge

    def __add__(self, other: "AreaEstimate") -> "AreaEstimate":
        return AreaEstimate(
            storage_ge=self.storage_ge + other.storage_ge,
            control_ge=self.control_ge + other.control_ge,
        )


def relay_station_area(width_bits: int) -> AreaEstimate:
    """Area of one relay station on a channel of *width_bits*.

    Main register + auxiliary register + output mux + valid/stop FSM.
    """
    storage = 2 * width_bits * FLOP_GE
    control = width_bits * MUX2_GE + CONTROL_FSM_GE
    return AreaEstimate(storage_ge=storage, control_ge=control)


def wrapper_area(
    input_widths: Iterable[int],
    queue_depth: int = DEFAULT_QUEUE_CAPACITY,
    relaxed: bool = False,
) -> AreaEstimate:
    """Area of a wrapper given the widths of its input channels.

    The WP2 (relaxed) wrapper adds a small lag counter per input channel and
    the oracle decode logic; the paper's point is that this extra logic is
    negligible, which the model reflects.
    """
    storage = 0.0
    control = CONTROL_FSM_GE
    for width in input_widths:
        storage += queue_depth * width * FLOP_GE
        control += width * MUX2_GE            # head-of-queue mux
        control += 4 * COUNTER_BIT_GE         # occupancy counter (4 bits)
        if relaxed:
            control += 4 * COUNTER_BIT_GE     # lag counter per channel
    if relaxed:
        control += ORACLE_DECODE_GE
    return AreaEstimate(storage_ge=storage, control_ge=control)


@dataclass
class OverheadReport:
    """System-level area overhead of the latency-insensitive machinery."""

    wrapper_ge: Dict[str, float]
    relay_station_ge: Dict[str, float]
    ip_ge: Dict[str, float]

    @property
    def total_wrapper_ge(self) -> float:
        return sum(self.wrapper_ge.values())

    @property
    def total_relay_station_ge(self) -> float:
        return sum(self.relay_station_ge.values())

    @property
    def total_ip_ge(self) -> float:
        return sum(self.ip_ge.values())

    @property
    def wrapper_overhead_fraction(self) -> float:
        """Wrapper area divided by IP area (the paper's < 1 % figure)."""
        if self.total_ip_ge == 0:
            return 0.0
        return self.total_wrapper_ge / self.total_ip_ge

    @property
    def total_overhead_fraction(self) -> float:
        """(Wrappers + relay stations) divided by IP area."""
        if self.total_ip_ge == 0:
            return 0.0
        return (self.total_wrapper_ge + self.total_relay_station_ge) / self.total_ip_ge

    def describe(self) -> str:
        lines = ["area overhead report (gate equivalents)"]
        lines.append(f"  IP total:            {self.total_ip_ge:12.0f}")
        lines.append(
            f"  wrappers:            {self.total_wrapper_ge:12.0f}"
            f"  ({100.0 * self.wrapper_overhead_fraction:.3f} % of IP)"
        )
        lines.append(
            f"  relay stations:      {self.total_relay_station_ge:12.0f}"
        )
        lines.append(
            f"  total overhead:      {100.0 * self.total_overhead_fraction:.3f} % of IP"
        )
        return "\n".join(lines)


def estimate_overhead(
    netlist: Netlist,
    rs_counts: Mapping[str, int],
    ip_gate_counts: Mapping[str, float],
    queue_depth: int = DEFAULT_QUEUE_CAPACITY,
    relaxed: bool = False,
    default_ip_ge: float = 100_000.0,
) -> OverheadReport:
    """Estimate the area overhead of wrapping *netlist* and pipelining its wires.

    Parameters
    ----------
    netlist:
        The block-level netlist (channel widths come from its channels).
    rs_counts:
        Relay stations per channel (e.g. from an
        :class:`~repro.core.config.RSConfiguration` expansion).
    ip_gate_counts:
        Gate count of each IP block; blocks not listed get *default_ip_ge*
        (the paper's reference IP size is 100 kgates).
    relaxed:
        Estimate the WP2 wrapper (slightly larger) instead of WP1.
    """
    wrapper_ge: Dict[str, float] = {}
    for name in netlist.processes:
        widths = [chan.width for chan in netlist.input_channels(name).values()]
        wrapper_ge[name] = wrapper_area(widths, queue_depth=queue_depth, relaxed=relaxed).total_ge

    relay_ge: Dict[str, float] = {}
    for chan_name, chan in netlist.channels.items():
        count = int(rs_counts.get(chan_name, 0))
        relay_ge[chan_name] = count * relay_station_area(chan.width).total_ge

    ip_ge = {
        name: float(ip_gate_counts.get(name, default_ip_ge)) for name in netlist.processes
    }
    return OverheadReport(wrapper_ge=wrapper_ge, relay_station_ge=relay_ge, ip_ge=ip_ge)
