"""Synchronous processes ("pearls") and the oracle interface.

A :class:`Process` models one IP block of the SoC.  In the reference (golden)
system every process fires exactly once per clock cycle: it consumes one value
from each input port (the value produced by the driver during the previous
cycle) and produces one value on each output port.  All process outputs are
registered, so a value produced at cycle *t* is consumed at cycle *t + 1* —
this is the standard synchronous block-level netlist that latency-insensitive
design takes as its specification.

When the process is enclosed in a wrapper (shell) and the wires are pipelined
with relay stations, firings no longer happen every cycle, but firing number
``k`` still consumes the ``k``-th valid token of every input channel and
produces the ``k``-th valid token on every output channel.  Equivalence with
the golden system follows.

The WP2 wrapper additionally consults the process' *oracle*
(:meth:`Process.required_ports`) before each firing: the oracle returns the
set of input ports whose current-tag token is actually needed for the next
computation.  Ports not in the set may be fed a stale or missing token — the
process must not let them influence its next state or outputs.  Returning
``None`` means "all ports are needed" and makes the WP2 wrapper behave exactly
like the strict WP1 wrapper for that firing.
"""

from __future__ import annotations

import math as _math
from abc import ABC, abstractmethod
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from .exceptions import NetlistError


class _ScheduleInert:
    """Singleton marking a process whose control behaviour never changes."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "SCHEDULE_INERT"


#: Returned by :meth:`Process.schedule_state` to promise that the process'
#: ``is_done()`` and ``required_ports()`` answers are constant for the whole
#: run, so steady-state detection never needs to sample it.
SCHEDULE_INERT = _ScheduleInert()


def overrides_hook(process: "Process", method: str) -> bool:
    """Whether *process* overrides a base-class hook (class or instance level).

    The base implementations of ``is_done``/``required_ports`` are constant
    (``False`` / ``None``), so engines fold non-overridden hooks away and the
    steady-state detector treats such processes as schedule-inert.
    """
    if method in process.__dict__:
        return True
    return getattr(type(process), method) is not getattr(Process, method)


class Process(ABC):
    """A synchronous block with named input and output ports.

    Subclasses must define :attr:`input_ports`, :attr:`output_ports`,
    :meth:`reset` and :meth:`fire`.  They may override
    :meth:`required_ports` to expose a WP2 oracle and :meth:`is_done` to let
    simulations terminate on a block-level condition (e.g. the control unit
    reaching its HALT state).
    """

    #: Names of the input ports, in a stable order.
    input_ports: Tuple[str, ...] = ()
    #: Names of the output ports, in a stable order.
    output_ports: Tuple[str, ...] = ()
    #: Optional name of a boolean instance attribute that is always equal to
    #: ``is_done()``.  Declaring it lets specializing engines (the compiled
    #: kernel) read the attribute instead of paying a method call on every
    #: cycle; ``is_done()`` itself must keep working regardless.
    done_attribute: Optional[str] = None
    #: Declares that :meth:`schedule_state` captures the process' **complete**
    #: behavioural state, not merely the value-independent control state the
    #: base contract requires.  The promise: two instants with equal summaries
    #: followed by identical input token sequences produce identical future
    #: outputs (values included), ``is_done()`` and ``required_ports()``
    #: answers — and every output value is hashable.  Such summaries are
    #: *data-dependent*.  A golden run of a netlist of complete processes that
    #: can never stop searches them for its loop (:mod:`repro.core.golden`);
    #: the kernels extrapolate such a netlist only when no process overrides
    #: ``is_done`` or ``required_ports``, with the queued token values in the
    #: snapshot key (see :func:`repro.engine.steady_state.certify_model` and
    #: DESIGN.md §5).
    schedule_complete: bool = False

    def __init__(self, name: str) -> None:
        if not name:
            raise NetlistError("process name must be a non-empty string")
        self.name = name
        self.firings = 0

    # -- lifecycle ----------------------------------------------------------
    def reset(self) -> None:
        """Return the process to its initial state.

        Subclasses overriding this method must call ``super().reset()`` so the
        firing counter is cleared as well.
        """
        self.firings = 0

    @abstractmethod
    def fire(self, inputs: Mapping[str, Any]) -> Dict[str, Any]:
        """Perform one synchronous step.

        Parameters
        ----------
        inputs:
            One value per input port.  For ports the oracle declared as not
            required, the wrapper passes whatever it has (possibly ``None``);
            the computation must not depend on those entries.

        Returns
        -------
        dict
            One value per output port.
        """

    # -- WP2 oracle -----------------------------------------------------------
    def required_ports(self) -> Optional[FrozenSet[str]]:
        """Ports whose next-tag token is needed for the next firing.

        The default (``None``) requires every input port, which reduces the
        relaxed wrapper to the strict one.  Overrides must only use the
        process' *current* state (never the pending input values): the oracle
        is consulted while inputs may still be in flight.
        """
        return None

    # -- termination hook -----------------------------------------------------
    def is_done(self) -> bool:
        """Whether this process reached a terminal state (e.g. executed HALT)."""
        return False

    def done_threshold(self) -> Optional[float]:
        """Firing count at which :meth:`is_done` flips, when it is expressible.

        The lockstep kernel (:mod:`repro.engine.lockstep`) advances many
        configurations with pure integer arithmetic and cannot call
        :meth:`is_done` per lane per cycle.  A process whose done condition is
        a pure function of its own firing count can instead declare the
        threshold ``T`` such that ``is_done() == (self.firings >= T)`` at
        every instant of every run:

        * return an ``int`` threshold ``T`` (constant for the whole run);
        * return ``math.inf`` to promise the process never reports done;
        * return ``None`` (the default for processes overriding
          :meth:`is_done`) when the condition is data-dependent or otherwise
          inexpressible — netlists containing such a process fall back to the
          scalar kernels, which is always safe.
        """
        if overrides_hook(self, "is_done"):
            return None
        return _math.inf

    # -- steady-state detection hook ------------------------------------------
    def schedule_state(self) -> Optional[Any]:
        """Snapshot of the internal state that can influence the firing schedule.

        The steady-state detector (see :mod:`repro.engine.steady_state`) hashes
        a canonical snapshot of the simulation each cycle; token *values* never
        gate a firing, so only the state feeding :meth:`is_done` and
        :meth:`required_ports` belongs in it.  The contract:

        * return :data:`SCHEDULE_INERT` to promise that ``is_done()`` and
          ``required_ports()`` answer the same for the whole run (the detector
          then never samples this process);
        * return a hashable value capturing every piece of state those hooks
          depend on.  Two instants with equal values must yield identical
          future ``is_done``/``required_ports`` behaviour as a function of the
          process' future firing sequence — in particular the captured state
          must evolve independently of input token *values*;
        * return ``None`` (the default for processes overriding either hook)
          when the control behaviour is data-dependent and cannot be
          summarised.  Steady-state detection is then disabled for any netlist
          containing the process, which is always safe.
        """
        if overrides_hook(self, "is_done") or overrides_hook(self, "required_ports"):
            return None
        return SCHEDULE_INERT

    # -- bookkeeping used by the simulators -----------------------------------
    def step(self, inputs: Mapping[str, Any]) -> Dict[str, Any]:
        """Fire once and keep the firing counter up to date.

        Simulators call :meth:`step` instead of :meth:`fire` directly so the
        number of valid firings is tracked uniformly.  The output dictionary
        is validated against :attr:`output_ports`.
        """
        outputs = self.fire(inputs)
        missing = [port for port in self.output_ports if port not in outputs]
        if missing:
            raise NetlistError(
                f"process {self.name!r} did not drive output ports {missing}"
            )
        unexpected = [port for port in outputs if port not in self.output_ports]
        if unexpected:
            raise NetlistError(
                f"process {self.name!r} drove undeclared output ports {unexpected}"
            )
        self.firings += 1
        return dict(outputs)

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(name={self.name!r}, "
            f"inputs={list(self.input_ports)}, outputs={list(self.output_ports)})"
        )


class FunctionProcess(Process):
    """A process defined by a plain function over its inputs and a state.

    The function receives ``(state, inputs)`` and returns
    ``(new_state, outputs)``.  This is the quickest way to build small test
    systems and the synthetic netlists used by the property tests.

    Parameters
    ----------
    name:
        Process name (must be unique within a netlist).
    inputs, outputs:
        Port name sequences.
    transition:
        The ``(state, inputs) -> (new_state, outputs)`` function.
    initial_state:
        State restored by :meth:`reset`.
    oracle:
        Optional ``state -> frozenset of required ports`` function, exposing a
        WP2 oracle for the function process.
    schedule_state:
        Optional ``state -> hashable`` projection backing
        :meth:`Process.schedule_state` for oracle-bearing processes.  It must
        extract exactly the part of the state the oracle depends on, and that
        part must evolve independently of input token values (see the
        contract on :meth:`Process.schedule_state`).  Without it, an
        oracle-bearing function process reports ``None`` (detection disabled).
    """

    def __init__(
        self,
        name: str,
        inputs: Sequence[str],
        outputs: Sequence[str],
        transition: Callable[[Any, Mapping[str, Any]], Tuple[Any, Dict[str, Any]]],
        initial_state: Any = None,
        oracle: Optional[Callable[[Any], Optional[Iterable[str]]]] = None,
        schedule_state: Optional[Callable[[Any], Any]] = None,
    ) -> None:
        super().__init__(name)
        self.input_ports = tuple(inputs)
        self.output_ports = tuple(outputs)
        self._transition = transition
        self._initial_state = initial_state
        self._oracle = oracle
        self._schedule_state_fn = schedule_state
        self.state = initial_state

    def reset(self) -> None:
        super().reset()
        self.state = self._initial_state

    def fire(self, inputs: Mapping[str, Any]) -> Dict[str, Any]:
        self.state, outputs = self._transition(self.state, inputs)
        return outputs

    def required_ports(self) -> Optional[FrozenSet[str]]:
        if self._oracle is None:
            return None
        required = self._oracle(self.state)
        if required is None:
            return None
        return frozenset(required)

    def schedule_state(self) -> Optional[Any]:
        if self._oracle is None:
            return SCHEDULE_INERT  # required_ports constantly answers None
        if self._schedule_state_fn is None:
            return None
        return self._schedule_state_fn(self.state)


class PassthroughProcess(Process):
    """A single-input, single-output process that forwards its input.

    Used as a building block for synthetic ring netlists in tests and
    benchmarks: a ring of pass-throughs with one injector exposes the
    ``m/(m+n)`` loop-throughput behaviour in its purest form.
    """

    def __init__(self, name: str, in_port: str = "in", out_port: str = "out") -> None:
        super().__init__(name)
        self.input_ports = (in_port,)
        self.output_ports = (out_port,)
        self._in = in_port
        self._out = out_port

    def fire(self, inputs: Mapping[str, Any]) -> Dict[str, Any]:
        return {self._out: inputs[self._in]}


class CounterSource(Process):
    """A source with no inputs producing 0, 1, 2, ... on its output port."""

    def __init__(self, name: str, out_port: str = "out", limit: Optional[int] = None) -> None:
        super().__init__(name)
        self.input_ports = ()
        self.output_ports = (out_port,)
        self._out = out_port
        self._limit = limit
        self._next = 0

    def reset(self) -> None:
        super().reset()
        self._next = 0

    def fire(self, inputs: Mapping[str, Any]) -> Dict[str, Any]:
        value = self._next
        self._next += 1
        return {self._out: value}

    def is_done(self) -> bool:
        return self._limit is not None and self._next >= self._limit

    def schedule_state(self) -> Optional[Any]:
        # Unlimited sources never report done; limited ones flip as a pure
        # function of the emission counter, which is therefore the complete
        # schedule-relevant state (monotone while live, frozen once done).
        return SCHEDULE_INERT if self._limit is None else self._next

    def done_threshold(self) -> Optional[float]:
        # ``_next`` always equals ``firings`` (both advance exactly on fire),
        # so ``is_done() == (firings >= _limit)`` holds at every instant.
        return _math.inf if self._limit is None else self._limit


class SinkProcess(Process):
    """A sink that records every value it consumes (single input port)."""

    def __init__(self, name: str, in_port: str = "in") -> None:
        super().__init__(name)
        self.input_ports = (in_port,)
        self.output_ports = ()
        self._in = in_port
        self.received: list = []

    def reset(self) -> None:
        super().reset()
        self.received = []

    def fire(self, inputs: Mapping[str, Any]) -> Dict[str, Any]:
        self.received.append(inputs[self._in])
        return {}
