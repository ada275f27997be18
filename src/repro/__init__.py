"""repro — reproduction of "A New System Design Methodology for Wire Pipelined SoC".

The package is organised in three layers:

* :mod:`repro.core` — the latency-insensitive wire-pipelining framework:
  processes, channels, relay stations, the strict (WP1) and oracle-relaxed
  (WP2) wrappers, golden and latency-insensitive simulators, static loop
  throughput analysis, floorplan/wire-delay driven relay-station insertion,
  configuration optimisation, and area models.
* :mod:`repro.cpu` — the paper's case study: a five-block processor (CU, IC,
  RF, ALU, DC) with a minimal ISA, an assembler, pipelined and multicycle
  control variants, and the two workloads (extraction sort, matrix multiply).
* :mod:`repro.engine` — the layered simulation engine behind
  :class:`repro.core.simulator.LidSimulator`: elaboration of netlists into
  flat runtime models, selectable execution kernels (object-based reference,
  code-generating compiled — the default — and array-based fast), opt-in
  instrumentation passes, and the batch runner that
  evaluates many relay-station configurations against one elaborated model.
* :mod:`repro.experiments` — harnesses regenerating every table and figure of
  the paper (Table 1 for both workloads, the Figure 1 loop report, the
  multicycle study and the wrapper area overhead claim).
"""

from . import core, engine

__version__ = "0.1.0"

__all__ = ["core", "engine", "__version__"]
