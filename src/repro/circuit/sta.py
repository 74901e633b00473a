"""Static timing analysis over NLDM libraries, with SDF export.

The engine propagates arrival times and transition slews in topological
order, honoring per-arc (slew, load) table lookups, flip-flop endpoints,
and a clock-period constraint.  A ``cell_resolver`` hook lets callers bind
each instance to its *own* characterized cell — the mechanism behind the
per-instance corner libraries of the Fig. 3 ML flow.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import obs

DEFAULT_INPUT_SLEW_PS = 20.0
DFF_SETUP_PS = 20.0


@dataclass
class InstanceTiming:
    """Timing data computed for one instance."""

    name: str
    cell_name: str
    load_ff: float
    pin_slews: dict = field(default_factory=dict)  # input pin -> slew at pin
    pin_arrivals: dict = field(default_factory=dict)  # input pin -> arrival at pin
    arc_values: dict = field(default_factory=dict)  # input pin -> arc table value
    arrival: float = 0.0  # at output
    slew: float = 0.0  # at output
    critical_pin: str = ""

    @property
    def max_arc_value(self):
        """Worst arc value — the quantity an SDF annotation would carry."""
        if not self.arc_values:
            return 0.0
        return max(self.arc_values.values())


class StaticTimingAnalysis:
    """One STA run of a netlist against a library (or per-instance cells).

    Parameters
    ----------
    netlist:
        A :class:`repro.circuit.netlist.Netlist`.
    library:
        Library used both for pin capacitances (loads) and, by default,
        for timing arcs.
    clock_period_ps:
        Constraint used for slack computation.
    input_slew_ps:
        Transition time assumed at primary inputs (and at clock pins).
    cell_resolver:
        Optional callable ``(instance) -> StandardCell`` overriding where
        each instance's characterized arcs come from.  Loads always come
        from ``library`` so that swapping timing corners does not change
        the electrical network.
    """

    def __init__(
        self,
        netlist,
        library,
        clock_period_ps=1000.0,
        input_slew_ps=DEFAULT_INPUT_SLEW_PS,
        cell_resolver=None,
    ):
        self.netlist = netlist
        self.library = library
        self.clock_period_ps = clock_period_ps
        self.input_slew_ps = input_slew_ps
        self._resolve = cell_resolver or (lambda inst: library.get(inst.cell_name))
        self.timings = {}
        self.endpoint_slacks = {}
        self._ran = False

    def run(self):
        """Propagate arrivals/slews; returns self for chaining."""
        with obs.span("circuit.sta.run", design=self.netlist.name):
            self._run()
        obs.inc("circuit.sta.runs")
        obs.inc("circuit.sta.arrival_propagations", len(self.timings))
        return self

    def _run(self):
        arrivals = {pi: 0.0 for pi in self.netlist.primary_inputs}
        slews = {pi: self.input_slew_ps for pi in self.netlist.primary_inputs}
        self.timings = {}
        for name in self.netlist.topological_order():
            inst = self.netlist.get(name)
            cell = self._resolve(inst)
            load = self.netlist.load_of(name, self.library)
            timing = InstanceTiming(name=name, cell_name=inst.cell_name, load_ff=load)
            for pin, driver in inst.fanin.items():
                pin_slew = slews[driver]
                pin_arrival = arrivals[driver]
                timing.pin_slews[pin] = pin_slew
                timing.pin_arrivals[pin] = pin_arrival
                arc = cell.arc_for_input(pin)
                timing.arc_values[pin] = arc.delay(pin_slew, load)
            if cell.is_sequential:
                # D-pin is an endpoint; Q launches a fresh path at clk->Q.
                clk_slew = self.input_slew_ps
                arc = cell.arcs[0]
                timing.arrival = arc.delay(clk_slew, load)
                timing.slew = arc.output_slew(clk_slew, load)
                timing.critical_pin = "CLK"
            else:
                best_pin = None
                best_arrival = 0.0
                for pin in inst.fanin:
                    a = timing.pin_arrivals[pin] + timing.arc_values[pin]
                    if best_pin is None or a > best_arrival:
                        best_pin = pin
                        best_arrival = a
                arc = cell.arc_for_input(best_pin)
                timing.arrival = best_arrival
                timing.slew = arc.output_slew(timing.pin_slews[best_pin], load)
                timing.critical_pin = best_pin
            arrivals[name] = timing.arrival
            slews[name] = timing.slew
            self.timings[name] = timing

        self.endpoint_slacks = {}
        for name in self.netlist.primary_outputs:
            timing = self.timings[name]
            inst = self.netlist.get(name)
            cell = self._resolve(inst)
            if cell.is_sequential:
                # Data must arrive at D before the capture edge minus setup.
                data_arrival = max(timing.pin_arrivals.values(), default=0.0)
                slack = self.clock_period_ps - DFF_SETUP_PS - data_arrival
            else:
                slack = self.clock_period_ps - timing.arrival
            self.endpoint_slacks[name] = slack
        self._ran = True

    # -- results --------------------------------------------------------------
    def _require_run(self):
        if not self._ran:
            raise RuntimeError("call run() first")

    @property
    def worst_slack(self):
        self._require_run()
        if not self.endpoint_slacks:
            raise RuntimeError("design has no timing endpoints")
        return min(self.endpoint_slacks.values())

    @property
    def worst_arrival(self):
        self._require_run()
        return max(t.arrival for t in self.timings.values())

    def min_feasible_period(self):
        """Smallest clock period meeting setup at every endpoint."""
        self._require_run()
        worst = 0.0
        for name in self.netlist.primary_outputs:
            timing = self.timings[name]
            inst = self.netlist.get(name)
            cell = self._resolve(inst)
            if cell.is_sequential:
                data_arrival = max(timing.pin_arrivals.values(), default=0.0)
                worst = max(worst, data_arrival + DFF_SETUP_PS)
            else:
                worst = max(worst, timing.arrival)
        return worst

    def critical_path(self):
        """Instance names along the worst path, endpoint last."""
        self._require_run()
        end = min(self.endpoint_slacks, key=self.endpoint_slacks.get)
        return self._path_to_endpoint(end)

    def _path_to_endpoint(self, endpoint):
        """Backtrack the critical path into one endpoint."""
        path = [endpoint]
        current = endpoint
        timing = self.timings[current]
        if timing.critical_pin == "CLK" and timing.pin_arrivals:
            # Sequential endpoint: the path arrives at the D pin; hop to the
            # driver of the latest-arriving input and continue from there.
            worst_pin = max(timing.pin_arrivals, key=timing.pin_arrivals.get)
            driver = self.netlist.get(current).fanin[worst_pin]
            if driver in self.netlist.primary_inputs:
                path.reverse()
                return path
            path.append(driver)
            current = driver
        while True:
            timing = self.timings[current]
            if timing.critical_pin in ("", "CLK"):
                break
            driver = self.netlist.get(current).fanin[timing.critical_pin]
            if driver in self.netlist.primary_inputs:
                break
            path.append(driver)
            current = driver
        path.reverse()
        return path

    def endpoint_paths(self, n_paths=5):
        """The ``n_paths`` worst endpoints with their critical paths.

        Returns a list of dicts sorted by ascending slack, each with
        ``endpoint``, ``slack``, ``arrival``, and ``path`` (instance
        names, endpoint last) — the data a PrimeTime-style ``report_timing``
        presents.
        """
        self._require_run()
        if n_paths < 1:
            raise ValueError("n_paths must be positive")
        ranked = sorted(self.endpoint_slacks.items(), key=lambda kv: kv[1])
        out = []
        for endpoint, slack in ranked[:n_paths]:
            timing = self.timings[endpoint]
            inst = self.netlist.get(endpoint)
            cell = self._resolve(inst)
            if cell.is_sequential:
                arrival = max(timing.pin_arrivals.values(), default=0.0)
            else:
                arrival = timing.arrival
            out.append(
                {
                    "endpoint": endpoint,
                    "slack": slack,
                    "arrival": arrival,
                    "path": self._path_to_endpoint(endpoint),
                }
            )
        return out

    def format_timing_report(self, n_paths=5):
        """Human-readable multi-path timing report (PrimeTime-style)."""
        lines = [
            f"Timing report for {self.netlist.name} "
            f"(clock period {self.clock_period_ps:.1f} ps)",
            "=" * 64,
        ]
        for entry in self.endpoint_paths(n_paths):
            endpoint = entry["endpoint"]
            inst = self.netlist.get(endpoint)
            lines.append(f"Endpoint: {endpoint} ({inst.cell_name})")
            lines.append(
                f"  arrival {entry['arrival']:.2f} ps   slack {entry['slack']:.2f} ps"
            )
            for name in entry["path"]:
                t = self.timings[name]
                lines.append(
                    f"    {name:<10} {t.cell_name:<12} "
                    f"arrival {t.arrival:8.2f}  slew {t.slew:7.2f}  "
                    f"load {t.load_ff:6.2f}"
                )
            lines.append("-" * 64)
        return "\n".join(lines) + "\n"

    def annotation(self):
        """Per-instance worst arc value (delay ps — or SHE dT when run
        against a SHE-characterized library, per the Fig. 3 flow)."""
        self._require_run()
        return {name: t.max_arc_value for name, t in self.timings.items()}


def write_sdf(sta, path=None, design_name=None, unit="ps"):
    """Serialize an STA run's per-arc values as a (minimal) SDF file.

    When the STA was run against a SHE library, the IOPATH values are SHE
    temperatures — the paper's "SDF file no longer contains delays but the
    (maximum) SHE temperatures for each cell".  Returns the SDF text; if
    ``path`` is given the text is also written there.
    """
    sta._require_run()
    design = design_name or sta.netlist.name
    lines = [
        "(DELAYFILE",
        '  (SDFVERSION "3.0")',
        f'  (DESIGN "{design}")',
        f'  (TIMESCALE 1{unit})',
    ]
    for name, timing in sta.timings.items():
        inst = sta.netlist.get(name)
        lines.append("  (CELL")
        lines.append(f'    (CELLTYPE "{inst.cell_name}")')
        lines.append(f"    (INSTANCE {name})")
        lines.append("    (DELAY (ABSOLUTE")
        for pin, value in timing.arc_values.items():
            lines.append(
                f"      (IOPATH {pin} Y ({value:.3f}::{value:.3f}) ({value:.3f}::{value:.3f}))"
            )
        lines.append("    ))")
        lines.append("  )")
    lines.append(")")
    text = "\n".join(lines) + "\n"
    if path is not None:
        with open(path, "w") as f:
            f.write(text)
    return text
