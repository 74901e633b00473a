"""Exact AVF of every seed program, by exhaustive fault injection.

Enumerates every ``(cycle, element, bit)`` coordinate of each program in
``repro.arch.programs.all_programs()`` through
``FaultInjector.inject_many`` at the library-default hang budget (the
one the ``fi-*`` workloads use), and writes the failure counts to
``perfbench/avf_exact.json``.  A uniform or steered campaign samples
exactly this coordinate measure, so these counts are the ground truth
its AVF estimate is checked against.  Regenerate (about two minutes on
one core) with::

    python3 perfbench/ground_truth.py
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "avf_exact.json"
COMMAND = "python3 perfbench/ground_truth.py"
BATCH = 8192


def exact_avf(injector, elements):
    """Outcome counts over the full coordinate space of ``injector``."""
    from repro.arch.fault_injection import Outcome

    coords = [
        (cycle, element, bit)
        for cycle in range(injector.golden_cycles)
        for element in elements
        for bit in range(32)
    ]
    counts = {o.value: 0 for o in Outcome}
    for start in range(0, len(coords), BATCH):
        for record in injector.inject_many(coords[start:start + BATCH]):
            counts[record.outcome.value] += 1
    failures = counts["sdc"] + counts["crash"] + counts["hang"]
    return {
        "golden_cycles": injector.golden_cycles,
        "max_cycles": injector.max_cycles,
        "elements": len(elements),
        "instructions_sha256": injector.fingerprint()["instructions"],
        "trials": len(coords),
        "counts": counts,
        "failures": failures,
        "avf": failures / len(coords),
    }


def main():
    sys.path.insert(0, str(ROOT / "src"))
    from repro.arch import FaultInjector
    from repro.arch.cpu import CPU
    from repro.arch.programs import all_programs

    programs = {}
    for program in all_programs():
        started = time.perf_counter()
        injector = FaultInjector(program)
        programs[program.name] = exact_avf(
            injector, CPU(program).state_elements()
        )
        entry = programs[program.name]
        print(
            f"{program.name}: AVF {entry['avf']:.6f} over {entry['trials']} "
            f"trials in {time.perf_counter() - started:.1f} s",
            flush=True,
        )
    OUT.write_text(json.dumps(
        {"command": COMMAND, "programs": programs}, indent=1, sort_keys=True
    ) + "\n")


if __name__ == "__main__":
    main()
