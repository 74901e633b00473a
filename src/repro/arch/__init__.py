"""Architecture-level reliability (Sec. III).

Substrate: a small RISC ISA (:mod:`repro.arch.isa`), a CPU simulator with
explicit, injectable state elements (:mod:`repro.arch.cpu`), a set of
workload programs (:mod:`repro.arch.programs`), and the one golden trace
of a program every analysis reads (:mod:`repro.arch.golden`).

On top of it, the surveyed ML techniques:

* :mod:`repro.arch.fault_injection` — microarchitectural fault-injection
  campaigns with outcome classification (masked/SDC/crash/hang/symptom);
* :mod:`repro.arch.vulnerability` — structural features and AVF per state
  element;
* :mod:`repro.arch.ml_fi_acceleration` — ref [20]: predict element
  vulnerability from ~20 % of the injections;
* :mod:`repro.arch.scale_prediction` — ref [21]: predict large-scale error
  behaviour from small-scale runs, boosting vs simpler models;
* :mod:`repro.arch.pattern_mining` — refs [22],[23]: supervised +
  unsupervised mining of injection logs;
* :mod:`repro.arch.sdc_prediction` — ref [24]: GAT over instruction graphs
  predicting per-instruction fault outcomes;
* :mod:`repro.arch.selective_replication` — ref [27] (IPAS): SVM-guided
  instruction replication;
* :mod:`repro.arch.crossbar` — ref [28]: fault criticality in memristor
  crossbars and selective redundancy;
* :mod:`repro.arch.symptom_detection` — ref [30]: MLP anomaly detection on
  DNN intermediate outputs;
* :mod:`repro.arch.warning_net` — ref [32]: early warning of task failure
  under input perturbation.
"""

from repro._lazy import lazy_exports

#: Public name -> defining module; each is imported on first use.
_EXPORTS = {
    "Instruction": "isa",
    "Opcode": "isa",
    "Program": "isa",
    "assemble": "assembler",
    "AssemblyError": "assembler",
    "CPU": "cpu",
    "ExecutionResult": "cpu",
    "CrashError": "cpu",
    "programs": "programs",
    "FaultInjector": "fault_injection",
    "Outcome": "fault_injection",
    "CampaignResult": "fault_injection",
    "SteeredCampaignResult": "steering",
    "SteeredUnitSource": "steering",
    "SteeringConfig": "steering",
    "run_steered_campaign": "steering",
    "element_features": "vulnerability",
    "vulnerability_table": "vulnerability",
    "FIAccelerationStudy": "ml_fi_acceleration",
    "ScalePredictionStudy": "scale_prediction",
    "PatternMiner": "pattern_mining",
    "build_instruction_graph": "sdc_prediction",
    "SDCPredictor": "sdc_prediction",
    "ReplicationStudy": "selective_replication",
    "protect_program": "replication_transform",
    "measure_protection": "replication_transform",
    "MeasuredProtection": "replication_transform",
    "Crossbar": "crossbar",
    "CrossbarFaultStudy": "crossbar",
    "SymptomDetector": "symptom_detection",
    "WarningNet": "warning_net",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
