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

from repro.arch.isa import Instruction, Opcode, Program
from repro.arch.assembler import assemble, AssemblyError
from repro.arch.cpu import CPU, ExecutionResult, CrashError
from repro.arch import programs
from repro.arch.fault_injection import FaultInjector, Outcome, CampaignResult
from repro.arch.steering import (
    SteeredCampaignResult,
    SteeredUnitSource,
    SteeringConfig,
    run_steered_campaign,
)
from repro.arch.vulnerability import element_features, vulnerability_table
from repro.arch.ml_fi_acceleration import FIAccelerationStudy
from repro.arch.scale_prediction import ScalePredictionStudy
from repro.arch.pattern_mining import PatternMiner
from repro.arch.sdc_prediction import build_instruction_graph, SDCPredictor
from repro.arch.selective_replication import ReplicationStudy
from repro.arch.replication_transform import (
    protect_program,
    measure_protection,
    MeasuredProtection,
)
from repro.arch.crossbar import Crossbar, CrossbarFaultStudy
from repro.arch.symptom_detection import SymptomDetector
from repro.arch.warning_net import WarningNet

__all__ = [
    "Instruction",
    "Opcode",
    "Program",
    "assemble",
    "AssemblyError",
    "CPU",
    "ExecutionResult",
    "CrashError",
    "programs",
    "FaultInjector",
    "Outcome",
    "CampaignResult",
    "SteeredCampaignResult",
    "SteeredUnitSource",
    "SteeringConfig",
    "run_steered_campaign",
    "element_features",
    "vulnerability_table",
    "FIAccelerationStudy",
    "ScalePredictionStudy",
    "PatternMiner",
    "build_instruction_graph",
    "SDCPredictor",
    "ReplicationStudy",
    "protect_program",
    "measure_protection",
    "MeasuredProtection",
    "Crossbar",
    "CrossbarFaultStudy",
    "SymptomDetector",
    "WarningNet",
]
