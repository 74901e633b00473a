"""repro — learning-oriented reliability improvement, transistor to application.

Reproduction of the DATE 2023 paper "Learning-Oriented Reliability
Improvement of Computing Systems From Transistor to Application Level".

Subpackages
-----------
``repro.ml``
    From-scratch numpy ML substrate (classical models, MLPs, GAT, k-means).
``repro.hdc``
    Hyperdimensional computing: robust classification and aging mimicry.
``repro.transistor``
    Device-level models: alpha-power delay, BTI/HCI aging, self-heating.
``repro.circuit``
    Standard cells, libraries, netlists, STA, characterization flows
    (including the SHE flow of the paper's Fig. 3).
``repro.arch``
    CPU simulator, fault injection, and the surveyed ML reliability
    techniques at the architecture level.
``repro.system``
    Multicore platform, power/thermal models, lifetime models, and
    RL-based dynamic reliability managers.
``repro.core``
    The paper's own contribution: the Fig. 1 learning loop and the
    Sec. V fault-tolerant timing-guaranteed system analysis (Figs. 5-6).
``repro.runtime``
    Shared parallel-execution layer: deterministic per-trial seed
    streams, multi-process campaign fan-out, on-disk result caching,
    and progress telemetry (see ``docs/campaigns.md``).
``repro.obs``
    Cross-layer observability: hierarchical tracing spans, a
    process-global metrics registry, and structured JSONL run records
    rendered by ``python -m repro report`` (see
    ``docs/observability.md``).
"""

__version__ = "1.1.0"
