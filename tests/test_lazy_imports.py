"""Package imports load only what their callers run.

``repro.arch``, ``repro.runtime``, ``repro.runtime.transports``,
``repro.obs`` and ``repro.ml`` resolve their re-exported names on first
use (:mod:`repro._lazy`).  Each check runs in a fresh interpreter, since
this test process has long since imported everything.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
LAZY_PACKAGES = (
    "repro.arch",
    "repro.runtime",
    "repro.runtime.transports",
    "repro.obs",
    "repro.ml",
)

#: Modules a fault-injection process must never load.
NEVER_LOADED_BY_FI = (
    "repro.arch.crossbar",
    "repro.arch.ml_fi_acceleration",
    "repro.arch.pattern_mining",
    "repro.arch.replication_transform",
    "repro.arch.scale_prediction",
    "repro.arch.sdc_prediction",
    "repro.arch.selective_replication",
    "repro.arch.symptom_detection",
    "repro.arch.vulnerability",
    "repro.arch.warning_net",
    "repro.runtime.transports.tcp",
    "repro.runtime.transports.wire",
    "repro.runtime.chaos",
    "repro.obs.record",
    "repro.obs.report",
    "repro.obs.diff",
    "repro.obs.export",
)

_FI_CAMPAIGNS = """
import json, sys, tempfile
from repro.arch import FaultInjector, SteeringConfig, programs
from repro.runtime import ResultCache

injector = FaultInjector(programs.fibonacci(6))
with tempfile.TemporaryDirectory() as tmp:
    cache = ResultCache(tmp)
    uniform = injector.run_campaign(n_trials=64, seed=1, cache=cache)
    steered = injector.run_steered_campaign(
        budget=512, seed=1, config=SteeringConfig(target_ci=0.2), cache=cache)
assert len(uniform.records) == 64 and steered.records
print(json.dumps(sorted(m for m in sys.modules if m.startswith("repro"))))
"""


def _run(code, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), env.get("PYTHONPATH", "")])
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_fi_campaigns_load_no_study_ml_tcp_chaos_or_record_reader():
    loaded = set(_run(_FI_CAMPAIGNS))
    assert "repro.arch.steering" in loaded  # the campaigns really ran
    assert not [m for m in loaded if m == "repro.ml" or m.startswith("repro.ml.")]
    assert sorted(loaded & set(NEVER_LOADED_BY_FI)) == []


_TABLE_CHECK = """
import importlib, json, sys
pkg = importlib.import_module(sys.argv[1])
listed = set(dir(pkg))
table = getattr(pkg, "_EXPORTS", {})
bad = []
for name in pkg.__all__:
    if name not in listed:
        bad.append(f"{name}: not in dir()")
    value = getattr(pkg, name)
    if name in table:
        home = importlib.import_module(f"{pkg.__name__}.{table[name]}")
        if value is not (home if table[name] == name else getattr(home, name)):
            bad.append(f"{name}: not the object {home.__name__} holds")
    elif name not in vars(pkg):
        bad.append(f"{name}: neither in the table nor bound")
    if hasattr(value, "__qualname__"):
        if getattr(sys.modules[value.__module__], value.__name__) is not value:
            bad.append(f"{name}: not what {value.__module__} defines")
star = {}
exec(f"from {pkg.__name__} import *", star)
bad += [f"{name}: not star-imported" for name in pkg.__all__ if name not in star]
try:
    getattr(pkg, "no_such_name")
    bad.append("no_such_name resolved")
except AttributeError:
    pass
print(json.dumps(bad))
"""


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_lazy_table_resolves_every_public_name(package):
    """Every ``__all__`` name resolves to the object its defining module
    holds, ``dir()`` lists it, ``import *`` works, and an unknown name is
    an ``AttributeError`` -- so a renamed class fails here, not at a
    user's first access."""
    assert _run(_TABLE_CHECK, package) == []
