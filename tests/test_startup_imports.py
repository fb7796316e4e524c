"""What a run imports, checked in a fresh interpreter.

scipy is imported only at the first binomial tail, and the process pool's
module only for a run with workers > 1, so a run whose scenario never asks
for a tail starts without either. The pytest process already holds scipy
(tests/test_quantum.py imports it), so the check runs in a subprocess.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# the shipped configs whose trials never reach quantum.binomial_tail
NO_TAIL_CONFIGS = (
    "classical", "gap", "hlw", "verify-gentle", "verify-union-bound",
    "lower-classical", "lower-quantum", "random-order-or",
)

_PROBE = """
import json, sys
from pathlib import Path

import shadowtomo.cli
from shadowtomo.scenarios import load_config, resolve, run_trial

WATCHED = ("scipy", "scipy.special", "concurrent.futures.process")

def loaded():
    return [name for name in WATCHED if name in sys.modules]

configs = {p.stem: resolve(load_config(p)) for p in sorted(Path("configs").glob("*.cfg"))}
report = {"configs": sorted(configs), "after_resolve": loaded(), "after_trial": {}}
for name in json.loads(sys.argv[1]):
    run_trial(configs[name], 0)
    report["after_trial"][name] = loaded()
run_trial(configs["money-demo"], 0)
report["after_money_demo"] = loaded()
print(json.dumps(report))
"""


def test_a_run_imports_scipy_only_at_its_first_binomial_tail():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", _PROBE, json.dumps(NO_TAIL_CONFIGS)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    report = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(NO_TAIL_CONFIGS) | {"money-demo"} <= set(report["configs"])
    assert report["after_resolve"] == [], "the CLI import and resolve of every config"
    for name, loaded in report["after_trial"].items():
        assert "scipy" not in loaded, f"one {name} trial"
    assert "scipy.special" in report["after_money_demo"]
    assert "concurrent.futures.process" not in report["after_money_demo"]
