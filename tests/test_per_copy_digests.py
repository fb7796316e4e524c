"""Golden digests of the per-copy collapse path, the fresh-mode shadow path
and the classical hard family.

Each case runs a shipped config through the CLI and pins the sha256 of its
`results.csv`; lower-classical's rows hold nothing that depends on the sampled
family, so its families are pinned on their own. money-demo pins the
fresh-mode shadow path: its verifier bank, OR rounds, threshold tails,
hypothesis values and postselections. Any change to a per-copy outcome, to a
fresh-mode draw or hypothesis update, to the subset family's repair, to the
order of their random draws or to the row layout fails here. A change that
alters them on purpose must say so and update the digest.
"""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from shadowtomo.cli import main
from shadowtomo.hardness import gen_classical_hard_instance
from shadowtomo.rng import substream

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

GOLDEN = [
    ("gap", ["--set", "trials=40"],
     "e5c192cb995cdc7177fad4df1f916dd2ec71bcc3ff4ede74cfe69add4e51b325"),
    ("random-order-or", [],
     "bf2becf0a8d1b7f5c21848df22cf25421d1ff31091deedec304dfa9145be800b"),
]

CLASSICAL_GOLDEN = [
    ("classical", ["--set", "trials=40"],
     "fd199feb8de019d10d101a2e156ac4b01ffc9ccff6053288c1f5ba08e8c1b80f"),
    ("lower-classical", [],
     "4e5ccb0fa8ce9ddbacf2a88fa6f49aba9fe3e9556611fd6f797f32fa9eab3acd"),
]


def _results_digest(config, overrides, out):
    code = main(["run", "--config", str(CONFIGS / f"{config}.cfg"), *overrides, "--out-dir", str(out)])
    assert code == 0
    return hashlib.sha256((out / "results.csv").read_bytes()).hexdigest()


@pytest.mark.parametrize("config, overrides, digest", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_per_copy_results_digest_is_pinned(config, overrides, digest, tmp_path, capsys):
    assert _results_digest(config, overrides, tmp_path / "out") == digest


def test_money_demo_results_digest_is_pinned(tmp_path, capsys):
    digest = _results_digest("money-demo", ["--set", "trials=30"], tmp_path / "out")
    assert digest == "deb3503a7043a029def67bf30bcdddc08a2acfd06e063cc03248e92d6765abd1"


@pytest.mark.parametrize(
    "config, overrides, digest", CLASSICAL_GOLDEN, ids=[g[0] for g in CLASSICAL_GOLDEN]
)
def test_classical_results_digest_is_pinned(config, overrides, digest, tmp_path, capsys):
    assert _results_digest(config, overrides, tmp_path / "out") == digest


def test_lower_classical_families_are_pinned():
    # lower-classical.cfg's N, K, eps and trial count, drawn first from each
    # trial's substream as _trial_lower_classical draws them
    h = hashlib.sha256()
    for t in range(50):
        inst = gen_classical_hard_instance(16, 8, 0.1, substream(0, t))
        h.update(np.packbits(inst.masks).tobytes())
    assert h.hexdigest() == "7225f5351a8bb7ba89464e5ce22727b5216e5c339bd3280769be28d5ba932d15"
