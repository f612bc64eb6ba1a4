"""scipy's heavy submodules load on first use, not at package import.

``linalg.mat_exp`` reaches ``scipy.linalg`` only in its non-normal fallback,
so neither the package import nor a default run of any experiment loads it.
Nothing in the package reaches ``scipy.sparse``: the Dicke oracle evolves by
charge sector, and even a call to it leaves the sparse submodules unloaded.
The checks run in a fresh interpreter: in this one, other tests have long
since imported them.
"""

import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import scipy.linalg

import entwitness
from entwitness import linalg
from entwitness.cli import EXPERIMENTS

HEAVY = ("scipy.linalg", "scipy.sparse", "scipy.sparse.linalg")

PROBE = """
import json, sys
out = sys.argv[1]
loaded = lambda: {m: m in sys.modules for m in ("scipy", *HEAVY)}
import entwitness, entwitness.cli, entwitness.models
report = {"import": loaded(), "codes": {}}
for name in sorted(entwitness.cli.EXPERIMENTS):
    report["codes"][name] = entwitness.cli.main([name, "--output", f"{out}/{name}.csv"])
report["runs"] = loaded()
import numpy as np
from entwitness import linalg
from entwitness.models import DickeConfig, dicke_oracle
linalg.mat_exp(np.array([[0.0, 1.0], [0.0, 0.0]]))
dicke_oracle(DickeConfig(n_atoms=4, k=2, t=0.5, field_amplitudes=np.array([0.6, 0.8]), dims=(4, 4, 4)))
report["after_fallbacks"] = loaded()
print(json.dumps(report))
"""


def _probe(tmp_path) -> dict:
    src = str(pathlib.Path(entwitness.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = f"HEAVY = {HEAVY!r}\n{PROBE}"
    out = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path)], capture_output=True, text=True, check=True, env=env
    )
    return json.loads(out.stdout)


def test_import_and_default_runs_leave_scipy_submodules_unloaded(tmp_path):
    report = _probe(tmp_path)
    unloaded = {"scipy": True, **{m: False for m in HEAVY}}
    assert report["import"] == unloaded
    assert report["codes"] == {name: 0 for name in sorted(EXPERIMENTS)}
    assert sorted(p.name for p in tmp_path.glob("*.csv")) == sorted(f"{n}.csv" for n in EXPERIMENTS)
    assert report["runs"] == unloaded
    # the mat_exp fallback still reaches scipy.linalg in a fresh process; the oracle needs no scipy.sparse
    assert report["after_fallbacks"] == {
        "scipy": True, "scipy.linalg": True, "scipy.sparse": False, "scipy.sparse.linalg": False
    }


def test_mat_exp_fallback_matches_scipy_expm_on_non_normal_input():
    rng = np.random.default_rng(7)
    for a in (
        np.array([[0.0, 1.0], [0.0, 0.0]]),
        np.triu(rng.normal(size=(5, 5))),
        rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)),
    ):
        assert np.abs(a @ a.conj().T - a.conj().T @ a).max() > 1e-3
        np.testing.assert_allclose(linalg.mat_exp(a), scipy.linalg.expm(a), rtol=1e-12, atol=1e-12)
