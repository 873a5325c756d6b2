"""Import discipline: exact commands never load mpmath or the numeric layer.

Everything runs in one fresh interpreter, because the test process itself
has long since imported every module.
"""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import weilforms
from weilforms.containers import dumps, jacobi_to_json, scalar_to_json
from weilforms.expansions import theta_expansion
from weilforms.jacobi import random_jacobi_form

SCRIPT = r"""
import importlib, json, sys

def loaded():
    return {n for n in sys.modules if n == "mpmath" or n.startswith("weilforms.")}

import weilforms
after_package = sorted(loaded())
import weilforms.cli
after_cli = sorted(loaded())

d = sys.argv[1]
exact = [
    ["milgram", "--m", "6"],
    ["rank-lemma", "--m", "3"],
    ["gauss-check", "--m", "3"],
    ["b-entry", "--m", "3", "--beta", "1", "--gamma", "5"],
    ["split", "--in", f"{d}/f.json", "--out", f"{d}/F.json"],
    ["combine", "--in", f"{d}/F.json", "--out", f"{d}/back.json"],
    ["check-T", "--in", f"{d}/F.json"],
    ["check-plus", "--in", f"{d}/back.json"],
    ["jacobi-decompose", "--in", f"{d}/phi.json", "--out", f"{d}/h.json"],
    ["jacobi-reconstruct", "--in", f"{d}/h.json", "--out", f"{d}/phi2.json"],
    ["jacobi-thm2", "--in", f"{d}/phi.json", "--out", f"{d}/g.json"],
    ["heat-check", "--m", "7", "--r", "13"],
]
codes = {}
for argv in exact:
    codes[argv[0]] = weilforms.cli.main([*argv, "--json", f"{d}/report.json"])
after_exact = sorted(loaded())
codes["eval"] = weilforms.cli.main(["eval", "--in", f"{d}/back.json"])
after_eval = sorted(loaded())

mismatched = [
    name for name in weilforms.__all__
    if getattr(weilforms, name)
    is not getattr(importlib.import_module("weilforms." + weilforms._HOME[name]), name)
]
print(json.dumps({"after_package": after_package, "after_cli": after_cli,
                  "after_exact": after_exact, "after_eval": after_eval,
                  "codes": codes, "mismatched": mismatched}))
"""

NUMERIC = {"mpmath", "weilforms.expansions", "weilforms.isomap", "weilforms.jacobi",
           "weilforms.weilrep", "weilforms.metaplectic"}


def test_exact_commands_do_not_load_mpmath(tmp_path):
    (tmp_path / "f.json").write_text(dumps(scalar_to_json(theta_expansion(60), 1, 0)))
    phi = random_jacobi_form(2, 3, random.Random(7))
    (tmp_path / "phi.json").write_text(dumps(jacobi_to_json(phi)))
    src = Path(weilforms.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path)],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout.splitlines()[-1])
    assert got["after_package"] == []
    assert not NUMERIC & set(got["after_cli"]), got["after_cli"]
    assert not {"weilforms.cyclo", "weilforms.arith"} & set(got["after_cli"]), got["after_cli"]
    assert "mpmath" not in got["after_exact"], got["after_exact"]
    assert got["codes"] == {name: 0 for name in got["codes"]}
    assert "mpmath" in got["after_eval"]
    assert got["mismatched"] == []
    assert len(weilforms.__all__) == len(set(weilforms.__all__)) == 55
    assert (tmp_path / "phi2.json").read_bytes() == (tmp_path / "phi.json").read_bytes()
