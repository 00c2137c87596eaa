"""Every default-config artifact, pinned by its sha256.

`artifacts.sha256` (beside this file, in `sha256sum` format with paths
relative to an output root holding one directory per scenario) lists the 14
CSVs and 8 `summary.txt` files that the 8 scenarios write at their defaults.
`resolved-config.txt` is left out because it echoes `output_dir`. A change
that moves bits on purpose edits that file, so the change shows as a diff;
the failure message prints every artifact with its old and new digest, and
the new lines ready to paste.

The scenarios run in two child interpreters at once with BLAS pinned to one
thread, as the benchmark runs them. The mollifier tables do not go
through BLAS, so the artifacts also match at two OpenBLAS threads;
`test_coefficients.py` pins that for the tables themselves.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

from logdrift import cli

MANIFEST = Path(__file__).with_name("artifacts.sha256")
# two groups of about equal run time, one per child interpreter
GROUPS = (("moments", "factorization", "isometry", "blowup-phase"),
          ("kernel-estimates", "gronwall-suite", "uniqueness",
           "hypothesis-check"))
CHILD = ("import sys\nfrom logdrift import cli\n"
         "for name in sys.argv[2:]:\n"
         "    code = cli.main(['--scenario', name,\n"
         "                     '--output-dir', sys.argv[1] + '/' + name])\n"
         "    assert code == 0, f'{name} exited {code}'\n")
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
          "MKL_NUM_THREADS": "1"}


def _read_manifest() -> dict:
    digests = {}
    for line in MANIFEST.read_text().splitlines():
        digest, name = line.split("  ", 1)
        digests[name] = digest
    return digests


def _run_defaults(root: Path) -> dict:
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "LOGDRIFT_SEED"}
    env.update(PINNED, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    children = [subprocess.Popen([sys.executable, "-c", CHILD, str(root),
                                  *group], env=env, stdout=subprocess.DEVNULL,
                                 stderr=subprocess.PIPE, text=True)
                for group in GROUPS]
    for child in children:
        _, err = child.communicate(timeout=600)
        assert child.returncode == 0, err
    return {f"{p.parent.name}/{p.name}":
            hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.glob("*/*"))
            if p.name != "resolved-config.txt"}


def test_groups_cover_every_scenario():
    assert sorted(sum(GROUPS, ())) == sorted(cli.SCENARIOS)


def test_default_artifacts_match_manifest(tmp_path):
    want = _read_manifest()
    got = _run_defaults(tmp_path)
    changed = [f"{name}: {want.get(name)} -> {got.get(name)}"
               for name in sorted(set(want) | set(got))
               if want.get(name) != got.get(name)]
    new = "\n".join(f"{d}  {name}" for name, d in sorted(got.items()))
    assert not changed, ("artifacts differ from the manifest:\n"
                         + "\n".join(changed)
                         + f"\nnew {MANIFEST.name}:\n{new}")
