import os
import re
import subprocess
import sys
from pathlib import Path

import oriflag


def test_public_names_are_unique_and_resolve():
    assert len(oriflag.__all__) == len(set(oriflag.__all__))
    for name in oriflag.__all__:
        assert hasattr(oriflag, name), name


def test_import_does_not_load_scipy():
    # numpy is the only runtime dependency; scipy must not creep back in
    src = str(Path(oriflag.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = "import sys, oriflag; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    assert proc.stdout.strip() == "[]"


def test_package_and_pyproject_versions_agree():
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    declared = re.search(r'^version = "([^"]+)"$', pyproject, re.MULTILINE).group(1)
    assert declared == oriflag.__version__
