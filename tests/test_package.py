import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

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
    # the version is written once, as oriflag.__version__, and pyproject.toml reads it from there
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    project = pyproject.split("[project]", 1)[1].split("\n[", 1)[0]
    assert re.search(r'^dynamic = \["version"\]$', project, re.MULTILINE)
    assert not re.search(r'^version = ', project, re.MULTILINE)
    dynamic = pyproject.split("[tool.setuptools.dynamic]", 1)[1]
    module, name = re.search(r'^version = \{attr = "([\w.]+)\.(\w+)"\}$', dynamic, re.MULTILINE).groups()
    assert getattr(importlib.import_module(module), name) == oriflag.__version__


def test_console_script_entry_point_prints_the_version(capsys, monkeypatch):
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    scripts = pyproject.split("[project.scripts]", 1)[1]
    target = re.search(r'^oriflag = "([\w.]+):(\w+)"$', scripts, re.MULTILINE)
    entry_point = getattr(importlib.import_module(target.group(1)), target.group(2))
    monkeypatch.setattr(sys, "argv", ["oriflag", "--version"])
    with pytest.raises(SystemExit) as exit_:
        entry_point()
    assert exit_.value.code == 0
    assert capsys.readouterr().out == f"oriflag {oriflag.__version__}\n"
