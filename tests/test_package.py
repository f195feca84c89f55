import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import coldspin


def test_every_export_is_its_defining_module_object():
    for name in coldspin.__all__:
        value = getattr(coldspin, name)
        assert getattr(importlib.import_module(value.__module__), name) is value, name
    # one home per name: experiment no longer re-exports scandata's names
    experiment = importlib.import_module("coldspin.experiment")
    for name in ("read_scan_csv", "write_scan_csv"):
        assert not hasattr(experiment, name), name


def test_dir_lists_every_export():
    assert set(coldspin.__all__) <= set(dir(coldspin))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        coldspin.no_such_name  # noqa: B018
    assert not hasattr(coldspin, "np")


def test_submodules_load_on_access():
    assert coldspin.analysis is importlib.import_module("coldspin.analysis")


def test_import_loads_no_numpy():
    code = (
        "import sys, coldspin; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(coldspin.__file__).parents[1])}
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert result.stdout.strip() == "[]"
