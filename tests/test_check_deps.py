"""tools/check_deps.py: declared dependencies match what src/ imports."""

import importlib.util
import os

import pytest

pytest.importorskip("tomllib")

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_tool():
    spec = importlib.util.spec_from_file_location(
        "check_deps", os.path.join(ROOT, "tools", "check_deps.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_this_repository_declares_what_it_imports():
    assert load_tool().problems(ROOT) == []


def test_undeclared_and_unused_dependencies_are_reported(tmp_path):
    (tmp_path / "pyproject.toml").write_text(
        '[project]\nname = "pkg"\ndependencies = ["numpy>=1.20", "Py-Thing"]\n')
    pkg = tmp_path / "src" / "pkg"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text(
        "import os\nimport py_thing\nfrom scipy.sparse import csr_matrix\n"
        "from . import sub\nfrom pkg import sub\n")
    found = load_tool().problems(str(tmp_path))
    assert len(found) == 2
    assert "imports 'scipy'" in found[0]
    assert "declares 'numpy'" in found[1]
