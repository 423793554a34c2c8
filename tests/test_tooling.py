"""The demos and the benchmark reach into emorl by name; a deletion or a
rename in the package must not leave them pointing at nothing."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

import emorl

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted([*ROOT.glob("demos/*.py"), *ROOT.glob("bench/*.py")])


def emorl_imports(path: Path) -> list[tuple[str, str | None]]:
    "Every (module, name) the script imports from emorl; name is None for a plain `import`."
    out = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] == "emorl":
            out += [(node.module, alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            out += [(alias.name, None) for alias in node.names if alias.name.split(".")[0] == "emorl"]
    return out


def test_the_scripts_are_found():
    assert any(p.parent.name == "demos" for p in SCRIPTS) and any(p.parent.name == "bench" for p in SCRIPTS)


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_name_a_script_imports_from_emorl_exists(path):
    for module, name in emorl_imports(path):
        found = importlib.import_module(module)
        if name is not None:
            assert hasattr(found, name) or importlib.util.find_spec(f"{module}.{name}"), f"{module}.{name}"


def test_every_traced_lookup_site_resolves():
    spec = importlib.util.spec_from_file_location("bench_spans", ROOT / "bench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    sites = spans.lookup_sites(emorl)
    assert sites
    missing = [f"{owner.__name__}.{attr}" for pairs in sites.values() for owner, attr in pairs if not hasattr(owner, attr)]
    assert not missing
