"""The demos and the benchmark reach into emorl by name; a deletion or a
rename in the package must not leave them pointing at nothing, and the
quick demos must run to the end."""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
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


@pytest.mark.parametrize(
    "name", ["01_networks_and_gradients", "02_text_pipeline", "03_scope_and_emotion", "04_online_reinforce"]
)
def test_demo_runs_to_the_end(name, tmp_path):
    pythonpath = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / f"{name}.py")],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": pythonpath},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr


def traced_lookup_sites() -> dict:
    "`bench/spans.py`'s lookup sites in emorl: span name -> (module or class, attribute) pairs."
    spec = importlib.util.spec_from_file_location("bench_spans", ROOT / "bench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.lookup_sites(emorl)


def test_every_traced_lookup_site_resolves():
    sites = traced_lookup_sites()
    assert sites
    missing = [f"{owner.__name__}.{attr}" for pairs in sites.values() for owner, attr in pairs if not hasattr(owner, attr)]
    assert not missing


def test_the_tracer_sees_every_call_of_the_environment_layers(monkeypatch):
    # the per-layer benchmark counts the generator where bench/spans.py wraps
    # it; a loop that reached the generator by another name would leave those
    # spans silently empty
    from emorl.harness import ExperimentConfig, run_online

    sites = traced_lookup_sites()
    calls = {"envsim.respond": 0, "envsim.generate_email": 0}

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    for name in calls:
        for owner, attr in sites[name]:
            monkeypatch.setattr(owner, attr, counting(name, getattr(owner, attr)))
    config = ExperimentConfig(interactions=60, eval_every=30, window=30, eval_size=10, seeds=(1,))
    run_online(config, 1)
    assert calls["envsim.respond"] == config.interactions
    assert calls["envsim.generate_email"] >= config.interactions


def test_the_tracer_sees_every_scoring_of_the_learned_loop(trained_scope, trained_emotion, monkeypatch):
    # the learned loop scores each served email and each reply where
    # bench/spans.py wraps scope.scope, and the eval set once
    from emorl.harness import ExperimentConfig, run_online

    calls = []
    for owner, attr in traced_lookup_sites()["scope.scope"]:
        real = getattr(owner, attr)
        monkeypatch.setattr(owner, attr, lambda *args, real=real, **kwargs: calls.append(1) or real(*args, **kwargs))
    config = ExperimentConfig(channel="learned", interactions=60, eval_every=30, window=30, eval_size=10, seeds=(1,))
    run_online(config, 1, scope_model=trained_scope, emotion_model=trained_emotion)
    assert len(calls) == 2 * config.interactions + config.eval_size


def test_the_package_and_its_metadata_carry_one_version():
    # every manifest.json records emorl.__version__
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as f:
        assert tomllib.load(f)["project"]["version"] == emorl.__version__


TRACER_MARK = "the benchmark's span tracer wraps it at this name"


def test_imports_kept_for_the_tracer_are_exactly_its_unused_lookup_sites():
    # a module may import a name it does not use only because the tracer
    # wraps the function there; such an import says so, and says so only then
    sites = {(owner.__name__, attr) for pairs in traced_lookup_sites().values() for owner, attr in pairs}
    marked, unused = set(), set()
    for path in sorted((ROOT / "src" / "emorl").glob("*.py")):
        module = "emorl" if path.stem == "__init__" else f"emorl.{path.stem}"
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        tree = ast.parse(source)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    name = alias.asname or alias.name
                    if TRACER_MARK in lines[alias.lineno - 1]:
                        marked.add((module, name))
                    if name not in used:
                        unused.add((module, name))
    assert marked, "no import carries the tracer's mark"
    assert marked <= sites, sorted(marked - sites)
    assert sites & unused <= marked, sorted(sites & unused - marked)


def test_no_module_imports_a_private_name_from_another():
    # a name two modules need is public in the one that defines it; a dunder such as __version__ is public
    private = []
    for path in sorted((ROOT / "src" / "emorl").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.level or node.module.split(".")[0] == "emorl"):
                names = [alias.name for alias in node.names]
                private += [f"{path.name}: {n}" for n in names if n.startswith("_") and not n.startswith("__")]
    assert not private


def test_readme_names_exactly_the_cli_subcommands():
    import argparse
    import re

    from emorl.cli import _build_parser

    (sub,) = [a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    named = set(re.findall(r"(?:^|`)emorl ([a-z][a-z-]*)", (ROOT / "README.md").read_text(encoding="utf-8"), re.M))
    assert named == set(sub.choices)


def test_every_emorl_name_the_readme_dots_resolves():
    # `module.name` or `Class.name` in backticks, where module is an emorl
    # module or Class an emorl class: a rename or a deletion must take the note with it
    import inspect
    import pkgutil
    import re

    owners = {m.name: importlib.import_module(f"emorl.{m.name}") for m in pkgutil.iter_modules(emorl.__path__)}
    for module in list(owners.values()):
        owners.update(
            (name, obj) for name, obj in vars(module).items() if inspect.isclass(obj) and obj.__module__.startswith("emorl.")
        )
    prose = re.sub(r"```.*?```", "", (ROOT / "README.md").read_text(encoding="utf-8"), flags=re.S)
    spans = re.findall(r"`([^`]+)`", prose)
    dotted = {m.groups() for span in spans if (m := re.match(r"([A-Za-z_]\w*)\.([A-Za-z_]\w*)", span)) and m[1] in owners}
    assert len(dotted) >= 5
    assert not sorted(f"{owner}.{name}" for owner, name in dotted if not hasattr(owners[owner], name))


def test_example_config_shows_every_key_at_its_default(tmp_path, monkeypatch):
    import configparser
    import inspect

    from emorl import cli
    from emorl.emotion import train_emotion
    from emorl.harness import SECTIONS, ExperimentConfig, load_config_file
    from emorl.scope import ScopeModel, train_scope

    path = ROOT / "configs" / "example.ini"
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    parser.read(path, encoding="utf-8")
    shown = {(section, key) for section in parser.sections() for key in parser[section]}
    assert shown == {(section, key) for section, keys in SECTIONS.items() for key in keys} - {("generator", "intent_prior")}

    loaded = load_config_file(path)
    assert loaded["experiment"] == ExperimentConfig()
    stages = loaded["stages"]
    for section, callees in (("scope", (ScopeModel, train_scope)), ("emotion", (train_emotion,))):
        defaults = {name: p.default for fn in callees for name, p in inspect.signature(fn).parameters.items()}
        assert stages[section] == {key: defaults[key] for key in stages[section]}, section

    # gen-data's corpus size when neither --n nor [data] sets it
    sizes = []
    monkeypatch.setattr(cli, "build_offline_corpus", lambda config, rng, n: sizes.append(n) or [])
    bare = tmp_path / "bare.ini"
    bare.write_text("[online]\nseeds = 1\n", encoding="utf-8")
    assert cli.main(["gen-data", "--config", str(bare), "--out", str(tmp_path / "corpus.jsonl")]) == 0
    assert stages["data"] == {"n": sizes[0]}


def test_the_example_config_runs_the_grid(tmp_path):
    # configs/example.ini with only its budget cut down: the multilabel cells
    # get its multiclass pretrain_intent_weights
    from emorl.cli import main

    budget = dict(interactions=40, eval_every=20, window=20, eval_size=10, seeds=1, pretrain_size=12, pretrain_epochs=2)
    lines, section, cut = [], None, set()
    for line in (ROOT / "configs" / "example.ini").read_text(encoding="utf-8").splitlines():
        if line.startswith("["):
            section = line.strip("[]")
        key = line.split("=")[0].strip()
        if section == "online" and key in budget:
            line = f"{key} = {budget[key]}"
            cut.add(key)
        lines.append(line)
    assert cut == set(budget)
    config = tmp_path / "example.ini"
    config.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["run-grid", "--config", str(config), "--run-dir", str(tmp_path / "grid")]) == 0
    header, *rows = (tmp_path / "grid" / "report.csv").read_text(encoding="utf-8").splitlines()
    assert len(rows) == 12
