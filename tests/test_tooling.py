"""The benchmark's span tracer against the library it wraps.

``perfbench/tracing.py`` looks library names up with ``getattr`` and
rebuilds representation specs with ``dataclasses.replace``; a rename or a
changed spec field in the library breaks ``perfbench/run.py --trace 1``.
The tracer patches module attributes, so it runs in its own process; the
engine's worker threads must not call what it wraps.
A memory guard keeps the bundled exotic grid from growing an eager node
or weight array again, an ``ast`` scan keeps the transform modules off the
whole-grid weights, another stands in for a linter's unused-import check,
another keeps ``cli.main`` the CLI's one error boundary, the README's
command synopsis is checked against the parser, and fresh processes check
what importing the package and the CLI loads.
"""

import argparse
import ast
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import groupwave

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import sys
import threading
sys.path.insert(0, {perfbench!r})
import tracing
from groupwave import configs, groups, induced, measures, representations, states, transforms

tracer = tracing.Tracer()
tracer.install()
tracer.active = True
gab = configs.gabor_setup()
aff = configs.affine_setup()
ex = configs.exotic_setup()
psi = gab.states["gauss"]
res = transforms.analyze(gab.rep, psi, psi,
                         groups.haar_grid(gab.group, [(-2, 2)] * 3, [4, 8, 8]))
s_sym = representations.projective_from_section(gab.rep, gab.section_prime)
transforms.analyze(s_sym, psi, psi, groups.haar_grid(gab.x_group, [(-2, 2)] * 2, [8, 8]))
lift = representations.lift_to_extension(gab.proj)
res = transforms.analyze(lift, psi, psi, groups.haar_grid(lift.group, [(-2, 2)] * 3, [4, 8, 8]),
                         dm_norm=1.0)
transforms.synthesize(res, lift, psi)
x_grid = groups.haar_grid(gab.x_group, [(-2, 2)] * 2, [8, 8])
induced.R_chi_s(gab.section, [0.3, 0.5, -0.2], res.coefficients[:64].reshape(8, 8), x_grid)
transforms.duflo_moore("affine").norm_of(psi)
states.save_state_csv({outdir!r} + "/psi.csv", psi)
transforms.save_result_csv({outdir!r} + "/coef", res)
slabs = [groups.haar_grid(aff.group, [(b, b + 2.0), (0.5, 2.0)], [8, 8], log_axes=(1,))
         for b in (-2.0, 0.0)]
transforms.admissibility(aff.rep, aff.states["morlet"], slabs)
measures.center_divergence_probe(gab.rep, gab.subgroup, psi, psi, [1.0, 2.0], x_grid)
tracer.active = False
metrics = tracing.per_module_metrics(tracing.summarize([tracer.spans]), {{}})
assert metrics["transforms.per_node_share"] == 0, metrics["transforms.per_node_share"]
assert metrics["transforms.analyze.nodes"] == 2 * 256 + 64, metrics["transforms.analyze.nodes"]
assert metrics["transforms.duflo_moore.calls"] == 1, metrics["transforms.duflo_moore.calls"]
assert metrics["cli.csv_bytes_written"] > 0, metrics["cli.csv_bytes_written"]


def ancestors(span):
    parent = span[3]
    while parent >= 0:
        yield tracer.spans[parent][0]
        parent = tracer.spans[parent][3]


translates = [span for span in tracer.spans if span[0] == "states.translate"]
assert translates, "the script makes no translate call to look at"
for span in translates:
    assert not set(ancestors(span)) & {{"transforms.analyze", "transforms.synthesize"}}, span
# the integrals over coefficients stream them, never analyzing a grid
streamed = {{"transforms.admissibility", "transforms.calibrate_affine_dm",
            "transforms.reproduce_check", "transforms.mod_K_equiv_check",
            "measures.center_divergence_probe"}}
ran = {{span[0] for span in tracer.spans}}
assert {{"transforms.admissibility", "measures.center_divergence_probe"}} <= ran, ran
for span in tracer.spans:
    if span[0] in ("transforms.analyze", "representations.fast_coefficients"):
        assert not set(ancestors(span)) & streamed, (span[0], sorted(set(ancestors(span))))
# one exotic analyze of 16 engine blocks and 5 energy blocks, inline and
# then on two threads: the tasks touch only numpy and the grid's slab
# weights, so the two runs record the same spans
representations.CHUNK = 1024
groups.BLOCK = 80
small = groups.haar_grid(ex.x_group, [(-3, 3), (-2, 2), (-3, 3), (0.5, 2.0)], [5, 4, 5, 4],
                         log_axes=(3,))
contract, threads, counts = representations._contract, set(), []
representations._contract = lambda *args: threads.add(threading.current_thread()) or contract(*args)
resample, resample_threads = representations.axis_resample, set()
representations.axis_resample = (
    lambda *args: resample_threads.add(threading.current_thread()) or resample(*args))
slab_weights, weight_threads = groups.QuadratureGrid.slab_weights, set()
groups.QuadratureGrid.slab_weights = (
    lambda *args: weight_threads.add(threading.current_thread()) or slab_weights(*args))
tracer.active = True
for workers in (1, 2):
    representations._workers = lambda: workers
    representations._dictionary_block.cache_clear()  # both runs dilate psi
    start = len(tracer.spans)
    transforms.analyze(ex.proj, ex.states["psi"], ex.states["phi"], small)
    run = [span[0] for span in tracer.spans[start:]]
    counts.append((run.count("transforms.analyze"), run.count("states.axis_resample")))
tracer.active = False
assert threads - {{threading.main_thread()}}, "the second run did not use threads"
assert weight_threads - {{threading.main_thread()}}, "the energy pass did not use threads"
assert resample_threads == {{threading.main_thread()}}, resample_threads
assert counts[0] == counts[1] == (1, 4), counts
names = sorted({{span[0] for span in tracer.spans}})
print(" ".join(names))
"""


def test_tracer_installs_and_traces_analyze(tmp_path):
    """Also: twisted-section and lift transforms make no per-node calls,
    no ``states.translate`` runs inside ``analyze`` or ``synthesize`` (the
    engine translates by Fourier-side phases, so ``states.translate.calls``
    counts only the literal actions and ``R_chi_s``), no ``analyze`` or
    ``fast_coefficients`` runs inside the integrals that stream their
    coefficients (admissibility and the centre divergence probe run here),
    R_chi_s runs through the traced left_reg_m, and the Duflo-Moore factory
    and both CSV writers are traced under their benchmark names."""
    src = str(Path(groupwave.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT.format(perfbench=str(ROOT / "perfbench"), outdir=str(tmp_path))],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    names = set(proc.stdout.split())
    for name in ("configs.gabor_setup", "configs.affine_setup", "configs.exotic_setup",
                 "transforms.analyze", "representations.fast_coefficients",
                 "induced.R_chi_s", "induced.left_reg_m", "transforms.duflo_moore",
                 "states.fourier_plancherel", "states.inverse_fourier_plancherel",
                 "states.save_state_csv", "transforms.save_result_csv"):
        assert name in names, (name, sorted(names))


def _printed_after(imports: str, expression: str) -> list[str]:
    """The printed words of ``expression`` in a fresh process that has
    imported ``sys`` and ``imports``."""
    src = str(Path(groupwave.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys, {imports}; print({expression})"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def _after_cli_import(expression: str) -> list[str]:
    """The printed words of ``expression`` in a fresh process that has
    imported ``groupwave.cli`` (and ``sys`` and ``groupwave.states``)."""
    return _printed_after("groupwave.cli, groupwave.states", expression)


SUBMODULES = "*sorted(m for m in sys.modules if m.startswith('groupwave.'))"


def test_cli_import_leaves_thread_pool_unimported():
    """``concurrent.futures`` (about 9 ms to import without bytecode caches)
    is imported by the first engine call that runs blocks on threads,
    never by importing the CLI, so a fresh CLI process starts without it."""
    assert _after_cli_import("'concurrent.futures' in sys.modules") == ["False"]


def test_cli_import_leaves_multiprocessing_unimported():
    """``multiprocessing`` is imported when ``verify`` first forks a suite
    child, never by importing the CLI, so ``analyze`` and ``synthesize``
    processes start without it."""
    assert _after_cli_import("'multiprocessing' in sys.modules") == ["False"]


def test_package_import_loads_no_submodule():
    """``groupwave/__init__.py`` re-exports nothing, so importing the
    package imports none of its modules."""
    assert _printed_after("groupwave", SUBMODULES) == []


def test_cli_import_leaves_verify_induced_and_measures_unimported():
    """``cli`` imports ``verify`` in ``cmd_verify`` and ``measures`` in
    ``cmd_report``, so an ``analyze`` or ``synthesize`` process never loads
    the suites, the induced representations or the measure densities."""
    loaded = _printed_after("groupwave.cli", SUBMODULES)
    assert "groupwave.cli" in loaded
    assert {"groupwave.verify", "groupwave.induced", "groupwave.measures"} & set(loaded) == set()


def test_cli_import_builds_no_csv_text_tables():
    """The CSV text kernel's tables (10^k, the digit table, the layouts)
    are built on first use, never by importing the CLI, so a fresh process
    that writes no CSV pays nothing for them."""
    sizes = ", ".join(f"groupwave.states.{name}.cache_info().currsize"
                      for name in ("_pow10", "_digit_table", "_layouts"))
    assert _after_cli_import(sizes) == ["0", "0", "0"]


def test_exotic_setup_memory_peak():
    """The bundled exotic X grid (2.9 M nodes) keeps its axes and the
    factors of its weights, neither an eager node array nor an eager weight
    array: the traced peak of building the configuration stays far below
    the 93 MB that the node array alone would add."""
    from groupwave import configs

    tracemalloc.start()
    try:
        setup = configs.exotic_setup()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "nodes" not in vars(setup.x_grid)
    assert "weights" not in vars(setup.x_grid)
    assert peak < 64e6, peak


def _unused_imports(path: Path) -> list[str]:
    """Names bound by an import in ``path`` that no expression reads."""
    tree = ast.parse(path.read_text(), str(path))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(imported - read)


def test_hot_path_modules_never_read_grid_weights():
    """``transforms``, ``representations`` and ``induced`` take Haar weights
    and nodes slab by slab (``QuadratureGrid.slab_weights`` and
    ``slab_nodes``); none reads a grid's lazy whole-array ``weights`` or
    ``nodes``, which once built stay on the grid (23.6 MB and 94 MB on the
    bundled exotic one), nor the retired ``node_blocks``."""
    for name in ("transforms", "representations", "induced"):
        path = ROOT / "src" / "groupwave" / f"{name}.py"
        reads = [(node.lineno, node.attr)
                 for node in ast.walk(ast.parse(path.read_text(), str(path)))
                 if isinstance(node, ast.Attribute)
                 and node.attr in ("weights", "nodes", "node_blocks")]
        assert reads == [], (name, reads)


def test_no_unused_imports():
    """Every imported name in the tests and the library is read."""
    paths = sorted(ROOT.glob("tests/*.py")) + sorted(ROOT.glob("src/groupwave/*.py"))
    assert len(paths) > 20
    unused = {str(p.relative_to(ROOT)): names for p in paths if (names := _unused_imports(p))}
    assert unused == {}


def _readme_synopsis() -> dict:
    """The ``--flags`` of each command in README's "Command line" synopsis,
    each with its choices (the ``a|b`` word after it) or None."""
    text = (ROOT / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```")[1]
    flags, command = {}, None
    for line in block.splitlines():
        words = line.split()
        if words[:1] == ["groupwave"]:
            command = words[1]
        if command is not None:
            for flag, value in re.findall(r"(--[a-z][a-z-]*)(?: ([^\s\[\]]+))?", line):
                choices = set(value.split("|")) if "|" in value else None
                flags.setdefault(command, {})[flag] = choices
    return flags


def test_readme_synopsis_matches_parser():
    """Every flag of the README synopsis is a parser option of its command,
    every parser option (``--help`` aside) is in the synopsis, and each
    shows exactly the option's choices."""
    from groupwave.cli import build_parser

    commands = next(a for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    options = {name: {flag: set(action.choices) if action.choices else None
                      for action in sub._actions for flag in action.option_strings
                      if flag.startswith("--") and flag != "--help"}
               for name, sub in commands.items()}
    assert _readme_synopsis() == options


def test_cli_main_is_the_only_error_boundary():
    """No function of ``cli.py`` but ``main`` catches ValueError or OSError:
    ``main`` maps both to exit 2, and a second handler would be a copy."""
    tree = ast.parse((ROOT / "src" / "groupwave" / "cli.py").read_text())
    catching = set()
    for function in ast.walk(tree):
        if not isinstance(function, ast.FunctionDef):
            continue
        for node in ast.walk(function):
            for handler in getattr(node, "handlers", []):
                caught = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
                if {"ValueError", "OSError"} & {getattr(c, "id", None) for c in caught}:
                    catching.add(function.name)
    assert catching == {"main"}
