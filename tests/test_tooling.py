"""The benchmark's span tracer against the library it wraps.

``perfbench/tracing.py`` looks library names up with ``getattr`` and
rebuilds representation specs with ``dataclasses.replace``; a rename or a
changed spec field in the library breaks ``perfbench/run.py --trace 1``.
The tracer patches module attributes, so it runs in its own process.
A memory guard keeps the bundled exotic grid from growing an eager node
array again, and an ``ast`` scan stands in for a linter's unused-import
check.
"""

import ast
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import groupwave

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import sys
sys.path.insert(0, {perfbench!r})
import tracing
from groupwave import configs, groups, induced, representations, states, transforms

tracer = tracing.Tracer()
tracer.install()
tracer.active = True
gab = configs.gabor_setup()
configs.affine_setup()
configs.exotic_setup()
psi = gab.states["gauss"]
res = transforms.analyze(gab.rep, psi, psi,
                         groups.haar_grid(gab.group, [(-2, 2)] * 3, [4, 8, 8]))
transforms.analyze(gab.proj_prime, psi, psi,
                   groups.haar_grid(gab.x_group, [(-2, 2)] * 2, [8, 8]))
lift = representations.lift_to_extension(gab.proj)
res = transforms.analyze(lift, psi, psi, groups.haar_grid(lift.group, [(-2, 2)] * 3, [4, 8, 8]),
                         dm_norm=1.0)
transforms.synthesize(res, lift, psi)
x_grid = groups.haar_grid(gab.x_group, [(-2, 2)] * 2, [8, 8])
induced.R_chi_s(gab.section, [0.3, 0.5, -0.2], res.coefficients[:64].reshape(8, 8), x_grid)
transforms.duflo_moore("affine").norm_of(psi)
states.save_state_csv({outdir!r} + "/psi.csv", psi)
transforms.save_result_csv({outdir!r} + "/coef", res)
tracer.active = False
metrics = tracing.per_module_metrics(tracing.summarize([tracer.spans]), {{}})
assert metrics["transforms.per_node_share"] == 0, metrics["transforms.per_node_share"]
assert metrics["transforms.analyze.nodes"] == 2 * 256 + 64, metrics["transforms.analyze.nodes"]
assert metrics["transforms.duflo_moore.calls"] == 1, metrics["transforms.duflo_moore.calls"]
assert metrics["cli.csv_bytes_written"] > 0, metrics["cli.csv_bytes_written"]
translates = [span for span in tracer.spans if span[0] == "states.translate"]
assert translates, "the script makes no translate call to look at"
for span in translates:
    parent = span[3]
    while parent >= 0:
        assert tracer.spans[parent][0] not in ("transforms.analyze", "transforms.synthesize"), \
            tracer.spans[parent][0]
        parent = tracer.spans[parent][3]
names = sorted({{span[0] for span in tracer.spans}})
print(" ".join(names))
"""


def test_tracer_installs_and_traces_analyze(tmp_path):
    """Also: twisted-section and lift transforms make no per-node calls,
    no ``states.translate`` runs inside ``analyze`` or ``synthesize`` (the
    engine translates by Fourier-side phases, so ``states.translate.calls``
    counts only the literal actions and ``R_chi_s``), R_chi_s runs through
    the traced left_reg_m, and the Duflo-Moore factory and both CSV writers
    are traced under their benchmark names."""
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


def test_exotic_setup_memory_peak():
    """The bundled exotic X grid (2.9 M nodes) keeps its axes and weights,
    not an eager node array: the traced peak of building the configuration
    stays far below the 93 MB that array alone would add."""
    from groupwave import configs

    tracemalloc.start()
    try:
        setup = configs.exotic_setup()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "nodes" not in vars(setup.x_grid)
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


def test_no_unused_imports():
    """Every imported name in the tests and the library is read; the
    package ``__init__`` is skipped, its imports are the public re-exports."""
    paths = sorted(ROOT.glob("tests/*.py")) + sorted(ROOT.glob("src/groupwave/*.py"))
    paths = [p for p in paths if p != ROOT / "src" / "groupwave" / "__init__.py"]
    assert len(paths) > 20
    unused = {str(p.relative_to(ROOT)): names for p in paths if (names := _unused_imports(p))}
    assert unused == {}
