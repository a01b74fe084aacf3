import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_importing_the_package_loads_nothing_and_the_cli_pins_blas_threads():
    # numpy fixes its BLAS thread count when it loads, so ``import dualstyle``
    # must load nothing before ``dualstyle.cli`` sets the thread variables
    script = (
        "import os, sys\n"
        "import dualstyle\n"
        "early = sorted(m for m in sys.modules if m == 'numpy' or m.startswith('dualstyle.'))\n"
        "assert early == [], early\n"
        "import dualstyle.cli\n"
        "assert 'numpy' in sys.modules\n"
        "print(' '.join(os.environ[v] for v in "
        "('OMP_NUM_THREADS', 'OPENBLAS_NUM_THREADS', 'MKL_NUM_THREADS')))\n"
    )
    env = {k: v for k, v in os.environ.items()
           if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    env["DUALSTYLE_THREADS"] = "3"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.split() == ["3", "3", "3"]


def _unused_imports(path: Path) -> list[str]:
    """Names a module imports but never reads (``__future__`` excepted)."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.relative_to(ROOT)}:{line} {name}"
            for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in read]


def test_no_unused_imports():
    files = [path for folder in ("src", "tests", "perfbench")
             for path in sorted((ROOT / folder).rglob("*.py"))]
    assert files
    unused = [hit for path in files for hit in _unused_imports(path)]
    assert unused == []


def _public_defs(tree: ast.Module) -> set[str]:
    """A module's public top-level functions and public class methods."""
    names = set()
    for node in tree.body:
        body = node.body if isinstance(node, ast.ClassDef) else [node]
        names.update(f.name for f in body
                     if isinstance(f, ast.FunctionDef) and not f.name.startswith("_"))
    return names


def _reads(tree: ast.Module) -> set[str]:
    """Every name a module reads, bare (``name``) or as an attribute (``x.name``)."""
    return ({node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)})


def test_every_autodiff_function_has_a_caller_in_the_package():
    trees = [ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted((ROOT / "src" / "dualstyle").glob("*.py"))]
    public = set().union(*map(_public_defs, trees))
    read = set().union(*map(_reads, trees))
    exempt = {
        # helpers for the seed study's report, which splits test scores by
        # gold rewrite and by the lexicon oracle's style label
        "apply_gold", "lexicon_oracle_label",
        # perfbench's dual_rl workload gives each unit fresh warm models
        "clone",
    }
    assert sorted(public - read - exempt) == []
    # a name the package deletes or starts calling must leave the set too
    assert sorted(exempt - public) == [] and sorted(exempt & read) == []


def test_model_weights_are_read_and_written_only_through_checkpoint():
    # ``checkpoint.save_model``/``load_model`` own the weight format and its
    # vocabulary check; no model keeps a second copy of either
    paths = sorted((ROOT / "src" / "dualstyle").glob("*.py"))
    assert paths
    for path in paths:
        text = path.read_text(encoding="utf-8")
        if path.name != "checkpoint.py":
            assert "vocab_hash" not in text, path.name
        defined = {node.name for node in ast.walk(ast.parse(text))
                   if isinstance(node, ast.FunctionDef)}
        assert not defined & {"state_dict", "load_state_dict"}, path.name


def _slow_numpy_calls(tree: ast.Module) -> list[str]:
    """Calls of ``einsum`` or of a ufunc's ``.at`` (``np.add.at``), by line.

    Both bypass BLAS or whole-array loops: an einsum contraction runs
    without a GEMM here, and ``ufunc.at`` adds one element at a time.
    """
    hits = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name == "einsum" or (name == "at" and isinstance(func.value, ast.Attribute)):
            hits.append(f"{node.lineno}: {ast.unparse(func)}")
    return hits


def test_autodiff_kernels_use_no_einsum_or_ufunc_at():
    path = ROOT / "src" / "dualstyle" / "autodiff.py"
    assert _slow_numpy_calls(ast.parse(path.read_text(encoding="utf-8"))) == []
    assert _slow_numpy_calls(ast.parse("np.add.at(a, i, g)\nnp.einsum('ij->j', a)")) == [
        "1: np.add.at", "2: np.einsum"]
