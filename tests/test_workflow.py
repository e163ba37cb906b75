"""The inline Python steps of ``.github/workflows/tier1.yml`` still run.

Those steps are informational (``continue-on-error``), so a script that a
renamed or deleted library function breaks would not fail CI.  This test
compiles each ``python … <<'EOF'`` script, and each string such a script
runs through ``[sys.executable, "-c", …]``, and checks that every name it
imports from ``balpack`` exists, and every attribute it reads from an
imported ``balpack`` module.
"""

import ast
import contextlib
import importlib
import pathlib
import textwrap
import types

WORKFLOW = pathlib.Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tier1.yml"


def heredoc_scripts(text):
    """(step name, script) for each ``python … <<'EOF'`` heredoc, dedented."""
    lines = text.splitlines()
    scripts = []
    step = None
    for i, line in enumerate(lines):
        stripped = line.strip()
        if stripped.startswith("- name:"):
            step = stripped[len("- name:"):].strip()
        elif "python -" in stripped and stripped.endswith("<<'EOF'"):
            end = next(j for j in range(i + 1, len(lines)) if lines[j].strip() == "EOF")
            scripts.append((step, textwrap.dedent("\n".join(lines[i + 1:end]))))
    return scripts


def inline_scripts(tree):
    """(name, source) for each string the script runs through
    ``[sys.executable, "-c", <string>, …]``: a literal, named ``-c``, or a
    name bound to one."""
    strings = {target.id: node.value.value for node in ast.walk(tree)
               if isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant)
               and isinstance(node.value.value, str)
               for target in node.targets if isinstance(target, ast.Name)}
    scripts = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.List) and len(node.elts) >= 3
                and list(map(ast.unparse, node.elts[:2])) == ["sys.executable", "'-c'"]):
            code = node.elts[2]
            if isinstance(code, ast.Name):
                scripts.append((code.id, strings[code.id]))
            else:
                scripts.append(("-c", code.value))
    return scripts


def missing_balpack_names(tree):
    """Each ``module.name`` the script imports or reads that does not exist."""
    missing = []
    bound = {}  # local name -> the balpack module it is bound to
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "balpack":
            module = importlib.import_module(node.module)
            for alias in node.names:
                if not hasattr(module, alias.name):  # ``from package import module`` loads it
                    with contextlib.suppress(ModuleNotFoundError):
                        importlib.import_module(f"{node.module}.{alias.name}")
                if not hasattr(module, alias.name):
                    missing.append(f"{node.module}.{alias.name}")
                elif isinstance(getattr(module, alias.name), types.ModuleType):
                    bound[alias.asname or alias.name] = getattr(module, alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "balpack":
                    importlib.import_module(alias.name)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in bound and not hasattr(bound[node.value.id], node.attr)):
            missing.append(f"{bound[node.value.id].__name__}.{node.attr}")
    return missing


def test_workflow_scripts_compile_and_name_only_what_exists():
    text = WORKFLOW.read_text()
    scripts = heredoc_scripts(text)
    assert scripts and len(scripts) == text.count("<<'EOF'")
    missing = {}
    inline = 0
    for step, script in scripts:
        tree = compile(script, f"{WORKFLOW.name}: {step}", "exec", ast.PyCF_ONLY_AST)
        compile(tree, f"{WORKFLOW.name}: {step}", "exec")
        missing[step] = missing_balpack_names(tree)
        for name, source in inline_scripts(tree):
            where = f"{WORKFLOW.name}: {step}: {name}"
            inner = compile(textwrap.dedent(source), where, "exec", ast.PyCF_ONLY_AST)
            compile(inner, where, "exec")
            missing[f"{step}: {name}"] = missing_balpack_names(inner)
            inline += 1
    assert inline and inline == text.count('"-c"')
    assert missing == dict.fromkeys(missing, [])
