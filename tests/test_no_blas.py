"""The library makes no BLAS calls.

numpy hands matrix products (``@``, ``np.dot``, ``np.matmul``,
``np.tensordot``) to BLAS, whose threads cost more than they save on the
small products here and make timings depend on ``OPENBLAS_NUM_THREADS``.
Every module of the package is parsed and none may form such a product.
"""

from __future__ import annotations

import ast
from pathlib import Path

import moritactx

BLAS_CALLS = {"dot", "matmul", "tensordot"}


def _blas_uses(tree: ast.AST) -> list[int]:
    """Line of each ``@`` product and each np/numpy BLAS call in ``tree``."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            lines.append(node.lineno)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr in BLAS_CALLS and isinstance(node.func.value, ast.Name)
              and node.func.value.id in ("np", "numpy")):
            lines.append(node.lineno)
    return sorted(lines)


def test_the_guard_sees_each_form():
    source = "a @ b\na @= b\nnp.dot(a, b)\nnumpy.matmul(a, b)\nnp.tensordot(a, b)\na.sum()\n"
    assert _blas_uses(ast.parse(source)) == [1, 2, 3, 4, 5]


def test_no_module_makes_a_blas_call():
    sources = sorted(Path(moritactx.__file__).parent.glob("*.py"))
    assert len(sources) > 10
    found = {path.name: lines for path in sources
             if (lines := _blas_uses(ast.parse(path.read_text(encoding="utf-8"))))}
    assert found == {}
