from ..common.contracts import hot_path
from .compile import compile_expr


@hot_path
def project_rows(rows, expr):
    out = []
    for row in rows:
        fn = compile_expr(expr)
        out.append(fn(row))
    return out
