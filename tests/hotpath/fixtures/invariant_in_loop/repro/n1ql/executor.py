from ..common.contracts import cost, hot_path
from .compile import compile_expr


@hot_path
@cost("O(n)")
def project_rows(rows, expr):
    out = []
    for row in rows:
        fn = compile_expr(expr)
        out.append(fn(row))
    return out
