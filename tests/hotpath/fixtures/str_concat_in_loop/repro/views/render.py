from ..common.contracts import cost, hot_path


@hot_path
@cost("O(n)")
def render_rows(rows):
    payload = ""
    for row in rows:
        payload += repr(row)
    return payload
