from ..common.contracts import hot_path


@hot_path
def render_rows(rows):
    payload = ""
    for row in rows:
        payload += repr(row)
    return payload
