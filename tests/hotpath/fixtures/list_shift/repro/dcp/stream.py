from ..common.contracts import hot_path


@hot_path
def drain(pending):
    messages = []
    while pending:
        messages.append(pending.pop(0))
    return messages
