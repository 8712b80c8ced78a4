from ..common.contracts import cost, hot_path


@hot_path
@cost("O(n)")
def drain(pending):
    messages = []
    while pending:
        messages.append(pending.pop(0))
    return messages
