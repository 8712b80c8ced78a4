from ..common.contracts import cost, hot_path
from ..common.crc import crc32


@hot_path
@cost("O(n)")
def frame(record_type: int, body: bytes) -> bytes:
    checksum = crc32(body)
    return bytes([record_type]) + checksum.to_bytes(4, "big") + body
