from ..common.contracts import hot_path
from ..common.crc import crc32


@hot_path
def frame(record_type: int, body: bytes) -> bytes:
    checksum = crc32(body)
    return bytes([record_type]) + checksum.to_bytes(4, "big") + body
