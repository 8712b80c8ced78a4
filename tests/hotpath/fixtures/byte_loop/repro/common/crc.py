"""The table-driven CRC-32 the product carried until its checksum
became ``zlib.crc32``: one Python-level iteration per byte of every
record the append log framed."""

_POLY = 0xEDB88320


def _build_table() -> tuple[int, ...]:
    table = []
    for byte in range(256):
        crc = byte
        for _ in range(8):
            if crc & 1:
                crc = (crc >> 1) ^ _POLY
            else:
                crc >>= 1
        table.append(crc)
    return tuple(table)


_TABLE = _build_table()


def crc32(data: bytes, value: int = 0) -> int:
    crc = value ^ 0xFFFFFFFF
    for byte in data:
        crc = _TABLE[(crc ^ byte) & 0xFF] ^ (crc >> 8)
    return crc ^ 0xFFFFFFFF
