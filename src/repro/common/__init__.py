"""Shared substrate: errors, JSON values, documents, virtual time, the
cooperative scheduler, the simulated disk, the in-process network, CRC32
key hashing, and metrics."""

from .clock import Clock, VirtualClock
from .contracts import cost, hot_path
from .crc import crc32, vbucket_for_key
from .disk import DiskStats, SimulatedDisk, SimulatedFile
from .document import Document, DocumentMeta
from .jsonval import (
    JsonValue,
    deep_copy,
    decode,
    encode_canonical,
    get_path,
    is_json_value,
    set_path,
    sizeof,
    unset_path,
    validate_json_value,
)
from .metrics import Counter, Histogram, MetricsRegistry
from .scheduler import Scheduler
from .transport import Network

__all__ = [
    "Clock",
    "Counter",
    "DiskStats",
    "Document",
    "DocumentMeta",
    "Histogram",
    "JsonValue",
    "MetricsRegistry",
    "Network",
    "Scheduler",
    "SimulatedDisk",
    "SimulatedFile",
    "VirtualClock",
    "cost",
    "crc32",
    "decode",
    "deep_copy",
    "encode_canonical",
    "get_path",
    "hot_path",
    "is_json_value",
    "set_path",
    "sizeof",
    "unset_path",
    "validate_json_value",
    "vbucket_for_key",
]
