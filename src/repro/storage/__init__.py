"""Page-oriented storage: device, component files, buffer cache, I/O statistics."""

from .buffer_cache import BufferCache
from .device import ComponentFile, StorageDevice
from .stats import IOStats

__all__ = ["BufferCache", "ComponentFile", "IOStats", "StorageDevice"]
