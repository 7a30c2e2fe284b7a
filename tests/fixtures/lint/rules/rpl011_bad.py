"""Bad: threading locks held across a suspension point."""

import asyncio
import threading

_lock = threading.Lock()


async def update(registry, key, value):
    with _lock:
        registry[key] = value
        await asyncio.sleep(0)


class Registry:
    def __init__(self):
        self._state_lock = threading.Lock()
        self._items = {}

    async def put(self, key, value):
        with self._state_lock:
            self._items[key] = await fetch(key, value)


async def refresh(registry, key):
    with threading.Lock():
        registry[key] = await fetch(key, None)


async def fetch(key, value):
    return value
