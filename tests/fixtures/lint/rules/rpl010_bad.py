"""Bad: coroutines that block the event loop with a direct call."""

import time


async def flush_loop():
    time.sleep(0.05)


async def read_config(path):
    with open(path) as f:
        return f.read()
