"""RPL014: cache-key builder without the ENGINE_VERSION salt."""
import hashlib
import json


def result_key(payload: dict) -> str:
    blob = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()
