import hashlib
import json


# repro-lint: disable=RPL014 -- fixture: key is version-independent by design
def counts_key(payload: dict) -> str:
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()
