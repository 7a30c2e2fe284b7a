import threading


class Sched:
    def __init__(self) -> None:
        self.states: dict[str, str] = {}   # __init__ is exempt: not shared yet
        self.results: dict[str, dict] = {}
        self._lock = threading.Lock()
        self.notes: list[str] = []

    def settle(self, job: str, result: dict) -> None:
        with self._lock:
            self.results[job] = result
            self.states[job] = "done"

    def annotate(self, note: str) -> None:
        self.notes.append(note)            # not a guarded attribute

    async def settle_async(self, job: str, result: dict) -> None:
        async with self._lock:
            self.results[job] = result
