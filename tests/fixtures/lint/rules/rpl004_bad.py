import threading


class Sched:
    def __init__(self) -> None:
        self.states: dict[str, str] = {}
        self.results: dict[str, dict] = {}
        self._lock = threading.Lock()

        def on_done(job: str) -> None:
            self.states.pop(job, None)   # runs later, outside __init__ and unlocked
        self.on_done = on_done

    def settle(self, job: str, result: dict) -> None:
        self.results[job] = result       # unlocked store
        self.states.pop(job, None)       # unlocked mutating call

    def reset(self) -> None:
        with self._lock:
            def later() -> None:
                self.states.clear()      # nested def does NOT inherit the lock
            later()

    def drop_later(self, job: str):
        with self._lock:
            return lambda: self.states.pop(job, None)  # lambda body runs later, unlocked
