"""The serial map the stage-2 restage runs through."""

from typing import Any, Callable, Iterable, List


class ParallelExecutor:
    """Exists only as the probe point ``benchmarks/e2e/workload.py``
    wraps as ``linker.restage``; the next benchmark change drops that
    probe and this class together."""

    def map_shared(self, fn: Callable[[Any, Any], Any],
                   items: Iterable[Any], state: Any) -> List[Any]:
        return [fn(state, item) for item in items]
