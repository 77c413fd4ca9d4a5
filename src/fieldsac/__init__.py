"""Vector-reward soft actor-critic on a point-mass velocity-field task.

The package is a plain numpy library: a small reverse-mode gradient
engine (`nn`), a squashed-Gaussian policy head (`policy`), the reward
vocabulary (`rewards`), a seedable point-mass environment (`env`),
prioritized overlapping-segment replay (`replay`), the learner math
(`sac`), teacher-to-student distillation (`distill`) and the sampler /
learner pipeline plus CLI (`pipeline`, `cli`).
"""

__version__ = "0.1.0"


def _tune_allocator() -> None:
    # Page faults on freshly mapped memory are disproportionately expensive
    # in containerized runtimes; keep large buffers on the heap and never
    # trim it, so steady-state training reuses memory instead of faulting.
    # Measured on 2 vCPUs, three alternating pairs of full-scale finetune
    # stages (seed 7) in separate processes: learner-step medians of
    # 417/412/418 ms with these two calls against 416/455/429 ms without,
    # stage wall 8.0-8.3 s against 8.5-9.0 s, process peak RSS 202-203 MB
    # against 195-203 MB.
    # One arena: the worker lane of ``nn`` (``nn._lane``) then allocates
    # from the same heap, instead of faulting in heaps of its own that add
    # to the peak RSS.
    import ctypes

    try:
        libc = ctypes.CDLL("libc.so.6")
        libc.mallopt(-3, 1 << 30)  # M_MMAP_THRESHOLD
        libc.mallopt(-1, 1 << 30)  # M_TRIM_THRESHOLD
        libc.mallopt(-8, 1)  # M_ARENA_MAX
    except (OSError, AttributeError):
        pass


_tune_allocator()
