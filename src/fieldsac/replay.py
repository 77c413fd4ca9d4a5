"""Prioritized replay over overlapping fixed-length segments.

Segments are runs of SEG_LEN consecutive steps that overlap by half and
never cross episode boundaries.  Each segment also carries the
observation rows and reward rows needed to form full n-step targets at
every trained position, so the learner never reaches outside a segment.

Priorities mix the max and mean of per-step TD magnitudes
(eta * max + (1 - eta) * mean), are stored in a binary sum tree for
O(log n) proportional sampling, and are sharpened by an annealed
exponent alpha.  Importance weights follow (N * P)^-beta, normalized by
the batch maximum.

The store keeps one flat float64 record per slot; that record is both its
memory and its ``fieldsac-replay-v1`` snapshot layout.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NotReadyError
from .rewards import NUM_TERMS

SEG_LEN = 10
SEG_STRIDE = 5

DEFAULT_CAPACITY = 250_000
DEFAULT_ETA = 0.9
PRIORITY_FLOOR = 1e-6


@dataclass(frozen=True)
class AnnealSchedule:
    """Linear ramp used for both priority exponents."""

    start: float = 0.1
    end: float = 0.9
    steps: int = 3000

    def value(self, t: int) -> float:
        return self.start + (self.end - self.start) * min(1.0, t / self.steps)


@dataclass
class Segment:
    """One replay unit.

    ``obs`` has seg_len + n_tail rows (trained steps plus the lookahead
    tail); ``rewards``/``dones`` have seg_len + n_tail - 1 rows so an
    n-step return exists at every trained position; ``actions`` covers
    the seg_len trained positions.  ``length`` counts real (non-padded)
    trained steps; rows past the terminal are padding.
    """

    obs: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray
    dones: np.ndarray
    episode_id: int
    start_index: int
    length: int


def validate_segment(seg: Segment, seg_len: int = SEG_LEN, n_tail: int | None = None) -> None:
    """Reject malformed segments with the reason in the message."""
    L = seg_len
    if seg.actions.ndim != 2 or seg.actions.shape[0] != L:
        raise ConfigError(f"segment rejected: expected {L} action rows, got {seg.actions.shape}")
    tail = seg.obs.shape[0] - L if n_tail is None else n_tail
    if tail < 1 or seg.obs.shape[0] != L + tail:
        raise ConfigError(f"segment rejected: obs rows {seg.obs.shape[0]} do not equal seg_len + tail")
    if seg.rewards.shape != (L + tail - 1, NUM_TERMS):
        raise ConfigError(f"segment rejected: reward rows {seg.rewards.shape} must be ({L + tail - 1}, {NUM_TERMS})")
    if seg.dones.shape != (L + tail - 1,):
        raise ConfigError("segment rejected: dones must align with reward rows")
    if not (1 <= seg.length <= L):
        raise ConfigError(f"segment rejected: length {seg.length} outside [1, {L}]")
    if seg.start_index % SEG_STRIDE != 0:
        raise ConfigError(f"segment rejected: start index {seg.start_index} not a multiple of {SEG_STRIDE}")
    first_done = int(np.argmax(seg.dones)) if seg.dones.any() else None
    if first_done is not None and first_done < seg.length - 1:
        raise ConfigError("segment rejected: episode boundary crossed inside the trained span")
    for name, arr in (("obs", seg.obs), ("actions", seg.actions), ("rewards", seg.rewards)):
        if not np.isfinite(arr).all():
            raise ConfigError(f"segment rejected: non-finite {name}")


class SegmentCutter:
    """Streams segments out of one episode as the steps arrive.

    Feed ``begin(obs0)`` then ``push(action, reward_vec, done, next_obs)``
    per step; ready segments come back from ``push``.  A segment is ready
    once its lookahead tail is observed, or at the terminal step with the
    missing rows padded (obs repeats the terminal observation, rewards
    pad with zeros that the learner masks out).

    Episodes shorter than seg_len emit a single padded segment when they
    have at least seg_len/2 real steps; trailing remainders that are
    already fully covered by the previous segment are dropped.
    """

    def __init__(self, obs_dim: int, act_dim: int, episode_id: int, seg_len: int = SEG_LEN, n_tail: int = 5):
        self.obs_dim = obs_dim
        self.act_dim = act_dim
        self.episode_id = episode_id
        self.seg_len = seg_len
        self.n_tail = n_tail
        self._obs: list[np.ndarray] = []
        self._acts: list[np.ndarray] = []
        self._rews: list[np.ndarray] = []
        self._dones: list[bool] = []
        self._next_start = 0
        self._finished = False

    def begin(self, obs0: np.ndarray) -> None:
        self._obs = [np.asarray(obs0, dtype=np.float64).copy()]

    def push(self, action, reward_vec, done: bool, next_obs) -> list[Segment]:
        if self._finished:
            raise ConfigError("cutter already finished this episode")
        if not self._obs:
            raise ConfigError("begin() must run before push()")
        self._acts.append(np.asarray(action, dtype=np.float64).reshape(self.act_dim).copy())
        self._rews.append(np.asarray(reward_vec, dtype=np.float64).reshape(NUM_TERMS).copy())
        self._dones.append(bool(done))
        self._obs.append(np.asarray(next_obs, dtype=np.float64).reshape(self.obs_dim).copy())
        out: list[Segment] = []
        T = len(self._acts)
        # a full segment starting at s needs obs row s + seg_len + n_tail - 1
        while self._next_start + self.seg_len + self.n_tail - 1 <= T:
            out.append(self._cut(self._next_start, T))
            self._next_start += SEG_STRIDE
        if done:
            out.extend(self._flush(T))
            self._finished = True
        return out

    def _flush(self, T: int) -> list[Segment]:
        out = []
        s = self._next_start
        while s + self.seg_len <= T:  # full-length spans whose tail got truncated
            out.append(self._cut(s, T))
            s += SEG_STRIDE
        if s == 0 and self.seg_len // 2 <= T < self.seg_len:
            out.append(self._cut(0, T))  # short episode: one padded segment
        return out

    def _cut(self, s: int, T: int) -> Segment:
        L, tail = self.seg_len, self.n_tail
        length = min(L, T - s)
        obs = np.empty((L + tail, self.obs_dim))
        n_real_obs = min(L + tail, T - s + 1)
        obs[:n_real_obs] = np.stack(self._obs[s : s + n_real_obs])
        obs[n_real_obs:] = self._obs[min(s + n_real_obs - 1, T)]
        acts = np.zeros((L, self.act_dim))
        acts[:length] = np.stack(self._acts[s : s + length])
        rews = np.zeros((L + tail - 1, NUM_TERMS))
        dns = np.zeros(L + tail - 1, dtype=bool)
        n_real_steps = min(L + tail - 1, T - s)
        rews[:n_real_steps] = np.stack(self._rews[s : s + n_real_steps])
        dns[:n_real_steps] = self._dones[s : s + n_real_steps]
        if self._dones[-1] and s + n_real_steps >= T:
            dns[n_real_steps - 1 :] = True  # keep the terminal flag on padded rows
        return Segment(obs, acts, rews, dns, self.episode_id, s, length)


def segment_priority(td_errors, eta: float = DEFAULT_ETA) -> float:
    """eta * max + (1 - eta) * mean of the TD magnitudes."""
    arr = np.asarray(td_errors, dtype=np.float64)
    if arr.size == 0:
        raise ConfigError("segment_priority needs at least one TD error")
    return float(eta * arr.max() + (1.0 - eta) * arr.mean())


class SumTree:
    """Array-backed binary sum tree over a fixed number of leaves."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ConfigError("sum tree needs positive capacity")
        self.capacity = capacity
        self.leaf_base = 1
        while self.leaf_base < max(2, capacity):
            self.leaf_base *= 2
        self.tree = np.zeros(2 * self.leaf_base)

    def total(self) -> float:
        return float(self.tree[1])

    def leaf(self, idx: int) -> float:
        return float(self.tree[self.leaf_base + idx])

    def leaves(self, idxs) -> np.ndarray:
        return self.tree[self.leaf_base + np.asarray(idxs)]

    def set_many(self, idxs, values) -> None:
        """Leaves ``idxs`` to ``values`` (the last value wins for a repeated
        index), then every changed ancestor, level by level up to the root."""
        pos = np.asarray(idxs, dtype=np.int64) + self.leaf_base
        self.tree[pos] = values
        nodes = np.unique(pos)
        while nodes[0] > 1:
            nodes >>= 1
            # still sorted, so the parents shared by siblings are adjacent repeats
            nodes = nodes[np.concatenate(([True], nodes[1:] != nodes[:-1]))]
            self.tree[nodes] = self.tree[2 * nodes] + self.tree[2 * nodes + 1]

    def rebuild(self, leaf_values: np.ndarray) -> None:
        self.tree[self.leaf_base : self.leaf_base + leaf_values.size] = leaf_values
        self.tree[self.leaf_base + leaf_values.size :] = 0.0
        level = self.leaf_base >> 1
        while level >= 1:
            lo, hi = level, 2 * level
            self.tree[lo:hi] = self.tree[2 * lo : 2 * hi : 2] + self.tree[2 * lo + 1 : 2 * hi : 2]
            level >>= 1

    def find_prefix(self, masses) -> np.ndarray:
        """Vectorized descent: leaf index holding each prefix mass."""
        masses = np.asarray(masses, dtype=np.float64).copy()
        node = np.ones(masses.shape, dtype=np.int64)
        while node[0] < self.leaf_base:
            left = node << 1
            left_sum = self.tree[left]
            go_right = masses >= left_sum
            masses -= np.where(go_right, left_sum, 0.0)
            node = np.where(go_right, left + 1, left)
        return node - self.leaf_base


@dataclass
class SampleBatch:
    """Stacked arrays for one learner batch."""

    obs: np.ndarray  # (B, L + tail, obs_dim)
    actions: np.ndarray  # (B, L, act_dim)
    rewards: np.ndarray  # (B, L + tail - 1, 7)
    dones: np.ndarray  # (B, L + tail - 1)
    lengths: np.ndarray  # (B,)
    ids: list
    weights: np.ndarray  # (B,)


class PrioritizedStore:
    """FIFO ring of segments with proportional prioritized sampling.

    Each slot is one float64 row of ``_rec``: obs, actions, rewards, dones
    as 0/1, then (episode_id, start_index, length).  It is also the slot's
    snapshot record, so ``save`` and ``load`` write and read rows in place.
    Rows are sized from the first segment's widths and grow in place by a
    quarter at a time up to ``capacity``, so no second copy of the rows is
    ever held and at most a quarter of them is empty.
    """

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        alpha: float = 0.1,
        beta: float = 0.1,
        eta: float = DEFAULT_ETA,
        priority_floor: float = PRIORITY_FLOOR,
        seg_len: int = SEG_LEN,
        n_tail: int = 5,
    ):
        if capacity < 1:
            raise ConfigError("store capacity must be positive")
        self.capacity = capacity
        self.alpha = alpha
        self.beta = beta
        self.eta = eta
        self.priority_floor = priority_floor
        self.seg_len = seg_len
        self.n_tail = n_tail
        self._widths = (0, 0)  # (obs_dim, act_dim), fixed by the first append
        self._rec = np.empty((0, 0))
        self._raw_p = np.zeros(capacity)
        self._gen = np.zeros(capacity)  # float64 so the snapshot writes it in place; exact to 2**53
        self._tree = SumTree(capacity)
        self._next = 0
        self._size = 0
        self._max_raw = 0.0
        self.appended_total = 0
        self.evicted_total = 0
        self.stale_updates = 0
        self.clamped_priorities = 0

    def __len__(self) -> int:
        return self._size

    def _field_shapes(self) -> tuple:
        (obs_dim, act_dim), L, tail = self._widths, self.seg_len, self.n_tail
        return ((L + tail, obs_dim), (L, act_dim), (L + tail - 1, NUM_TERMS), (L + tail - 1,), (3,))

    def _grow(self, rows: int) -> None:
        """Resize ``_rec`` to ``rows`` rows in place (realloc), keeping the filled ones.

        No view of ``_rec`` outlives a method call, so no reference check is needed.
        """
        self._rec.resize((rows, sum(math.prod(s) for s in self._field_shapes())), refcheck=False)

    def _fields(self, rows: np.ndarray) -> list[np.ndarray]:
        """Views of record rows: obs, actions, rewards, dones (0/1), keys."""
        out, off = [], 0
        for shape in self._field_shapes():
            n = math.prod(shape)
            out.append(rows[:, off : off + n].reshape(len(rows), *shape))
            off += n
        return out

    def max_priority(self) -> float:
        return self._max_raw if self._size else 1.0

    def append(self, seg: Segment, priority: float | None = None):
        """Store a segment; returns its (slot, generation) id."""
        validate_segment(seg, self.seg_len, self.n_tail)
        if seg.obs.ndim != 2:
            raise ConfigError(f"segment rejected: obs must be 2-D, got shape {seg.obs.shape}")
        widths = (seg.obs.shape[1], seg.actions.shape[1])
        if self._size and widths != self._widths:
            raise ConfigError(f"segment rejected: obs/action widths {widths} differ from the store's {self._widths}")
        self._widths = widths
        raw = float(priority) if priority is not None else (self._max_raw if self._size else 1.0)
        if raw < self.priority_floor:
            if raw < 0.0:
                self.clamped_priorities += 1
            raw = self.priority_floor
        slot = self._next
        if slot < self._size:
            self.evicted_total += 1
        elif slot == len(self._rec):
            self._grow(min(self.capacity, slot + slot // 4 + 1))
        obs, acts, rews, dones, keys = (f[0] for f in self._fields(self._rec[slot : slot + 1]))
        obs[:], acts[:], rews[:], dones[:] = seg.obs, seg.actions, seg.rewards, seg.dones
        keys[:] = seg.episode_id, seg.start_index, seg.length
        self._raw_p[slot] = raw
        self._gen[slot] += 1
        self._tree.set_many([slot], [raw**self.alpha])
        self._next = (self._next + 1) % self.capacity
        self._size = min(self._size + 1, self.capacity)
        self._max_raw = max(self._max_raw, raw)
        self.appended_total += 1
        return (slot, int(self._gen[slot]))

    def segment(self, slot: int) -> Segment:
        """A copy of the segment stored in ``slot``."""
        if not 0 <= slot < self._size:
            raise IndexError(f"slot {slot} is empty; the store holds {self._size} segments")
        obs, acts, rews, dones, (eid, start, length) = (f[0].copy() for f in self._fields(self._rec[slot : slot + 1]))
        return Segment(obs, acts, rews, dones > 0.5, int(eid), int(start), int(length))

    def set_exponents(self, alpha: float, beta: float) -> None:
        """Advance the annealed exponents; re-exponentiates the tree lazily."""
        self.beta = beta
        if alpha != self.alpha:
            self.alpha = alpha
            leaves = np.zeros(self.capacity)
            leaves[: self._size] = self._raw_p[: self._size] ** alpha
            self._tree.rebuild(leaves)

    def _draw_slots(self, n: int, rng: np.random.Generator) -> np.ndarray:
        total = self._tree.total()
        masses = rng.uniform(0.0, total, size=n) * (1.0 - 1e-12)
        slots = self._tree.find_prefix(masses)
        return np.minimum(slots, self._size - 1)

    def sample_slots(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw n slot indices proportionally to priority^alpha.

        Diagnostic surface: unlike ``sample`` it has no batch-readiness
        requirement beyond a non-empty store.
        """
        if self._size == 0:
            raise NotReadyError("store is empty")
        return self._draw_slots(n, rng)

    def sample(self, batch: int, rng: np.random.Generator) -> SampleBatch:
        if self._size < batch:
            raise NotReadyError(f"store holds {self._size} segments; batch needs {batch}")
        slots = self._draw_slots(batch, rng)
        probs = self._tree.leaves(slots) / self._tree.total()
        weights = (self._size * probs) ** (-self.beta)
        weights /= weights.max()
        obs, actions, rewards, dones, keys = self._fields(self._rec[slots])
        return SampleBatch(
            obs=obs,
            actions=actions,
            rewards=rewards,
            dones=dones > 0.5,
            lengths=keys[:, 2].astype(np.int64),
            ids=[(int(s), int(self._gen[s])) for s in slots],
            weights=weights,
        )

    def update_priorities(self, ids, new_priorities) -> None:
        new_priorities = np.asarray(new_priorities, dtype=np.float64)
        slots, values = [], []
        for (slot, gen), raw in zip(ids, new_priorities):
            if self._gen[slot] != gen or slot >= len(self):
                self.stale_updates += 1
                continue
            if raw < self.priority_floor:
                if raw < 0.0:
                    self.clamped_priorities += 1
                raw = self.priority_floor
            slots.append(slot)
            values.append(raw)
        if not slots:
            return
        values = np.asarray(values)
        self._raw_p[slots] = values
        self._tree.set_many(slots, values**self.alpha)
        self._max_raw = max(self._max_raw, float(values.max()))

    def brute_force_total(self) -> float:
        """Oracle: sum of priority^alpha recomputed from scratch."""
        if not self._size:
            return 0.0
        return float((self._raw_p[: self._size] ** self.alpha).sum())

    # -- snapshot: text manifest + one float64 little-endian blob ----------

    def save(self, directory: str) -> tuple[str, str]:
        os.makedirs(directory, exist_ok=True)
        meta = {
            "format": "fieldsac-replay-v1",
            "capacity": self.capacity,
            "size": self._size,
            "next": self._next,
            "alpha": repr(self.alpha),
            "beta": repr(self.beta),
            "eta": repr(self.eta),
            "priority_floor": repr(self.priority_floor),
            "seg_len": self.seg_len,
            "n_tail": self.n_tail,
            "obs_dim": self._widths[0],
            "act_dim": self._widths[1],
            "appended_total": self.appended_total,
            "evicted_total": self.evicted_total,
            "max_raw": repr(self._max_raw),
        }
        man_path = os.path.join(directory, "replay.manifest")
        bin_path = os.path.join(directory, "replay.bin")
        with open(man_path, "w") as f:
            f.write("\n".join(f"{k} = {v}" for k, v in meta.items()) + "\n")
        with open(bin_path, "wb") as f:
            for part in self._blob_parts():
                f.write(part.astype("<f8", copy=False).data)
        return man_path, bin_path

    def _blob_parts(self) -> tuple[np.ndarray, ...]:
        return self._rec[: self._size], self._raw_p[: self._size], self._gen[: self._size]

    @classmethod
    def load(cls, directory: str) -> "PrioritizedStore":
        man_path = os.path.join(directory, "replay.manifest")
        bin_path = os.path.join(directory, "replay.bin")
        if not os.path.exists(man_path):
            raise ConfigError(f"no replay snapshot at {man_path}")
        kv = {}
        with open(man_path) as f:
            for line in f:
                if "=" in line:
                    k, _, v = line.partition("=")
                    kv[k.strip()] = v.strip()
        if kv.get("format") != "fieldsac-replay-v1":
            raise ConfigError("unrecognized replay snapshot format")
        store = cls(
            capacity=int(kv["capacity"]),
            alpha=float(kv["alpha"]),
            beta=float(kv["beta"]),
            eta=float(kv["eta"]),
            priority_floor=float(kv["priority_floor"]),
            seg_len=int(kv["seg_len"]),
            n_tail=int(kv["n_tail"]),
        )
        size, next_slot = int(kv["size"]), int(kv["next"])
        if not 0 <= size <= store.capacity:
            raise ConfigError(f"replay manifest size {size} lies outside [0, capacity {store.capacity}]")
        if not 0 <= next_slot < store.capacity:
            raise ConfigError(f"replay manifest next {next_slot} lies outside [0, capacity {store.capacity})")
        if size < store.capacity and next_slot != size:
            raise ConfigError(f"replay manifest next {next_slot} must equal size {size} while the ring is not full")
        store._widths = (int(kv["obs_dim"]), int(kv["act_dim"]))
        store._grow(size)
        store._size = size
        with open(bin_path, "rb") as f:
            for part in store._blob_parts():
                if f.readinto(part) != part.nbytes:
                    raise ConfigError("replay snapshot blob is truncated")
            if f.read(1):
                raise ConfigError("replay snapshot blob has trailing data")
        if sys.byteorder == "big":  # the blob is little-endian
            for part in store._blob_parts():
                part.byteswap(inplace=True)
        store._next = next_slot
        store._max_raw = float(kv["max_raw"])
        store.appended_total = int(kv["appended_total"])
        store.evicted_total = int(kv["evicted_total"])
        leaves = np.zeros(store.capacity)
        leaves[:size] = store._raw_p[:size] ** store.alpha
        store._tree.rebuild(leaves)
        return store

    def all_observation_rows(self) -> np.ndarray:
        """Every stored trained-step observation row (used by distillation)."""
        if not self._size:
            raise NotReadyError("store is empty")
        obs, _, _, _, keys = self._fields(self._rec[: self._size])
        return obs[:, : self.seg_len][np.arange(self.seg_len) < keys[:, 2:]]
