"""Walkthrough: elastic operations on the sharded streaming fleet.

Builds on ``examples/sharded_streaming.py`` — same model store, same
replay/parity harness — but exercises the elastic layer added on top of
the snapshot protocol: every stateful piece of the serving path
(windower, smoother, session, whole scheduler) round-trips byte-exactly
through ``snapshot()``/``restore()``, which is what makes worker state
a *transferable value* rather than something only reconstructible by
journal replay.

The walkthrough demonstrates the four elastic properties:

1. **Checkpoint-bounded recovery** — checkpoint a worker (journal
   truncates), SIGKILL it, and the respawn restores the snapshot blob
   plus the short journal tail instead of replaying its lifetime;
2. **Live session migration** — one session moves between workers
   mid-stream, its windower buffer, vote history, and still-queued
   windows travelling as a versioned transfer blob;
3. **Live rescaling** — the fleet grows 2 -> 4 and shrinks 4 -> 3 under
   load; consistent-hash routing moves only the sessions that must
   move;
4. **Byte-exactness throughout** — the per-session decision streams of
   the disturbed run equal the undisturbed single-process run's,
   compared by digest.

Run:  PYTHONPATH=src python examples/elastic_fleet.py
"""

import os
import pathlib
import signal
import tempfile

import numpy as np

from repro.emg import EMGDatasetConfig, WindowConfig, generate_subject
from repro.emg.windows import paper_split, windows_from_trials
from repro.hdc import BatchHDClassifier, HDClassifierConfig, save_model
from repro.hdc.serialize import load_model
from repro.stream import (
    ShardedStreamingService,
    StreamConfig,
    StreamingService,
    parity_digest,
    replay,
    trace_from_streams,
)

DIM = 2048
N_SESSIONS = 8


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        run(pathlib.Path(tmp) / "emg-model.npz")


def run(store: pathlib.Path) -> None:
    # -- 1. one trained model, one deterministic trace -------------------
    dataset = EMGDatasetConfig(n_subjects=1)
    subject = generate_subject(dataset, 0)
    window = WindowConfig()
    train_trials, _ = paper_split(subject)
    train_w, train_l = windows_from_trials(train_trials, window)
    model = BatchHDClassifier(HDClassifierConfig.emg(dim=DIM))
    model.fit(np.asarray(train_w), train_l)
    save_model(store, model)
    print(f"model store: {store.name} (D={DIM})")

    trials = subject.trials
    streams = [
        np.concatenate(
            [t.envelope for t in trials[s :: N_SESSIONS]]
        )
        for s in range(N_SESSIONS)
    ]
    trace = trace_from_streams(streams, seed=42, chunking=(5, 40))
    config = StreamConfig(window=window, max_batch=64, max_wait=4)

    # The undisturbed reference: one single-process scheduler.
    reference = parity_digest(
        replay(StreamingService(load_model(store), config), trace)
    )
    print(
        f"trace: {trace.n_events} events, {trace.total_samples} "
        f"samples, {N_SESSIONS} sessions; reference digest "
        f"{reference[:16]}…"
    )

    # -- 2. one run, every elastic operation ------------------------------
    mid = trace.n_events

    def checkpoint_and_kill(service):
        # Checkpoint every worker (journals truncate to zero), then
        # SIGKILL shard 0: its respawn restores the blob and replays
        # only commands journaled since the checkpoint.
        for index in range(service.n_shards):
            size = service.checkpoint_shard(index)
            print(
                f"  checkpointed shard {index}: {size / 1024:.0f} KiB "
                f"blob, journal now {service.journal_length(index)} "
                f"commands"
            )
        os.kill(service.shard_process(0).pid, signal.SIGKILL)
        print("  SIGKILLed shard 0 (recovery is automatic)")

    def migrate_one(service):
        session = trace.session_ids[0]
        src = service.shard_of(session)
        dst = (src + 1) % service.n_shards
        print(f"  migrating session {session}: shard {src} -> {dst}")
        return service.migrate_session(session, dst)

    def grow(service):
        print("  rescale -> 4 shards (sessions move only onto new ones)")
        return service.rescale(4)

    def shrink(service):
        print("  rescale -> 3 shards (retiring shard drains first)")
        return service.rescale(3)

    with ShardedStreamingService(
        store, config, n_shards=2, checkpoint_interval=200
    ) as service:
        print(f"fleet: {service.n_shards} shards")
        per_session = replay(
            service,
            trace,
            actions={
                mid // 5: checkpoint_and_kill,
                (2 * mid) // 5: migrate_one,
                (3 * mid) // 5: grow,
                (4 * mid) // 5: shrink,
            },
        )
        print(
            f"elastic counters: {service.checkpoints} checkpoints, "
            f"{service.migrations} migrations, "
            f"{service.rescales} rescales, "
            f"shard-0 respawns {service.shard_respawns(0)}"
        )
        fleet = service.stats()

    # -- 3. the punchline -------------------------------------------------
    digest = parity_digest(per_session)
    assert digest == reference, "elastic run diverged from reference!"
    print(
        f"parity: disturbed-run digest {digest[:16]}… == reference — "
        f"checkpoints, a SIGKILL, a migration, and two rescales were "
        f"unobservable in the output bytes"
    )
    print("\nfleet telemetry after the dust settled:")
    for line in fleet.describe():
        print("  " + line)


if __name__ == "__main__":
    main()
