// Package runtime is the parallel experiment runtime: it executes
// independent simulation cells ("jobs") across a sharded worker pool
// and memoizes completed cells in a content-addressed run cache, so
// that regenerating a report or sweep only simulates cells whose
// configuration actually changed.
//
// # Jobs, canonical keys and spec addressing
//
// A Job names one simulation cell — a (scenario, controller, seed)
// triple plus a Kind tag distinguishing job families that carry
// different payloads ("sim" for plain runs, "sec54" for the overhead
// probe, "oracle" for Table 5's prediction-accuracy probe, ...). The
// naming fields are canonical strings built by the caller from every
// input that influences the cell's outcome: the scenario descriptor
// serializes fleet size, round budget, partition, variance models and
// deadline; the controller descriptor serializes the policy family and
// its full configuration (for configurable controllers, the JSON
// encoding of their config struct). Job.Key joins these fields with a
// version prefix; bump keyVersion whenever result semantics change so
// stale cache entries can never be replayed.
//
// Jobs are spec-addressed: alongside the key fields, Job.Payload
// carries the serialized JobSpec (exp package) the cell was built
// from — a self-contained JSON description (scenario spec, declared
// contender, seed, probe knobs) from which any process derives both
// the same canonical key and the same result. The key fields and the
// payload are two projections of one spec: the executor addresses the
// cache with the former, the coordinator ships the latter across
// the process boundary, and the worker on the far side re-derives the
// key from the decoded spec and refuses mismatches, so a foreign spec
// can never poison a cache entry it does not name.
//
// # Scenario-spec schema
//
// The scenario half of a key is itself data-driven: the JobSpec's
// "scenario" block is an exp.ScenarioSpec composing five
// sub-specs, each with its own JSON codec, validation and
// canonical-key contribution:
//
//	{
//	  "name":         "realistic",           // display only, never hashed
//	  "workload":     { ... },               // full workload struct
//	  "fleet":        {"mix": {"high":30,"mid":70,"low":100}, "size": 200},
//	  "partition":    {"kind": "iid" | "dirichlet", "alpha": 0.1, "seed": 42},
//	  "network":      {"kind": "stable" | "unstable",
//	                   "meanMbps": 0, "stdMbps": 0, "floorMbps": 0},
//	  "interference": {"kind": "none" | "web-browsing" | "heavy-game",
//	                   "activeFraction": 0.5},
//	  "deadline":     {"kind": "none" | "fixed" | "auto",
//	                   "seconds": 0, "margin": 1.35, "slackSec": 15},
//	  "maxRounds":    400
//	}
//
// Zero values resolve to the paper defaults (30/70/100 mix at 200
// devices, IID data, stable channel, no co-runner, no deadline, 400
// rounds). The scenario key concatenates each sub-spec's resolved
// parameters —
//
//	<workload name>@<digest>/fleet=H30:M70:L100/rounds=400/part=iid/
//	net=gauss(mean=80,std=8,floor=1,tx=0.8,weak=1.9)/intf=none/deadline=0/agg=30
//
// — so two specs differing in any outcome-relevant field hash to
// distinct cells even when they share a display name, while
// resolved-default equivalences (zero value vs explicit paper
// default) share one cell. The display name is deliberately absent: a
// matrix-generated deployment that happens to equal a paper preset
// reuses the preset's cached cells. The digest is the first 8 bytes of
// the SHA-256 of the workload's canonical JSON, in hex.
//
// # Execution model and backends
//
// Executor.RunAll serves each batch in two steps: cache hits are
// answered directly (looked up concurrently, reported in job order),
// and the misses are handed to the executor's Backend. Results always
// come back in job order — results[i] belongs to jobs[i] regardless
// of backend, parallelism or scheduling — and a failed job yields a
// Result with Err set while the rest of the batch completes. Progress
// callbacks fire once per completed job (serialized by a mutex) and
// report done/total counts plus whether the cell was served from
// cache. Stats snapshots are taken under one lock, so hits/runs/
// errors are always mutually consistent even mid-batch.
//
// Two backends exist:
//
//   - PoolBackend (default): the sharded in-process pool. N workers
//     (default GOMAXPROCS) pull job indices from a shared channel and
//     run the job bodies with per-job panic isolation.
//
//   - Coordinator: the distributed shard coordinator behind the CLIs'
//     -workers flag. It executes batches across worker endpoints
//     reached through Transports; work distribution, in-flight
//     tracking and retry live above the Transport seam.
//
// # Transport
//
// A Transport dials wire sessions (Conn: Send/Recv/Close) to
// one worker endpoint. TCPTransport connects to a long-lived pool
// started with `fedgpo-worker -listen host:port` (one wire session per
// TCP connection). The coordinator learns how many sessions to open
// from the capacity the pool's hello advertises, and the pool drains
// gracefully on SIGTERM: in-flight jobs finish and deliver their
// responses before the process exits.
//
// # Wire protocol
//
// Every byte of a session, in both directions, belongs to a frame of
// the wire package: a 4-byte big-endian length prefix followed by that
// many raw payload bytes. A prefix above wire.MaxFrameBytes fails the
// read before anything is allocated, and a body is read in chunks as
// it arrives. Payloads travel uncompressed: binary envelopes of
// float64 round series compress less than 2x, and over the loopback
// links a fleet runs on, compressing them cost more time than the
// bytes they saved. There is one protocol, ProtoVersion (12), and no
// negotiation. The worker speaks first: its first frame is a JSON
// hello
//
//	{"hello": true, "proto": 12, "keyVersion": "v4", "capacity": N}
//
// which the coordinator validates before dispatching anything. A
// protocol-version or cache-key-scheme mismatch rejects the endpoint
// outright: a worker speaking another protocol or computing cells
// under a different key layout would otherwise return results the
// coordinator misreads or caches under the wrong keys. Any other field
// (an older worker's "cacheDir") is ignored. The coordinator's
// executor writes every result a worker returns into its own cache,
// so warm -cachedir reruns are hit-only no matter where the cells
// originally ran.
//
// Every later frame's payload is a binary envelope. Strings and byte
// strings are fl.AppendBytes fields (a minimal uvarint length, then the
// bytes) and counts are minimal uvarints. A request frame toward the
// worker carries exactly one WireRequest:
//
//	key | spec (serialized JobSpec) | snapshots
//
// and its reply is one WireResponse frame:
//
//	key | cached byte (0 or 1) | metrics (telemetry.Metrics JSON, empty when nil)
//	snapshots | Result.AppendBinary (the cache payload), to the end
//
// where snapshots is a count followed by each artifact's key and data
// (core.Snapshot.AppendBinary bytes, opaque to this package).
// The decoders are total: truncation, trailing bytes, a count larger
// than the bytes left, or anything else the encoders would not have
// written is an error, never a panic or an allocation beyond the
// payload's size.
//
// A session holds one job in flight: the coordinator sends a request,
// reads its response and only then sends the next, so a worker death
// costs at most the one job it was running. The worker decodes the
// spec, verifies it addresses the dispatched key, and executes it
// through its own Executor — same cache check, same panic isolation,
// same cache write-back as the pool path. The cached flag and the
// metrics travel beside the result because Result.Cached and
// Result.Telemetry are deliberately not part of the result's binary
// form, so neither can ever reach a cache entry; the coordinator folds
// them into its own statistics. A malformed frame fails the session
// naming the offending frame index. ServeSession implements the worker
// side and Serve the TCP accept loop, so any binary can join the
// protocol.
//
// # Dispatch, retry and failover
//
// Sessions pull their next job from the batch's queue as they finish
// the last, so a slow or remote endpoint never straggles the batch the
// way a static key-partitioned shard could. Beyond the probe session
// that reads an endpoint's capacity, sessions dial lazily — no
// connection exists until a session actually holds a job. Each
// session has a retry budget of one: on failure (crash, disconnect,
// truncated or out-of-order output) it re-dials and
// resends only its in-flight job — answered jobs are never resent,
// which matters because results were already streamed to the
// executor. A session whose budget runs out hands its job back to the
// queue for surviving endpoints to absorb; only when
// the whole fleet is gone do remaining jobs surface as error results.
// A session blocks on its reply until it arrives or the connection
// dies: cells may legitimately run for minutes, so only the dial and
// hello carry a deadline. Per-endpoint dispatch/retry/give-up counters
// live only in the run's telemetry.Collector; Executor.Stats and
// Coordinator.EndpointStats read them out of one snapshot of it.
//
// Between live processes, data moves only over the wire: results in
// responses, pretrained-controller snapshots in responses and pushes
// (below). Worker pools may point -cachedir at the coordinator's
// directory, but a process reads only the records present when its
// cache is first used, so nothing one live process writes reaches
// another through the disk. Results are byte-identical on every
// backend, because snapshots are deterministic and their binary form
// is exact: a decoded snapshot equals the one encoded, every float's
// bits included.
//
// Sharing a directory therefore stores each result and snapshot
// twice: the worker's Executor appends it to the worker's pack, and
// the coordinator writes it again into its own pack, the result in
// Executor.RunAll's write-back and a shipped snapshot in
// Coordinator.storeSnapshot. A cold fig5 -tiny report over two pools
// and the coordinator on one directory leaves two packs of 27,221
// bytes each, holding the same records: the pack of the pool that ran
// the cells and the coordinator's. The cost is accepted: no
// workload shares a directory, and avoiding it would need the
// coordinator to learn which results a worker already persisted
// there, the per-result flag and hello field that were deleted to keep
// the wire free of cache state.
//
// Parallelism lives at the job level only: each simulation cell runs
// its rounds serially on the goroutine executing it, so a backend's
// parallelism is its worker count.
//
// # Simulation kernel: scratch arenas and the run memo
//
// The cell bodies those workers execute run on fl's round loop. Every
// fl.Run borrows a scratch arena (fl.Arena) from a process-wide
// sync.Pool — effectively one arena per outer worker — holding every
// buffer the round loop touches: participant rounds, device states,
// the double-buffered selection (so a controller's Observation can
// reference the previous round's participants), aggregation scratch,
// and a fixed [device.NumCategories]float64 energy accumulator that is
// only expanded into the Result's category map once per run. A round
// makes one serial pass over its participants — the controller's
// per-device (B, E), then that device's compute time
// (device.ComputeSeconds) and round trip (netsim.CommModel) — and then
// merges in fixed device order. Runs in one process share a run memo
// (fl/memo.go): one fleet per composition, one partition per partition
// spec and size (with its per-device signals, which the arena's
// data.Memo reads), and one environment trace per (seed, fleet size,
// interference, channel) that the first run to reach a round records
// and every later run replays. So steady-state rounds do not allocate
// (an fl unit test holds a warmed-arena run under 2 allocations per
// round). Reuse never changes a byte: beginRun re-derives every
// per-run table from the new config, and byte-identity of dirty-arena
// reruns is tested directly.
//
// # Scheduling and snapshot shipping
//
// A job may name the pretrain snapshot it reads (Job.SnapshotKey: for
// warm FedGPO cells, the pretrained-controller snapshot key). The key
// is a dependency, never part of the cell: it enters no canonical key,
// wire spec or result byte.
//
// The executor hands a batch's cache misses to its backend leaders
// first: the first miss reading each distinct snapshot, in batch
// order, then every other miss in batch order. A batch [A(K1), B(K1),
// C(K2), D] reaches the backend as [A, C, B, D]. The first reader of a
// snapshot runs its Q-table warm-up and a sibling reading the same
// snapshot waits on that warm-up, so batch order would park a second
// worker behind A's warm-up while C's waits; leaders first starts the
// distinct warm-ups on distinct workers, on both backends. Results
// still land by job index, and the order changes no byte of them.
//
// The coordinator dispatches each batch through one FIFO that every
// endpoint's sessions pull from, oldest eligible job first. Its only
// rule keeps each warm-up singular: a job reading snapshot K may go to
// endpoint e only if (a) the coordinator already pools K, (b) e is
// building K, or (c) no live endpoint is building K, and e then
// becomes K's builder. A session with nothing eligible waits for a
// pooled snapshot, a builder's exit (which frees its keys), requeued
// work or the end of the batch. A fleet-wide cold sweep over S
// distinct scenarios therefore performs exactly S Q-table warm-ups,
// and placement never changes a result.
//
// Snapshot shipping makes that reuse fleet-wide. A worker whose cell
// built a fresh pretrain snapshot returns the encoded artifact with
// its response (in the snapshot list beside the result); the
// coordinator pools the bytes without decoding them, persists them
// into its own cache under the snapshot key as they are
// (byte-identical to the entry the worker wrote locally, both being
// the one encoding the worker made), and pre-pushes them inside later
// requests for cells sharing that key dispatched at pools not known to
// hold it, whatever cache directory they use. The worker installs pushed
// artifacts before running the request, resolving its pretrain
// singleflight without executing the warm-up. A snapshot counts as
// held by a pool once the request carrying it was sent, so a request
// resent after a failed send carries it again. Per-endpoint
// pushed-snapshot bytes land in the -v summary and the -metrics-out
// artifact beside the dispatch counters.
//
// # Cache format
//
// The cache is content-addressed by the SHA-256 digest of the
// canonical key, which Get and Put compute once per call. Without a
// directory, entries live in an in-memory map from digest to payload;
// when one is configured (the CLIs' -cachedir flag)
// entries are records in append-only pack files,
// <dir>/pack-<time>-<pid>-<rand>.fgcp. Each record is
//
//	uint32 BE envelope length | "FGC3" | uvarint(key length) | canonical key | payload | CRC-32C
//
// built in one buffer and appended in one write. Each Cache appends to
// one pack of its own, which it creates on its first Put with O_EXCL,
// so a cold report creates one file and no writer ever shares a pack.
//
// A job Result's payload, on disk and in memory alike, is its own
// binary form (Result.AppendBinary: key, error text and Extra as
// length-prefixed bytes, then fl.Result with fixed-width float bits and
// varint ints): about a quarter of its JSON bytes, decoded in a few
// percent of the JSON decode time, which was most of a warm report's
// work. It leaves out fl.Outcome, which a decode leaves zero and
// exp.Runtime derives again from the history (fl.OutcomeOf), so a
// metric's definition never lives in cached bytes. A pretrain
// snapshot's payload is its binary form too
// (core.Snapshot.AppendBinary), stored as the bytes its warm-up
// encoded. Every other artifact — decision traces, the Fixed (Best)
// grid selection — stays JSON. The canonical key rides in clear text
// ahead of the payload, so a reader rejects a
// foreign record (hash collision) after reading only the header, and
// packs stay greppable by key. The payload is stored raw: float64
// round series compress less than 2x, and inflating them was half of a
// warm report's CPU. The closing CRC-32C (Castagnoli table, big-endian)
// covers every envelope byte before it, so a flipped byte anywhere
// reads as corrupt, and a reader decodes the payload in place as a
// sub-slice of the record bytes. A record is bounded like a transport
// frame: a length prefix over the header bound plus
// wire.MaxFrameBytes is refused before anything is allocated.
//
// A Cache finds records through an index of key digest to (pack,
// offset, length). Its first lookup or Put builds the index, once, by
// scanning the record heads — length, magic, key — of every pack in
// name order, which is creation order, through one bounded buffer; no
// pack is read into memory whole. After that only the Cache's own Put
// and Prune change the index: a miss is a map miss and never lists the
// directory, so a record another live process appends later is not
// seen until a new Cache opens the directory. Put indexes its own
// records as it appends them, and the newest record of a key wins. A
// hit opens the pack, reads the record and closes the pack again, so
// no handle is held per pack.
//
// A scan stops at the first record that is incomplete or malformed:
// a torn or in-flight tail is never indexed. After a failed or short
// append, a Cache drops its pack and the next Put creates a new one.
// Any record that fails on read — a key or checksum mismatch, a payload
// that does not decode — is a miss and the cell re-runs, appending a
// new record the index then points at. Every file without the .fgcp
// extension is foreign and never read. Every hit reads its record and
// checks its CRC again; no decoded payload is kept between reads.
// Results that ended in an error are never cached.
//
// # Cache eviction
//
// Packs do not live forever: Cache.Prune (the CLIs' -cache-max-bytes
// flag) removes whole packs oldest-mtime-first at startup until the
// directory fits the byte budget. A Cache's first hit in a pack
// refreshes the pack's mtime, so mtime order is LRU order and a pack a
// warm report still reads outlives a newer one nothing asks for. Prune
// drops the records of removed packs from the index, so an evicted
// entry is a miss, and leaves every file that is not a pack alone.
// Pruning is a CLI-startup job only; worker pools never prune.
//
// # Pretrained-controller cache
//
// The cache also stores non-job artifacts under KeyFor-built keys.
// The largest such family is the pretrained-controller cache: the warm
// FedGPO contender's Q-table warm-up is executed once per scenario and
// captured as a core.Snapshot under
//
//	<keyVersion>|pretrain|<scenario key>|cfg=<controller config JSON>|warmseed=<N>|warmrounds=<N>|snap=<format>
//
// so every figure/table cell (and the Table 5 oracle probes) that
// evaluates the same warmed controller restores it from the snapshot
// instead of re-running the warm-up per (cell, seed). The key carries
// the full controller configuration and the warm-up deployment, so
// ablation variants and different scenarios never share tables, and
// the snapshot's encoding (core.SnapshotFormat), so a record written
// in another encoding is never looked up: a plain miss, rebuilt once,
// not a corrupt entry. The payload is core.Snapshot.AppendBinary's
// form, whose decode is exact (keys in sorted order, floats as their
// IEEE-754 bits, nil kept apart from empty), so a cell's result does
// not depend on whether its snapshot was built in-process, read from
// disk or shipped by another process. The process that runs the
// warm-up encodes once and keeps the value it built; a cache hit and a
// shipped snapshot are decoded by core.Snapshot.UnmarshalBinary, which
// is total and bounded by its input, and then checked by
// core.Snapshot.Validate.
// The experiment runtime's in-process singleflight guarantees at most
// one warm-up per key even when many workers request it concurrently.
// Grid-search selections ("fixed-best" keys) follow the same
// KeyFor pattern.
//
// # Result store
//
// Result carries the full structured outcome of a cell: the
// simulator's summary metrics and per-round history (fl.Result) plus
// an optional Kind-specific Extra payload. Store is an append-only
// JSON Lines log of them: the CLIs' -results flag has every completed
// cell appended as one record the moment its batch completes, so
// external tooling can consume completed runs without re-simulating
// (a repeated key appends a new line; a reader keeps the last one).
// Only the keys stay in memory, and Store.Len counts the distinct
// ones.
//
// # Telemetry
//
// The runtime is instrumented against one telemetry.Collector, the
// run's only record of its job, cache and endpoint counts. An Executor
// and a Coordinator each start with a collector of their own;
// Executor.SetCollector replaces both (the exp.Runtime constructor
// hands it the runtime's collector, and the cache the same one):
//
//   - The executor counts its job-level accounting into the
//     collector as each result lands — SimsExecuted for a computed
//     cell, CacheHits for a replay — and Executor.Stats reads those
//     two counters back rather than keeping its own. Per-job phase timings
//     attached to a Result (Result.Telemetry) are folded in at the
//     same point, whether the cell ran in-process or arrived over the
//     wire's "metrics" field.
//   - The cache times every Get/Put as cacheRead/cacheWrite phases
//     (payload decode separately as cacheDecode), splits hits
//     into CacheMemHits and CacheDiskHits, counts clean CacheMisses apart from CacheCorrupt
//     discards, counts the pack mtime touches hits apply
//     (CacheTouches, at most one per pack),
//     and reports Prune removals
//     as Evictions. Cache-level counters can exceed job-level ones:
//     pretrain snapshots and trace artifacts are cache traffic but not
//     jobs.
//   - The coordinator lists every endpoint in the collector with zero
//     counts, then records into that endpoint's entry (under the
//     collector's lock) each dispatch, retry, give-up and pushed
//     snapshot byte, the Send→Recv latency histogram (exponential
//     1µs-base buckets), and the raw bytes its sessions meter both
//     ways (handshake included), plus request-frame and spec counts,
//     equal since a frame carries one spec. The fleet-wide Retries,
//     Failovers and SnapshotBytesShipped counters are sums over those
//     entries, taken at Snapshot. telemetry.Metrics.Summary, the
//     CLIs' -v output, prints one line per entry.
//
// Provenance: because wall-clock measurements (the sec54 probe's
// overhead timers) are replayed verbatim on a cache hit, every result is tagged after execution with
// ProvenanceMeasured or ProvenanceReplayed. The tag is assigned after
// cache write-back and is not part of the result's binary form, which
// wire responses and cache entries carry, so cache entries stay
// byte-identical across cold and warm runs.
//
// Decision traces: with tracing enabled (the CLIs' -trace-level flag)
// each traceable cell's per-round RL decision record is published as a
// spec-addressed cache artifact under
//
//	<keyVersion>|trace|<level>|<kind>|<scenario key>|<controller key>|seed=<N>
//
// — addressed exactly like the result it annotates, never colliding
// with it, and never entering the result's canonical key (traced and
// untraced runs share one cache cell). A traced cell whose artifact is
// missing is compiled with Job.ForceRun, re-executing once to capture
// the trace while republishing byte-identical results; once the
// artifact exists, re-tracing is a pure cache hit.
package runtime
