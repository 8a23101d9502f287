(** The content-addressed, sharded, manifest-indexed, cache-tiered verdict
    store (v3 layout).

    A verdict is a pure function of [(task, model, max_level, budget)]: the
    search is deterministic, so once computed it can be reused by every
    later process. The store is a cache of those answers, in one record
    format (canonical JSON, {!Record.record_to_json}). One engine instance
    serves two keyspaces under one root:

    - {b verdicts} — [ab/cd/<digest>.<model-slug>.L<n>.json], where the
      digest is {!Wfc_tasks.Task.digest}. Content addressing: two
      differently-named constructions of the same [(I, O, Δ)] share a
      record. The budget rides inside the record and is checked on read: a
      record computed under a different budget is a miss, never a wrong
      answer;
    - {b skeletons} — [skeletons/ab/cd/<digest>.L<b>.json], a persisted
      [SDS^b] subdivision keyed by the structural digest of its base.

    Every mutation appends a fsync'd line to [MANIFEST.jsonl]
    ({!Manifest}); [ls]/[verify]/[gc] answer from that one sequential file.
    The {e serving} path never consults the manifest: {!find} goes LRU →
    one read of the question's sharded path, so concurrent writers in other
    processes are visible immediately and manifest staleness can only
    mis-report, never mis-answer.

    Hygiene: writes are atomic (unique [.wtmp] temp + fsync + rename); a
    corrupt record, or one whose body disagrees with the digest or model it
    is filed under, is quarantined on read and never served.

    Pre-sharding stores (flat [wfc.store.v2] names in the root, and
    pre-model [wfc.store.v1] [<digest>.L<n>.json] wait-free records) are
    migrated when {!open_store} sees one; only {!migrate} and {!verify}
    know those names.

    Counters: [serve.store.{reads,puts,quarantined}] (disk tier) and
    [storage.cache.{hit,miss,evict}] (memory tier). *)

type t

val default_cache_cap : int

val open_store : ?cache_cap:int -> string -> t
(** Opens (creating root and quarantine dirs) the store at the path.
    [cache_cap] bounds the decoded-record LRU (default
    {!default_cache_cap}). One readdir of the root looks for flat-named
    records and, if there are any, migrates the store (as {!migrate})
    before returning — so a pre-sharding store answers from its first
    open. *)

val dir : t -> string

val close : t -> unit
(** Releases the manifest append handle. The store stays usable — the
    handle reopens lazily. *)

val path_of : t -> digest:string -> model:string -> max_level:int -> string
(** The sharded path {!put} writes for this question. *)

val find :
  t ->
  digest:string ->
  model:string ->
  max_level:int ->
  budget:int ->
  Record.record option
(** The stored verdict, or [None] on: no record, a different-budget record
    (which stays), or a corrupt/misfiled record (quarantined on the way
    out, with a manifest [Del]). Hits fill and consult the LRU; a cache hit
    makes no syscall, a cache miss reads exactly one path. Never raises on
    store corruption. *)

val put : t -> Record.record -> unit
(** Atomic durable publish under the sharded path, then manifest append
    and cache fill. *)

val find_skeleton : t -> digest:string -> level:int -> string option
(** Raw bytes of the persisted [SDS^level] artifact for a base complex
    with this structural digest, if present. Integrity is the caller's
    check (the artifact embeds its own digest). *)

val put_skeleton :
  t -> digest:string -> level:int -> created_at:float -> string -> unit

val attach_skeletons : t -> unit
(** Installs this store's skeleton keyspace as the process-wide
    {!Wfc_topology.Sds.skeleton_store}: cold solves against already-seen
    subdivisions replay persisted [SDS] steps instead of re-enumerating
    ([sds.skeleton.hits] / [sds.skeleton.misses]). *)

val ls : t -> Manifest.entry list
(** The live manifest view (both keyspaces), sorted by path — one
    sequential read, no [readdir], no record opens. *)

val entries : t -> (string * (Record.record, string) result) list
(** Live verdict entries with each record file read back —
    (relative path, parse result). Never quarantines. *)

type verify_report = {
  valid : int;
  corrupt : (string * string) list;  (** record files failing decode *)
  mismatched : string list;
      (** records whose body disagrees with their filed path under every
          accepted naming scheme (sharded v3, flat v2, wait-free v1) *)
  quarantined : int;  (** files already in quarantine/ *)
  stray_tmp : int;  (** interrupted atomic writes ([*.wtmp]) *)
  unindexed : int;  (** files on disk with no live manifest line (includes
                        pre-migration flat records) *)
  missing : int;  (** live manifest lines whose file is gone *)
  bad_manifest_lines : int;  (** unparseable (torn) manifest lines *)
}

val verify : t -> verify_report
(** Full reconciliation: one manifest read + one tree walk, cross-checked
    both ways. Read-only. *)

type migrate_report = {
  migrated : int;  (** flat-named records rewritten under sharded paths *)
  untouched : int;  (** records already canonical and indexed *)
  adopted : int;  (** canonical files the manifest had lost, re-indexed *)
  skipped : (string * string) list;  (** (path, reason) *)
}

val migrate : string -> migrate_report
(** v1/v2 → v3 for the store at the path: every well-formed record filed
    under a flat name is re-put under its sharded path (same record) and
    the old file removed; canonical-but-unindexed files (and skeletons) are
    adopted into the manifest. Corrupt or misfiled records are left in
    place and reported. Takes the path rather than an open store because
    {!open_store} would already have migrated it: the report counts
    everything this call moved. Idempotent. *)

val rebuild_manifest : t -> int
(** Regenerates [MANIFEST.jsonl] from nothing but a tree walk, atomically
    replacing the log; returns the live-entry count. The recovery proof
    that the manifest is derived state. *)

val gc : t -> removed:int ref -> unit
(** Reaps quarantined files and stray [.wtmp] temps (counting into
    [removed]), then compacts the manifest to exactly the live,
    still-on-disk set. *)

val seed : t -> count:int -> unit
(** Populates deterministic synthetic records (bench / CI scale runs). *)

val cache_clear : t -> unit

val cache_keys : t -> string list
(** Cached question keys, warmest first. *)
