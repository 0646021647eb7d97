(** Memoized NuOp decompositions.

    Caches the per-layer fidelity curve of each (unitary, gate type,
    optimizer options) triple; both decomposition modes and all
    instruction sets share it.  The key fingerprints the full
    {!Nuop.options} record (layer bounds, starts, seed, convergence
    threshold, BFGS tolerances), so sweeps over optimizer settings never
    alias to a stale curve.

    Because curves are deterministic, the table also persists across
    processes: {!save_to_file}/{!load_from_file} snapshot it through
    {!Persist} (schema [nuop-curves/1]), and [NUOP_CACHE_FILE] (read by
    {!warm_from_env}) warms the cache at tool startup.  A compile served
    from warm entries is byte-for-byte identical to a cold one. *)

open Linalg

val make_key :
  target:Mat.t -> gate_type:Gates.Gate_type.t -> options:Nuop.options -> string
(** The cache fingerprint: unitary digest, gate-type name and the full
    optimizer configuration.  Also the persistent entry key, so warmed
    processes only ever reuse curves computed under identical inputs. *)

val fd_curve :
  ?options:Nuop.options ->
  Gates.Gate_type.t ->
  target:Mat.t ->
  (int * float array * float) array

(** {2 Keys built in parts}

    A compile looks up every gate type of its instruction set for every
    routed two-qubit unitary, all under one options record.  These build
    each part of {!make_key} once: the lookup key has the same bytes and
    finds the same entry as {!fd_curve}'s. *)

type options_key
(** Optimizer options with their part of every key formatted. *)

val options_key : Nuop.options -> options_key

type target_key
(** A unitary with its digest. *)

val target_key : Mat.t -> target_key

val curve : options_key -> Gates.Gate_type.t -> target_key -> (int * float array * float) array
(** {!fd_curve} on key parts built beforehand. *)

val decompose_exact :
  ?options:Nuop.options -> ?threshold:float -> Gates.Gate_type.t -> target:Mat.t -> Nuop.t

val decompose_approx :
  ?options:Nuop.options -> fh:(int -> float) -> Gates.Gate_type.t -> target:Mat.t -> Nuop.t

val clear : unit -> unit
(** Drop every entry and reset the hit/miss counters.  Counters and
    table reset under one lock, so a concurrent lookup can never observe
    the empty table paired with pre-clear statistics. *)

val size : unit -> int

val stats : unit -> int * int
(** [(hits, misses)] of the fidelity-curve lookups since the last
    [clear].  The counters are atomic and the table is mutex-guarded, so
    lookups may run concurrently from the Domain pool; every lookup is
    counted exactly once. *)

val warm_hits : unit -> int
(** The subset of {!stats} hits that were served by entries loaded from
    a snapshot file — the compile pipeline snapshots this around each
    pass to attribute warm reuse per stage. *)

val capacity : unit -> int

val set_capacity : int -> unit
(** Change the entry cap (clamped to at least 2); used by tests and
    memory tuning.  When the table is over the new cap, the
    least-recently-used entries are evicted down to half of it —
    eviction never drops the whole table, so entries touched or
    inserted recently (including by concurrent domains) survive. *)

(** {2 Persistence} *)

val save_to_file : string -> int
(** [save_to_file path] atomically writes every cached curve to [path]
    (schema [nuop-curves/1], deterministic key order) and returns the
    number of entries written. *)

val load_from_file : string -> int
(** [load_from_file path] merges a snapshot into the table, marking the
    loaded entries warm, and returns how many were added.  Merge
    semantics: an entry whose key is already in memory is skipped — disk
    never clobbers newer in-memory curves.  A missing, truncated,
    wrong-version or garbage file prints one warning on stderr and adds
    nothing; no exception escapes into the caller's compile. *)

val merge_entries : (string * (int * float array * float) array) list -> int
(** The merge step of {!load_from_file}, exposed for the persistence
    tests: insert the given (key, curve) pairs under one lock, skipping
    keys already present, respecting the capacity/eviction policy.
    Returns the number inserted. *)

val warm_count : unit -> int
(** How many entries currently in the table came from a snapshot file. *)

val env_var : string
(** ["NUOP_CACHE_FILE"]. *)

val validate_env_file : string -> (string, string) result
(** Validate a [NUOP_CACHE_FILE] value: a blank path is rejected with
    the reason; anything else comes back trimmed. *)

val warm_from_env : unit -> int
(** Warm the cache from the file named by [NUOP_CACHE_FILE], if set.
    An invalid value or a not-yet-existing file warns once on stderr
    (never silently degrades to a cold run); a corrupt file warns via
    {!load_from_file}.  Returns the number of entries loaded. *)
