(* Decomposition memoization.

   The expensive object is the per-layer fidelity curve of a
   (unitary, gate type) pair — it is independent of hardware error rates,
   so exact decompositions, approximate decompositions at any error rate,
   and noise-adaptive selections across instruction sets all share one
   cached curve.

   Keys fingerprint EVERYTHING the curve depends on: the unitary digest,
   the gate-type name, and the full optimizer configuration (layer
   bounds, multistart count, seed, convergence threshold and every BFGS
   tolerance).  Two callers sweeping optimizer settings must never alias
   to one entry — a shared curve would silently corrupt any ablation that
   compares those settings.

   Eviction at the size cap drops the least-recently-used half of the
   table (never the whole table): the entries other domains inserted
   moments ago survive, so an insert can never wipe a concurrent
   domain's in-flight result and force its next lookup to recompute.
   The LRU cutoff comes from sorting the (distinct) generation stamps:
   one O(n log n) sort per cap/2 inserts, so O(log n) per insert
   amortized.

   The cache is shared across the Domain pool used by the parallel suite
   evaluator: the table is guarded by a mutex and the hit/miss counters
   are atomics.  Curve optimization runs OUTSIDE the lock — two domains
   missing on the same key may both compute the (identical, deterministic)
   curve, which wastes a little work but never blocks the whole pool on
   one optimization.

   Curves are deterministic, so they also persist across processes:
   [save_to_file]/[load_from_file] snapshot the table through
   {!Persist} (schema nuop-curves/1).  Entries that came from disk are
   marked "warm"; merging never clobbers an entry already in memory, a
   corrupt or wrong-version file warns on stderr and loads nothing, and
   a compile served from warm curves is byte-for-byte identical to a
   cold one. *)

open Linalg

let default_capacity = 100_000

(* Guarded by [lock], like the table. *)
let cap = ref default_capacity

type entry = {
  mutable gen : int;
  warm : bool;  (** loaded from a snapshot file rather than computed here *)
  curve : (int * float array * float) array;
}

let table : (string, entry) Hashtbl.t = Hashtbl.create 4096

(* Monotonic access clock for LRU ordering; guarded by [lock]. *)
let clock = ref 0

let lock = Mutex.create ()

(* Lifetime hit/miss counters (reset by [clear]); the compile pipeline
   snapshots them around each pass to attribute hits per stage.
   [warm_hits] counts the subset of hits served by disk-loaded
   entries.  The counters live in the Obs registry (still domain-safe
   atomics underneath), so a --trace run records their final totals in
   its closing snapshot; the [stats]/[warm_hits] API is unchanged. *)
let hits = Obs.Counter.create "decompose.cache.hits"
let misses = Obs.Counter.create "decompose.cache.misses"
let warm_hit_count = Obs.Counter.create "decompose.cache.warm_hits"

let make_key ~target ~gate_type ~options =
  let o = options in
  let b = o.Nuop.bfgs in
  Printf.sprintf "%s|%s|%d-%d|s%d|r%d|cv%.17g|b%d;%.17g;%.17g;%.17g;%.17g"
    (Digest.to_hex (Mat.digest target))
    (Gates.Gate_type.name gate_type)
    o.Nuop.min_layers o.Nuop.max_layers o.Nuop.starts o.Nuop.seed
    o.Nuop.convergence_fd b.Optimize.Bfgs.max_iter b.Optimize.Bfgs.grad_tol
    b.Optimize.Bfgs.f_tol b.Optimize.Bfgs.step_tol b.Optimize.Bfgs.fd_step

let with_lock f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

(* Drop the least-recently-used entries until only [keep] remain.
   Generation stamps are distinct (the clock is bumped on every touch),
   so the survivors do not depend on the sort's tie order.  Called with
   the lock held. *)
let evict_lru ~keep =
  let n = Hashtbl.length table in
  if n > keep then begin
    let order = Array.make n ("", 0) in
    let i = ref 0 in
    Hashtbl.iter
      (fun key e ->
        order.(!i) <- (key, e.gen);
        incr i)
      table;
    Array.sort (fun (_, a) (_, b) -> Int.compare a b) order;
    for k = 0 to n - keep - 1 do
      Hashtbl.remove table (fst order.(k))
    done
  end

(* Insert one entry, evicting first if the table sits at the cap.
   Called with the lock held. *)
let insert_locked ~warm key curve =
  if Hashtbl.length table >= !cap then evict_lru ~keep:(max 1 (!cap / 2));
  incr clock;
  Hashtbl.replace table key { gen = !clock; warm; curve }

let fd_curve ?(options = Nuop.default_options) gate_type ~target =
  let key = make_key ~target ~gate_type ~options in
  let cached =
    with_lock (fun () ->
        match Hashtbl.find_opt table key with
        | Some e ->
          incr clock;
          e.gen <- !clock;
          Some (e.curve, e.warm)
        | None -> None)
  in
  match cached with
  | Some (curve, warm) ->
    Obs.Counter.incr hits;
    if warm then Obs.Counter.incr warm_hit_count;
    curve
  | None ->
    Obs.Counter.incr misses;
    let curve = Nuop.fd_curve ~options gate_type ~target in
    with_lock (fun () -> insert_locked ~warm:false key curve);
    curve

let decompose_exact ?(options = Nuop.default_options) ?threshold gate_type ~target =
  Nuop.exact_of_curve ?threshold gate_type (fd_curve ~options gate_type ~target)

let decompose_approx ?(options = Nuop.default_options) ~fh gate_type ~target =
  Nuop.approx_of_curve ~fh gate_type (fd_curve ~options gate_type ~target)

let clear () =
  (* The counters reset under the same lock as the table: a concurrent
     [fd_curve] can never observe the empty table with stale counters
     (or fresh counters with the old table) — stats and contents move
     as one. *)
  with_lock (fun () ->
      Hashtbl.reset table;
      clock := 0;
      Obs.Counter.reset hits;
      Obs.Counter.reset misses;
      Obs.Counter.reset warm_hit_count)

let size () = with_lock (fun () -> Hashtbl.length table)
let stats () = (Obs.Counter.get hits, Obs.Counter.get misses)
let warm_hits () = Obs.Counter.get warm_hit_count

let capacity () = with_lock (fun () -> !cap)

let set_capacity n =
  let n = max 2 n in
  with_lock (fun () ->
      cap := n;
      if Hashtbl.length table > n then evict_lru ~keep:(max 1 (n / 2)))

(* ---------- persistence ---------- *)

let warm_count () =
  with_lock (fun () ->
      Hashtbl.fold (fun _ e acc -> if e.warm then acc + 1 else acc) table 0)

let save_to_file path =
  let entries =
    with_lock (fun () ->
        Hashtbl.fold (fun key e acc -> (key, e.curve) :: acc) table [])
  in
  (* deterministic file bytes regardless of hash-table iteration order *)
  let entries = List.sort (fun (a, _) (b, _) -> compare a b) entries in
  Persist.save path entries;
  List.length entries

let merge_entries entries =
  with_lock (fun () ->
      List.fold_left
        (fun merged (key, curve) ->
          (* disk entries never clobber newer in-memory ones *)
          if Hashtbl.mem table key then merged
          else begin
            insert_locked ~warm:true key curve;
            merged + 1
          end)
        0 entries)

let load_from_file path =
  match Persist.load path with
  | Ok entries -> merge_entries entries
  | Error reason ->
    Obs.Log.warn "nuop: cache file %s is unusable (%s); starting cold" path reason;
    0

(* ---------- NUOP_CACHE_FILE ---------- *)

let env_var = "NUOP_CACHE_FILE"

let validate_env_file value =
  if String.trim value = "" then
    Error "empty path (expected a curve-snapshot file name)"
  else Ok (String.trim value)

(* One warning per process about the env var, whichever problem fires
   first — Obs.Log's warn-once keyed on the var name. *)
let warn_env fmt = Obs.Log.warn_once ~key:env_var fmt

let warm_from_env () =
  match Sys.getenv_opt env_var with
  | None -> 0
  | Some value -> (
    match validate_env_file value with
    | Error reason ->
      warn_env "nuop: ignoring invalid %s=%S (%s)" env_var value reason;
      0
    | Ok path ->
      if Sys.file_exists path then load_from_file path
      else begin
        warn_env "nuop: %s=%s does not exist yet; starting cold" env_var path;
        0
      end)
