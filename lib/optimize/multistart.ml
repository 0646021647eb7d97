(* Multistart driver: run a local optimizer from several deterministic
   random starts and keep the best, stopping early once a caller-supplied
   target is reached.

   NuOp's template objective has local optima (it is a product of cosines
   of the angle parameters), so restarts matter; the early stop keeps the
   common case (threshold reached on the first start) cheap. *)

type 'a run = { best : 'a; best_f : float; starts_used : int }

(* Draw every start point up front, optimize them on the Domain pool,
   then run the sequential best/early-stop scan over the results.
   Because start k's point never depends on the outcome of start k-1,
   the returned record — best, best_f AND starts_used — is bit-for-bit
   the same at every pool size whenever the caller's [rng] is private to
   this call (NuOp creates a fresh seeded generator per layer count, so
   its results are unchanged by the pool size).

   [optimize] may execute concurrently on several domains: it must not
   touch unsynchronized shared mutable state (NuOp allocates a private
   template workspace per invocation for exactly this reason). *)
let run_parallel ?first_start ?domains ~rng ~starts ~dim ~lo ~hi ~target ~optimize
    ~value () =
  assert (starts >= 1);
  let sample () = Array.init dim (fun _ -> Linalg.Rng.uniform rng lo hi) in
  let points = Array.make starts [||] in
  points.(0) <- (match first_start with Some x -> x | None -> sample ());
  for k = 1 to starts - 1 do
    points.(k) <- sample ()
  done;
  let pool =
    match domains with
    | Some d -> d
    | None -> Concurrent.Domain_pool.default_domains ()
  in
  (* at pool size 1 (or inside a pool worker) the starts are optimized
     lazily, so starts past the early stop never run; their points are
     already drawn, so laziness cannot change any result *)
  let result =
    if pool <= 1 || Concurrent.Domain_pool.inside_pool () then fun k -> optimize points.(k)
    else begin
      let results = Concurrent.Domain_pool.map_array ~domains:pool optimize points in
      fun k -> results.(k)
    end
  in
  let rec scan k best best_f =
    if best_f <= target || k >= starts then { best; best_f; starts_used = k }
    else begin
      let r = result k in
      let f = value r in
      if f < best_f then scan (k + 1) r f else scan (k + 1) best best_f
    end
  in
  let first = result 0 in
  scan 1 first (value first)
