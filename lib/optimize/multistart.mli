(** Multistart driver with early stopping for local optimizers. *)

type 'a run = {
  best : 'a;  (** best optimizer result across starts *)
  best_f : float;  (** its objective value *)
  starts_used : int;  (** starts actually executed (early stop counts) *)
}

val run_parallel :
  ?first_start:float array ->
  ?domains:int ->
  rng:Linalg.Rng.t ->
  starts:int ->
  dim:int ->
  lo:float ->
  hi:float ->
  target:float ->
  optimize:(float array -> 'a) ->
  value:('a -> float) ->
  unit ->
  'a run
(** [run_parallel ~rng ~starts ~dim ~lo ~hi ~target ~optimize ~value ()]
    draws up to [starts] uniform starting points in [lo, hi]^dim, runs
    [optimize] on each and keeps the result minimizing [value]; the scan
    stops at the first start whose value reaches [target].
    [first_start] overrides the first point (NuOp seeds it with a
    near-zero template, which is exact for near-identity targets).
    [value] is called on the calling domain once per start used, in
    start order, so a caller may count the used starts' work there.

    The starts are optimized on the Domain pool ([domains] defaults to
    {!Concurrent.Domain_pool.default_domains}).  All start points are
    drawn from [rng] up front in order, and the best/early-stop selection
    scans the completed results in start order — so when [rng] is
    private to the call the returned record is bit-for-bit identical at
    any pool size.  [optimize] must be safe to call concurrently from
    several domains.  At pool size 1 (or from inside a pool worker) it is
    a lazy sequential loop that skips starts past the early stop. *)
