(** Deterministic splittable pseudo-random generator (splitmix64).

    Every stochastic component of the reproduction threads an explicit
    generator so results are reproducible across runs. *)

type t

val create : int -> t
(** [create seed] makes a fresh generator. Equal seeds yield equal streams. *)

val child : t -> t
(** Child generator whose stream is independent of the parent's future.
    Advances the parent by one draw. *)

val split : t -> int -> t
(** [split t i] derives the [i]-th substream of [t]: a pure function of
    the parent's current state and [i] that does not advance the parent.
    Equal [(state, i)] pairs always yield equal streams, and distinct
    indices yield pairwise distinct streams — the per-case seeding rule
    of [Proptest], so any case replays alone from its index. *)

val float : t -> float
(** Uniform in [0, 1). *)

val uniform : t -> float -> float -> float
(** [uniform t lo hi] is uniform in [lo, hi). Requires [hi >= lo]. *)

val int : t -> int -> int
(** [int t bound] is uniform in [0, bound). Requires [bound > 0]. *)

val bool : t -> bool

val gaussian : t -> float
(** Standard normal deviate (Box-Muller). *)

val gaussian_mu_sigma : t -> mu:float -> sigma:float -> float

val shuffle_in_place : t -> 'a array -> unit
val permutation : t -> int -> int array
