(** Monte Carlo trajectory simulation for 10-20 qubit circuits
    (Fig 10f's Fermi-Hubbard runs). *)

open Linalg

type noise_model = Noisy.noise_model

val run_one : Rng.t -> noise_model -> Qcir.Circuit.t -> State.t
(** One stochastic trajectory (normalized pure state). *)

val mean_ideal_overlap :
  trajectories:int ->
  noise_model ->
  Qcir.Circuit.t ->
  ideal:State.t ->
  float
(** E[sum_x p_noisy(x) p_ideal(x)] — the overlap needed by linear XEB.
    The trajectories draw from a private RNG seeded 5, so each call is
    deterministic. *)

val mean_probabilities :
  ?seed:int -> trajectories:int -> noise_model -> Qcir.Circuit.t -> float array

(** Exposed for tests: the generic copy-based Kraus branch and its
    one-pass specializations used on large states. *)

val apply_kraus_branch : Rng.t -> State.t -> Linalg.Mat.t list -> int -> unit
val apply_amplitude_damping : Rng.t -> State.t -> int -> float -> unit
val apply_phase_damping : Rng.t -> State.t -> int -> float -> unit
