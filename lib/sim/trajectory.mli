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

val apply_amplitude_damping : Rng.t -> State.t -> int -> float -> unit
(** One-pass amplitude-damping trajectory step on qubit [q] with decay
    probability [gamma]; exposed so tests can check it against the
    generic copy-based Kraus branch. *)
