(** 1D Fermi-Hubbard Trotter-step circuits (spin chains under
    Jordan-Wigner, folded-line layout). *)

open Linalg

val sites : n_qubits:int -> int
val trotter_step : int -> Qcir.Circuit.t
(** One Trotter step on an even number (>= 4) of qubits: 2n ZZ
    interactions and ~4n hopping interactions, as in Sec VI, at hopping
    angle 0.6 and interaction angle 0.4. *)

val circuit : int -> Qcir.Circuit.t

val random_unitary : Rng.t -> Mat.t
(** Random-angle hopping interaction (Fig 8 characterization). *)

val interaction_unitary : Rng.t -> Mat.t

val up : int -> int -> int
(** [up m k] — line position of the spin-up orbital of site k. *)

val down : int -> int -> int
(** [down m k] — line position of the spin-down orbital of site k. *)
