(** Two-qubit gate matrices (4x4 unitaries) in the paper's conventions. *)

open Linalg

val fsim : float -> float -> Mat.t
(** Google's fSim(theta, phi) family (Table I). *)

val xy : float -> Mat.t
(** Rigetti's XY(theta) family (Table I); equals fSim(theta/2, 0) up to
    single-qubit rotations. *)

val cphase : float -> Mat.t
(** Controlled-phase CZ(phi) = fSim(0, phi). *)

val cz : Mat.t
val iswap : Mat.t
val sqrt_iswap : Mat.t
val syc : Mat.t
(** Google's Sycamore gate, fSim(pi/2, pi/6). *)

val swap : Mat.t
val cnot : Mat.t

val zz : float -> Mat.t
(** [zz beta] = exp(-i beta Z(x)Z), the QAOA interaction unitary. *)

val hopping : float -> Mat.t
(** [hopping theta] = exp(-i theta (XX+YY)/2), the Fermi-Hubbard hopping
    interaction; equals fSim(theta, 0). *)
