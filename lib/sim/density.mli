(** Exact density-operator simulator in vectorized (superoperator) form.

    O(4^n) per gate/channel; practical to ~10 qubits, used for the 3-6
    qubit benchmark simulations. *)

open Linalg

type t

val create : int -> t
(** |0..0><0..0| on n qubits. *)

val n_qubits : t -> int
val copy : t -> t

val get : t -> int -> int -> Complex.t
(** Matrix element rho_{r,c}. *)

val trace : t -> Complex.t
val probability : t -> int -> float
val probabilities : t -> float array
val purity : t -> float

val apply_unitary : t -> Mat.t -> int array -> unit
val apply_instr : t -> Qcir.Instr.t -> unit
val apply_superoperator : t -> State.prepared -> int array -> unit
(** [apply_superoperator t s qubits] applies a channel given as its
    prepared superoperator, [State.prepare (Channel.superoperator c)],
    to [qubits]; [s] is read, never written, so one prepared
    superoperator serves any number of applications. *)

val of_statevector : State.t -> t
val fidelity_with_pure : t -> State.t -> float
(** <psi| rho |psi>. *)

val run_circuit : Qcir.Circuit.t -> t
(** Noiseless run (unitaries only). *)
